"""Per-layer retention budgets via binary search on a priority threshold.

Given per-layer cumulative priority sequences and a compression ratio
budget r, the allocator searches for an information retention threshold
p such that retaining, in each layer, the smallest priority prefix whose
cumulative priority reaches p consumes exactly r of the total cache.
The plan itself is the exact global prefix: the ``round(r * L * N)``
cheapest tokens in one order over every layer, so it never depends on
where the search stopped, and more budget never shrinks a layer. A
budget is therefore only r and a per-layer floor; the search stops by
the module constants ``DELTA_TOL`` and ``MAX_STEPS``.
Uniform, pyramid-ramp and positional ("local") baseline policies, and
the per-sample-mean offline estimate, round real-valued per-layer
ratios onto the same exact budget instead.

Everything here is pure and deterministic; offline estimation reduces
over samples in fixed index order so results are reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BudgetError, MismatchError, ParseError, UsageError
from .importance import PrioritySequence
from .trace import TraceMeta, _is_int, _read_json_object

POLICIES = ("prefixkv", "uniform", "pyramid", "local")
OFFLINE_METHODS = ("per-sample-mean", "pooled-curve")


# The threshold search stops once the summed-ratio budget difference is
# within DELTA_TOL, or after MAX_STEPS evaluations. Both shape only the
# search and its recorded outcome: a plan's counts are the exact global
# prefix wherever the search stopped.
DELTA_TOL = 0.025
MAX_STEPS = 32


@dataclass(frozen=True)
class BudgetSpec:
    """Compression budget: the ratio r of the full cache a plan keeps.

    ``min_tokens_per_layer`` floors every layer's cache so no layer ends
    up empty at decode time (set 0 to disable). Both settings change a
    plan; how the threshold search stops does not, so it is no setting
    here (see ``DELTA_TOL`` and ``MAX_STEPS``).
    """

    r: float
    min_tokens_per_layer: int = 1

    def __post_init__(self) -> None:
        real = isinstance(self.r, numbers.Real) and not isinstance(self.r, bool)
        if not (real and 0.0 < self.r <= 1.0):
            raise BudgetError(f"compression ratio must be a real number in (0, 1], got {self.r!r}")
        if not _is_int(self.min_tokens_per_layer) or self.min_tokens_per_layer < 0:
            raise BudgetError("min_tokens_per_layer must be a nonnegative integer, "
                              f"got {self.min_tokens_per_layer!r}")
        # A Python float and int, which the configuration writer takes.
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "min_tokens_per_layer", int(self.min_tokens_per_layer))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the threshold search.

    ``delta_final`` is the summed-ratio budget difference at the returned
    threshold; ``converged`` is true when it is zero or within tolerance.
    """

    p: float
    steps: int
    delta_final: float
    converged: bool


@dataclass(frozen=True)
class PrefixConfiguration:
    """A plan: the number of prefill positions each layer keeps.

    ``token_counts`` always sum to ``round(r * L * N)`` exactly. For an
    online or pooled-curve prefixkv plan they are the exact global
    prefix; baselines and the per-sample-mean estimate round real-valued
    per-layer ratios onto them. ``threshold`` is the search outcome, None
    for baseline policies; ``samples`` is set for offline estimates only,
    and ``sink_count`` for the local policy only.
    """

    budget: BudgetSpec
    seq_len: int
    token_counts: np.ndarray
    policy: str = "prefixkv"
    threshold: SearchResult | None = None
    samples: int | None = None
    sink_count: int | None = None

    @property
    def layers(self) -> int:
        return len(self.token_counts)


def _counts_at(cumulative: np.ndarray, p: float) -> np.ndarray:
    """Per-layer prefix sizes at threshold p: the tokens that cost less than p."""
    if p <= 0.0:
        return np.zeros(len(cumulative), dtype=np.int64)
    return _prefix_counts(_insertion_points(cumulative, [p])[:, 0], cumulative.shape[1])


def _prefix_counts(idx: np.ndarray, N: int) -> np.ndarray:
    """Sizes of the prefixes ending at each layer's left insertion point of p."""
    return np.minimum(idx, N - 1) + 1


def _insertion_points(cumulative: np.ndarray, values) -> np.ndarray:
    """Left insertion point of every value in every row: one call per layer.

    The left insertion point of ``np.nextafter(p, np.inf)`` is the right
    insertion point of p, since no float lies strictly between the two.
    """
    values = np.asarray(values, dtype=float)
    points = np.empty((len(cumulative), len(values)), dtype=np.intp)
    for l, row in enumerate(cumulative):
        points[l] = np.searchsorted(row, values)
    return points


def binary_search(seq: PrioritySequence, budget: BudgetSpec) -> SearchResult:
    """Bisect on the retention threshold until the budget difference vanishes.

    Follows the midpoint recurrence p <- (p1 + p2) / 2 starting from
    [0, 1], moving p1 up while the configuration is under budget and p2
    down while over. Stops on an exact zero difference, on
    ``|delta| <= DELTA_TOL``, or after ``MAX_STEPS`` evaluations. Because
    the threshold-to-ratio map only changes at cumulative priority
    values, the search also stops once at most one such value remains
    inside the bracket: no further midpoint can improve on the best
    difference already seen, which is then returned (converged=False if
    it missed the tolerance).
    """
    return _search(seq.cumulative, budget)


def _search(cumulative: np.ndarray, budget: BudgetSpec, delta_tol: float = DELTA_TOL,
            max_steps: int = MAX_STEPS) -> SearchResult:
    """``binary_search`` on an (L, N) cumulative matrix; a study of the search sets its stop."""
    L, N = cumulative.shape
    target = budget.r * L
    if budget.r == 1.0:
        # Full budget retains everything; no search necessary.
        return SearchResult(p=1.0, steps=0, delta_final=0.0, converged=True)

    steps = 0
    # Best-so-far keyed by |delta|, preferring under-budget on ties. The
    # realization only uses p to place its window, so the choice moves the
    # recorded fields, never the counts.
    best_key: tuple[float, int] | None = None
    best_p = best_delta = 0.0

    def evaluate(p: float) -> tuple[float, np.ndarray]:
        """Budget difference at p, and p's left and right insertion points."""
        nonlocal steps, best_key, best_p, best_delta
        steps += 1
        points = _insertion_points(cumulative, [p, np.nextafter(p, np.inf)])
        delta = float((_prefix_counts(points[:, 0], N) / N).sum() - target)
        key = (abs(delta), 0 if delta < 0 else 1)
        if best_key is None or key < best_key:
            best_key, best_p, best_delta = key, p, delta
        return delta, points

    # Ratios only change at cumulative values. Per layer, i is the right
    # insertion point of p1 and j the left one of p2, so row[i] is the first
    # value above p1 and row[j - 1] the last below p2; each bracket end
    # keeps the points found when it was evaluated.
    rows = np.arange(L)
    i, j = _insertion_points(cumulative, [np.nextafter(0.0, np.inf), 1.0]).T
    p1, p2 = 0.0, 1.0
    while steps < max_steps:
        p = (p1 + p2) / 2.0
        delta, points = evaluate(p)
        if delta == 0.0 or abs(delta) <= delta_tol:
            return SearchResult(p=p, steps=steps, delta_final=delta, converged=True)
        if delta < 0.0:
            p1, i = p, points[:, 1]
        else:
            p2, j = p, points[:, 0]
        above = cumulative[rows[i < N], i[i < N]].min(initial=np.inf)
        below = cumulative[rows[j > 0], j[j > 0] - 1].max(initial=-np.inf)
        if above >= p2 or above == below:
            if above == below and steps < max_steps:
                v = float(above)
                delta_v, _ = evaluate(v)
                if delta_v == 0.0 or abs(delta_v) <= delta_tol:
                    return SearchResult(p=v, steps=steps, delta_final=delta_v, converged=True)
            break
    return SearchResult(p=best_p, steps=steps, delta_final=best_delta, converged=False)


def _apportion(quotas: np.ndarray, total: int, lower: int, upper: int) -> np.ndarray:
    """Integer counts near ``quotas`` summing to ``total``, within [lower, upper].

    Largest-remainder rule: floor everything, then hand out the missing
    tokens to the largest fractional remainders (or withdraw from the
    smallest), one per layer and pass, skipping layers pinned at a
    bound. Ties resolve to the lower layer index.
    """
    counts = np.clip(np.floor(quotas).astype(np.int64), lower, upper)
    diff = int(total - counts.sum())
    step, bound = (1, upper) if diff > 0 else (-1, lower)
    order = np.lexsort((np.arange(len(quotas)), -step * (quotas - counts)))
    while diff:
        movable = order[counts[order] != bound][:abs(diff)]
        if not len(movable):
            raise BudgetError(f"cannot place {total} tokens within bounds [{lower}, {upper}]")
        counts[movable] += step
        diff -= step * len(movable)
    return counts


def _budget_tokens(budget: BudgetSpec, L: int, N: int) -> int:
    """The ``round(r * L * N)`` tokens a plan keeps, refused below the layer floors."""
    total = int(round(budget.r * L * N))
    floor = budget.min_tokens_per_layer
    if total < L * floor:
        raise BudgetError(
            f"budget of {total} tokens cannot cover {L} layers at {floor} token(s) minimum"
        )
    return total


def _realize(
    quotas: np.ndarray,
    budget: BudgetSpec,
    seq_len: int,
    *,
    policy: str,
    threshold: SearchResult | None,
    samples: int | None = None,
    sink_count: int | None = None,
) -> PrefixConfiguration:
    """Clamp per-layer ratio quotas and round them to exact token counts."""
    N = int(seq_len)
    total = _budget_tokens(budget, len(quotas), N)
    floor = budget.min_tokens_per_layer
    return PrefixConfiguration(
        budget=budget,
        seq_len=N,
        token_counts=_apportion(np.clip(quotas, floor / N, 1.0) * N, total, floor, N),
        policy=policy,
        threshold=threshold,
        samples=samples,
        sink_count=sink_count,
    )


def _global_prefix(cumulative: np.ndarray, p: float, total: int, floor: int) -> np.ndarray:
    """Per-layer counts of the ``total`` cheapest tokens in one global order.

    Token k of a layer costs the cumulative priority of the tokens before
    it (the first costs 0), the first ``floor`` tokens are free, and ties
    go to the lower layer, then the earlier token. The tokens that cost
    less than p lead that order, so every layer's count lies within
    |need| = |total - sum of the counts at p| of its count at p: only that
    window of prices is ranked, and p never changes the result.
    """
    L, N = cumulative.shape
    at_p = np.maximum(_counts_at(cumulative, p), floor)
    need = total - int(at_p.sum())
    # Each layer keeps its first ``kept`` tokens whatever the window holds;
    # k is the zero-based index of each window token, priced inf past the end.
    kept = np.maximum(at_p + min(need, 0), floor)
    k = kept[:, None] + np.arange(min(abs(need), N))
    prices = np.where(k > 0, cumulative[np.arange(L)[:, None], np.clip(k - 1, 0, N - 1)], 0.0)
    prices[k >= N] = np.inf
    extra = total - int(kept.sum())
    if extra == 0:
        return kept
    last = np.partition(prices, extra - 1, axis=None)[extra - 1]
    below, ties = (prices < last).sum(axis=1), (prices == last).sum(axis=1)
    return kept + below + np.clip(extra - below.sum() - np.cumsum(ties) + ties, 0, ties)


def finalize_config(
    seq: PrioritySequence, result: SearchResult, budget: BudgetSpec
) -> PrefixConfiguration:
    """Turn a search result into an exact-budget configuration."""
    return _finalize(seq.cumulative, result, budget, None)


def _finalize(cumulative: np.ndarray, result: SearchResult, budget: BudgetSpec,
              samples: int | None) -> PrefixConfiguration:
    """The exact global prefix of an (L, N) cumulative matrix, with its search result."""
    L, N = cumulative.shape
    counts = _global_prefix(cumulative, result.p, _budget_tokens(budget, L, N),
                            budget.min_tokens_per_layer)
    return PrefixConfiguration(budget=budget, seq_len=N, token_counts=counts,
                               threshold=result, samples=samples)


def plan_online(seq: PrioritySequence, budget: BudgetSpec) -> PrefixConfiguration:
    """Search and realize in one step for a single priority sequence."""
    return finalize_config(seq, binary_search(seq, budget), budget)


def _resample_cumulative(cumulative: np.ndarray, n_star: int) -> np.ndarray:
    """Evaluate an (L, N) cumulative step function on the (j+1)/n_star grid."""
    tokens = (np.arange(1, n_star + 1) * cumulative.shape[1]) // n_star
    # A grid point before the first token reads the empty prefix, 0.
    resampled = cumulative[:, np.maximum(tokens - 1, 0)]
    resampled[:, tokens == 0] = 0.0
    return resampled


def estimate_offline(
    sample_seqs: Sequence[PrioritySequence],
    budget: BudgetSpec,
    method: str = "per-sample-mean",
) -> PrefixConfiguration:
    """Derive one configuration from several sample sequences.

    ``per-sample-mean`` (default) searches each sample independently and
    averages the resulting per-layer ratios before re-realizing them on
    the exact budget. ``pooled-curve`` averages the cumulative priority
    curves (step-resampled onto the largest sample's grid), runs a
    single search on the pooled curve and takes its global prefix.
    """
    if not sample_seqs:
        raise UsageError("offline estimation needs at least one sample")
    if method not in OFFLINE_METHODS:
        raise UsageError(f"unknown offline method {method!r}")
    layer_counts = {seq.meta.layers for seq in sample_seqs}
    if len(layer_counts) != 1:
        raise MismatchError(f"samples disagree on layer count: {sorted(layer_counts)}")
    n_star = max(seq.meta.seq_len for seq in sample_seqs)
    count = len(sample_seqs)

    if method == "pooled-curve":
        pooled = np.zeros((layer_counts.pop(), n_star))
        for seq in sample_seqs:
            pooled += _resample_cumulative(seq.cumulative, n_star)
        pooled /= count
        return _finalize(pooled, _search(pooled, budget), budget, count)

    configs = [plan_online(seq, budget) for seq in sample_seqs]
    mean_ratios = np.mean([cfg.token_counts / cfg.seq_len for cfg in configs], axis=0)
    summary = SearchResult(
        p=float(np.mean([cfg.threshold.p for cfg in configs])),
        steps=max(cfg.threshold.steps for cfg in configs),
        delta_final=float(np.mean([cfg.threshold.delta_final for cfg in configs])),
        converged=all(cfg.threshold.converged for cfg in configs),
    )
    return _realize(mean_ratios, budget, n_star, policy="prefixkv", threshold=summary,
                    samples=count)


def baseline_config(
    kind: str,
    budget: BudgetSpec,
    meta: TraceMeta,
    sink_count: int | None = None,
) -> PrefixConfiguration:
    """Reference allocation policies: uniform, pyramid ramp, or local window.

    ``uniform`` retains the budget ratio in every layer. ``pyramid``
    ramps linearly from shallow to deep layers, symmetric about r with
    amplitude min(r, 1-r)/2 so the layer sum stays on budget. ``local``
    keeps uniform sizes but selects positionally (``sink_count`` earliest
    positions plus the most recent ones); the simulator consumes that
    rule via the stored policy.
    """
    L = meta.layers
    if kind == "uniform":
        raw = np.full(L, budget.r)
    elif kind == "pyramid":
        amplitude = min(budget.r, 1.0 - budget.r) / 2.0
        position = np.arange(L) / max(L - 1, 1)
        raw = budget.r + amplitude * (1.0 - 2.0 * position)
    elif kind == "local":
        if not _is_int(sink_count) or sink_count < 0:
            raise UsageError("local policy requires a nonnegative sink_count")
        raw = np.full(L, budget.r)
    else:
        raise UsageError(f"unknown baseline kind {kind!r}")
    return _realize(raw, budget, meta.seq_len, policy=kind, threshold=None,
                    sink_count=int(sink_count) if kind == "local" else None)


def config_to_dict(config: PrefixConfiguration) -> dict:
    doc: dict = {"budget": asdict(config.budget), "seq_len": config.seq_len}
    if config.threshold is not None:
        doc.update(asdict(config.threshold))
    doc["token_counts"] = [int(v) for v in config.token_counts]
    if config.samples is not None:
        doc["samples"] = config.samples
    doc["policy"] = config.policy
    if config.sink_count is not None:
        doc["sink_count"] = config.sink_count
    return doc


# The search outcome's fields, which a prefixkv configuration holds at its top level.
_THRESHOLD_FIELDS = ("p", "steps", "delta_final", "converged")


def _number(name: str, value, count: bool = False, low=-math.inf, high=math.inf):
    """``value`` if it is an integer (a ``count``) or else a finite real, within [low, high].

    ``true`` and ``false`` are neither, though Python would take them as 1 and 0.
    """
    if isinstance(value, bool) or not isinstance(value, int if count else (int, float)):
        raise ParseError(f"field '{name}' must be {'an integer' if count else 'a number'}, "
                         f"got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"field '{name}' must be finite, got {value!r}")
    if not low <= value <= high:
        raise ParseError(f"field '{name}' must lie in [{low}, {high}], got {value}")
    return value


def config_from_dict(doc: dict) -> PrefixConfiguration:
    """Read a configuration document in one pass, refusing what no plan can be.

    A null field is an absent one. The policy decides which optional fields
    belong: ``sink_count`` to every local plan and no other, the threshold
    fields to every prefixkv plan and no other, ``samples`` to prefixkv
    plans only. Each number's kind and range are checked as it is read.
    Older documents also hold ratios and source, and older budget blocks
    delta_tol and max_steps; the counts and the policy say all of that, so
    they are ignored.
    """
    try:
        doc = {k: v for k, v in doc.items() if v is not None}
        policy = doc["policy"]
        if policy not in POLICIES:
            raise ParseError(f"unknown policy {policy!r}")
        if ("sink_count" in doc) != (policy == "local"):
            raise ParseError(f"sink_count belongs to every local plan and no other; this {policy} "
                             f"plan {'has' if 'sink_count' in doc else 'lacks'} one")
        # Any threshold field brings the whole search outcome; a missing one
        # is a missing key.
        searched = any(k in doc for k in _THRESHOLD_FIELDS)
        if searched != (policy == "prefixkv"):
            raise ParseError(f"the threshold fields {list(_THRESHOLD_FIELDS)} belong to every "
                             f"prefixkv plan and no other; this {policy} plan "
                             f"{'has' if searched else 'lacks'} them")
        if "samples" in doc and policy != "prefixkv":
            raise ParseError(f"samples belong to offline prefixkv plans only, not to a {policy} plan")
        b = doc["budget"]
        b = {k: v for k, v in b.items() if v is not None} if isinstance(b, dict) else b
        r = _number("budget.r", b["r"])
        floor = _number("budget.min_tokens_per_layer",
                        b.get("min_tokens_per_layer", BudgetSpec.min_tokens_per_layer), count=True)
        budget = BudgetSpec(r=r, min_tokens_per_layer=floor)
        N = _number("seq_len", doc["seq_len"], count=True)
        if N < 1:
            raise ParseError(f"seq_len must be at least 1, got {N}")
        threshold = SearchResult(
            p=_number("p", doc["p"], low=0.0, high=1.0),
            steps=_number("steps", doc["steps"], count=True, low=0),
            delta_final=_number("delta_final", doc["delta_final"]),
            converged=doc["converged"]) if searched else None
        if searched and not isinstance(threshold.converged, bool):
            raise ParseError(f"field 'converged' must be true or false, got {threshold.converged!r}")
        counts = doc["token_counts"]
        for i, value in enumerate(counts if isinstance(counts, list) else []):
            _number(f"token_counts[{i}]", value, count=True)
        counts = np.asarray(counts, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed configuration document: {exc}") from exc
    if counts.ndim != 1 or not len(counts):
        raise ParseError("a configuration needs a list of token counts, one per layer, "
                         "for at least one layer")
    if counts.min() < floor or counts.max() > N:
        raise ParseError(f"token_counts must lie in [{floor}, {N}], got {counts.tolist()}")
    total = _budget_tokens(budget, len(counts), N)
    if counts.sum() != total:
        raise ParseError(f"token_counts sum to {counts.sum()}, not the budget's {total} tokens")
    return PrefixConfiguration(
        budget=budget, seq_len=N, token_counts=counts, policy=policy, threshold=threshold,
        samples=_number("samples", doc["samples"], count=True, low=1) if "samples" in doc else None,
        sink_count=(_number("sink_count", doc["sink_count"], count=True, low=0)
                    if "sink_count" in doc else None))


def save_config(config: PrefixConfiguration, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config)))


def load_config(path: str | Path) -> PrefixConfiguration:
    return config_from_dict(_read_json_object(path, "configuration document"))
