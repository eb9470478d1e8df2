"""Per-layer retention budgets via binary search on a priority threshold.

Given per-layer cumulative priority sequences and a compression ratio
budget r, the allocator searches for an information retention threshold
p such that retaining, in each layer, the smallest priority prefix whose
cumulative priority reaches p consumes exactly r of the total cache.
The search result is then scaled and rounded to integer token counts
that meet the budget exactly. Uniform, pyramid-ramp and positional
("local") baseline policies share the same realization path.

Everything here is pure and deterministic; offline estimation reduces
over samples in fixed index order so results are reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BudgetError, MismatchError, ParseError, UsageError
from .importance import PrioritySequence
from .trace import TraceMeta

POLICIES = ("prefixkv", "uniform", "pyramid", "local")
OFFLINE_METHODS = ("per-sample-mean", "pooled-curve")

# Relative slack under which the ratio sum counts as already on budget
# and rescaling is skipped.
_EXACT_REL = 1e-12


@dataclass(frozen=True)
class BudgetSpec:
    """Compression budget and search termination knobs.

    ``delta_tol`` bounds the acceptable budget difference in summed-ratio
    units; ``min_tokens_per_layer`` floors every layer's cache so no
    layer ends up empty at decode time (set 0 to disable).
    """

    r: float
    delta_tol: float = 0.025
    max_steps: int = 32
    min_tokens_per_layer: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.r <= 1.0:
            raise BudgetError(f"compression ratio must be in (0, 1], got {self.r}")
        if self.delta_tol < 0.0:
            raise BudgetError(f"delta_tol must be nonnegative, got {self.delta_tol}")
        if self.max_steps < 1:
            raise BudgetError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.min_tokens_per_layer < 0:
            raise BudgetError("min_tokens_per_layer must be nonnegative")


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
    """Per-layer retention ratios and their integer realization.

    ``token_counts`` always sum to ``round(r * L * N)`` exactly;
    ``ratios`` are the scaled, clamped real-valued targets the counts
    were rounded from. ``threshold`` is None for baseline policies.
    """

    budget: BudgetSpec
    seq_len: int
    ratios: np.ndarray
    token_counts: np.ndarray
    policy: str = "prefixkv"
    source: str = "online"
    threshold: SearchResult | None = None
    samples: int | None = None
    sink_count: int | None = None

    @property
    def layers(self) -> int:
        return len(self.ratios)


def ratio_at_threshold(seq: PrioritySequence, layer: int, p: float) -> float:
    """Smallest prefix size ratio whose cumulative priority reaches p.

    p = 0 maps to the empty prefix (ratio 0); if rounding noise leaves
    every cumulative value below p, the full prefix is returned.
    """
    if not 0 <= layer < seq.meta.layers:
        raise IndexError(f"layer {layer} out of range [0, {seq.meta.layers})")
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"threshold must be in [0, 1], got {p}")
    return float(_ratios_at(seq.cumulative[layer : layer + 1], p)[0])


def _ratios_at(cumulative: np.ndarray, p: float) -> np.ndarray:
    """Per-layer prefix ratios at threshold p for an (L, N) cumulative matrix."""
    L, N = cumulative.shape
    if p <= 0.0:
        return np.zeros(L)
    idx = np.empty(L, dtype=np.int64)
    for l in range(L):
        idx[l] = np.searchsorted(cumulative[l], p, side="left")
    return (np.minimum(idx, N - 1) + 1) / N


def binary_search(seq: PrioritySequence, budget: BudgetSpec) -> SearchResult:
    """Bisect on the retention threshold until the budget difference vanishes.

    Follows the midpoint recurrence p <- (p1 + p2) / 2 starting from
    [0, 1], moving p1 up while the configuration is under budget and p2
    down while over. Stops on an exact zero difference, on
    ``|delta| <= delta_tol``, or after ``max_steps`` evaluations. Because
    the threshold-to-ratio map only changes at cumulative priority
    values, the search also stops once at most one such value remains
    inside the bracket: no further midpoint can improve on the best
    difference already seen, which is then returned (converged=False if
    it missed the tolerance).
    """
    return _search(seq.cumulative, budget)


def _search(cumulative: np.ndarray, budget: BudgetSpec) -> SearchResult:
    L, N = cumulative.shape
    target = budget.r * L
    if budget.r == 1.0:
        # Full budget retains everything; no search necessary.
        return SearchResult(p=1.0, steps=0, delta_final=0.0, converged=True)

    steps = 0
    # Best-so-far keyed by |delta|, preferring under-budget on ties so the
    # later scale-up only ever grows prefixes.
    best_key: tuple[float, int] | None = None
    best_p = best_delta = 0.0

    def evaluate(p: float) -> float:
        nonlocal steps, best_key, best_p, best_delta
        steps += 1
        delta = float(_ratios_at(cumulative, p).sum() - target)
        key = (abs(delta), 0 if delta < 0 else 1)
        if best_key is None or key < best_key:
            best_key, best_p, best_delta = key, p, delta
        return delta

    p1, p2 = 0.0, 1.0
    while steps < budget.max_steps:
        p = (p1 + p2) / 2.0
        delta = evaluate(p)
        if delta == 0.0 or abs(delta) <= budget.delta_tol:
            return SearchResult(p=p, steps=steps, delta_final=delta, converged=True)
        if delta < 0.0:
            p1 = p
        else:
            p2 = p
        # Ratios only change at cumulative values: find the first one above
        # p1 and the last one below p2, over all layers.
        above, below = np.inf, -np.inf
        for row in cumulative:
            i, j = np.searchsorted(row, p1, side="right"), np.searchsorted(row, p2, side="left")
            above = min(above, row[i]) if i < N else above
            below = max(below, row[j - 1]) if j else below
        if above >= p2 or above == below:
            if above == below and steps < budget.max_steps:
                v = float(above)
                delta_v = evaluate(v)
                if delta_v == 0.0 or abs(delta_v) <= budget.delta_tol:
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


def _realize(
    raw_ratios: np.ndarray,
    budget: BudgetSpec,
    seq_len: int,
    *,
    policy: str,
    source: str,
    threshold: SearchResult | None,
    samples: int | None = None,
    sink_count: int | None = None,
) -> PrefixConfiguration:
    """Scale raw ratios onto the budget and round to exact token counts."""
    L = len(raw_ratios)
    N = int(seq_len)
    total = int(round(budget.r * L * N))
    floor = budget.min_tokens_per_layer
    if total < L * floor:
        raise BudgetError(
            f"budget of {total} tokens cannot cover {L} layers at {floor} token(s) minimum"
        )
    if total >= L * N:
        ratios = np.ones(L)
        counts = np.full(L, N, dtype=np.int64)
    else:
        target = budget.r * L
        ratio_sum = float(raw_ratios.sum())
        if ratio_sum <= 0.0:
            scaled = np.full(L, budget.r)
        elif abs(ratio_sum - target) > _EXACT_REL * max(1.0, target):
            scaled = raw_ratios * (target / ratio_sum)
        else:
            scaled = raw_ratios
        ratios = np.clip(scaled, floor / N, 1.0)
        counts = _apportion(ratios * N, total, floor, N)
    return PrefixConfiguration(
        budget=budget,
        seq_len=N,
        ratios=ratios,
        token_counts=counts,
        policy=policy,
        source=source,
        threshold=threshold,
        samples=samples,
        sink_count=sink_count,
    )


def finalize_config(
    seq: PrioritySequence,
    result: SearchResult,
    budget: BudgetSpec,
    *,
    source: str = "online",
    samples: int | None = None,
) -> PrefixConfiguration:
    """Turn a search result into an exact-budget configuration."""
    raw = _ratios_at(seq.cumulative, result.p)
    return _realize(
        raw, budget, seq.meta.seq_len, policy="prefixkv", source=source,
        threshold=result, samples=samples,
    )


def plan_online(seq: PrioritySequence, budget: BudgetSpec) -> PrefixConfiguration:
    """Search and realize in one step for a single priority sequence."""
    return finalize_config(seq, binary_search(seq, budget), budget)


def _resample_cumulative(cumulative: np.ndarray, n_star: int) -> np.ndarray:
    """Evaluate an (L, N) cumulative step function on the (j+1)/n_star grid."""
    tokens = (np.arange(1, n_star + 1) * cumulative.shape[1]) // n_star
    # Column 0 of the padded matrix is the empty prefix.
    return np.pad(cumulative, ((0, 0), (1, 0)))[:, tokens]


def estimate_offline(
    sample_seqs: Sequence[PrioritySequence],
    budget: BudgetSpec,
    method: str = "per-sample-mean",
) -> PrefixConfiguration:
    """Derive one configuration from several sample sequences.

    ``per-sample-mean`` (default) searches each sample independently and
    averages the resulting per-layer ratios before re-realizing them on
    the exact budget. ``pooled-curve`` averages the cumulative priority
    curves (step-resampled onto the largest sample's grid) and runs a
    single search on the pooled curve.
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
        result = _search(pooled, budget)
        raw = _ratios_at(pooled, result.p)
        return _realize(
            raw, budget, n_star, policy="prefixkv", source="offline",
            threshold=result, samples=count,
        )

    configs = [plan_online(seq, budget) for seq in sample_seqs]
    mean_ratios = np.mean([cfg.ratios for cfg in configs], axis=0)
    summary = SearchResult(
        p=float(np.mean([cfg.threshold.p for cfg in configs])),
        steps=max(cfg.threshold.steps for cfg in configs),
        delta_final=float(np.mean([cfg.threshold.delta_final for cfg in configs])),
        converged=all(cfg.threshold.converged for cfg in configs),
    )
    return _realize(
        mean_ratios, budget, n_star, policy="prefixkv", source="offline",
        threshold=summary, samples=count,
    )


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
        if L == 1:
            raw = np.full(1, budget.r)
        else:
            amplitude = min(budget.r, 1.0 - budget.r) / 2.0
            position = np.arange(L) / (L - 1)
            raw = budget.r + amplitude * (1.0 - 2.0 * position)
    elif kind == "local":
        if sink_count is None or sink_count < 0:
            raise UsageError("local policy requires a nonnegative sink_count")
        raw = np.full(L, budget.r)
    else:
        raise UsageError(f"unknown baseline kind {kind!r}")
    return _realize(
        raw, budget, meta.seq_len, policy=kind, source="baseline",
        threshold=None, sink_count=sink_count if kind == "local" else None,
    )


def config_to_dict(config: PrefixConfiguration) -> dict:
    doc: dict = {
        "budget": {
            "r": config.budget.r,
            "delta_tol": config.budget.delta_tol,
            "max_steps": config.budget.max_steps,
            "min_tokens_per_layer": config.budget.min_tokens_per_layer,
        },
        "seq_len": config.seq_len,
    }
    if config.threshold is not None:
        doc["p"] = config.threshold.p
        doc["steps"] = config.threshold.steps
        doc["delta_final"] = config.threshold.delta_final
        doc["converged"] = config.threshold.converged
    doc["ratios"] = [float(v) for v in config.ratios]
    doc["token_counts"] = [int(v) for v in config.token_counts]
    doc["source"] = config.source
    if config.samples is not None:
        doc["samples"] = config.samples
    doc["policy"] = config.policy
    if config.sink_count is not None:
        doc["sink_count"] = config.sink_count
    return doc


# Configuration fields that hold counts; every other number is a finite real.
_COUNT_FIELDS = ("max_steps", "min_tokens_per_layer", "seq_len", "steps", "samples",
                 "sink_count", "token_counts")


def _check_numbers(doc: dict) -> None:
    """Refuse numeric fields of the wrong JSON type before they are used.

    Counts must be integers and the other numbers finite; ``true`` and
    ``false`` are neither, though Python would take them as 1 and 0.
    """
    budget = doc["budget"] if isinstance(doc.get("budget"), dict) else {}
    fields = [(f"budget.{k}", k, budget[k])
              for k in ("r", "delta_tol", "max_steps", "min_tokens_per_layer") if k in budget]
    fields += [(k, k, doc[k]) for k in ("seq_len", "p", "steps", "delta_final", "samples",
                                        "sink_count") if doc.get(k) is not None]
    for k in ("ratios", "token_counts"):
        if isinstance(doc.get(k), list):
            fields += [(f"{k}[{i}]", k, v) for i, v in enumerate(doc[k])]
    for name, key, value in fields:
        count = key in _COUNT_FIELDS
        if isinstance(value, bool) or not isinstance(value, int if count else (int, float)):
            kind = "an integer" if count else "a number"
            raise ParseError(f"field '{name}' must be {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"field '{name}' must be finite, got {value!r}")


def config_from_dict(doc: dict) -> PrefixConfiguration:
    _check_numbers(doc)
    try:
        b = doc["budget"]
        budget = BudgetSpec(
            r=b["r"],
            delta_tol=b.get("delta_tol", BudgetSpec.delta_tol),
            max_steps=b.get("max_steps", BudgetSpec.max_steps),
            min_tokens_per_layer=b.get("min_tokens_per_layer", BudgetSpec.min_tokens_per_layer),
        )
        threshold = None
        if "p" in doc:
            threshold = SearchResult(
                p=doc["p"],
                steps=doc["steps"],
                delta_final=doc.get("delta_final", 0.0),
                converged=doc["converged"],
            )
        config = PrefixConfiguration(
            budget=budget,
            seq_len=doc["seq_len"],
            ratios=np.asarray(doc["ratios"], dtype=float),
            token_counts=np.asarray(doc["token_counts"], dtype=np.int64),
            policy=doc["policy"],
            source=doc["source"],
            threshold=threshold,
            samples=doc.get("samples"),
            sink_count=doc.get("sink_count"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed configuration document: {exc}") from exc
    if config.policy not in POLICIES:
        raise ParseError(f"unknown policy {config.policy!r}")
    if len(config.ratios) != len(config.token_counts):
        raise ParseError("ratios and token_counts disagree on layer count")
    return config


def save_config(config: PrefixConfiguration, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config)))


def load_config(path: str | Path) -> PrefixConfiguration:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("configuration document must be a JSON object")
    return config_from_dict(doc)
