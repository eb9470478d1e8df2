"""Decode-time cache maintenance: post-prefill eviction, importance
updates, fixed-distance protection, and optional merging.

The lifecycle has two stages. After prefill, each layer keeps the token
positions its configuration allows (by importance rank, or positionally
for the local policy), seeding per-entry importance accumulators with
the prefill importance. During decoding every new token's attention row
is folded into the accumulators, capacity is re-derived from the grown
sequence length so the configured proportions are maintained, and the
least important eligible entry is evicted, or first merged into its
best-matching neighbour, whenever a layer runs over capacity. Entries
within ``protect_distance`` of the newest position are never evicted or
merged away.

A CacheState is a single-writer object; independent simulations may run
in parallel on separate states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocator import BudgetSpec, PrefixConfiguration, baseline_config
from .errors import MismatchError, ValidationError
from .importance import ImportanceProfile, compute_importance
from .toymodel import ToyModel, decode
from .trace import ROW_SUM_TOL, AttentionTrace, trace_prefix

MERGE_POLICIES = ("none", "position", "feature")

DEFAULT_PROTECT_DISTANCE = 10


@dataclass
class CacheEntry:
    """One cached position with its accumulated received attention.

    ``merged_from`` lists positions whose vectors were absorbed here;
    ``key``/``value`` are then flat averages over this entry's original
    vectors and every absorbed one, shape (H, d) when present.
    """

    position: int
    importance_acc: float
    key: np.ndarray | None = None
    value: np.ndarray | None = None
    merged_from: list[int] = field(default_factory=list)


class CacheState:
    """Per-layer live caches plus the bookkeeping the invariants need."""

    def __init__(
        self,
        config: PrefixConfiguration,
        profile: ImportanceProfile | None = None,
        protect_distance: int = DEFAULT_PROTECT_DISTANCE,
        merge_policy: str = "none",
    ):
        if protect_distance < 1:
            raise ValueError("protect_distance must be a positive count")
        if merge_policy not in MERGE_POLICIES:
            raise ValueError(f"unknown merge policy {merge_policy!r}")
        self.config = config
        self.report_profile = profile
        self.protect_distance = int(protect_distance)
        self.merge_policy = merge_policy
        self.layer_caches: list[list[CacheEntry]] = [[] for _ in range(config.layers)]
        self.hard_evicted: list[list[int]] = [[] for _ in range(config.layers)]
        self.current_len = 0
        self.step_log: list[dict] = []

    @property
    def layers(self) -> int:
        return self.config.layers

    @property
    def newest_position(self) -> int:
        return self.current_len - 1

    def capacity(self, layer: int) -> int:
        """Current token allowance of a layer, re-derived from current_len."""
        floor = self.config.budget.min_tokens_per_layer
        return max(floor, int(self.config.ratios[layer] * self.current_len))

    def live_positions(self, layer: int) -> list[int]:
        return [entry.position for entry in self.layer_caches[layer]]

    def _select_evictee(self, layer: int) -> int | None:
        """Index of the entry to evict, or None if everything is protected."""
        newest = self.newest_position
        best = None
        best_key = None
        for i, entry in enumerate(self.layer_caches[layer]):
            if newest - entry.position < self.protect_distance:
                continue
            if self.config.policy == "local":
                if entry.position < (self.config.sink_count or 0):
                    continue
                key = (entry.position, i)
            else:
                key = (entry.importance_acc, entry.position)
            if best_key is None or key < best_key:
                best_key, best = key, i
        return best

    def decode_step(self, new_attention, new_kv=None) -> dict:
        """Fold one decoded token into every layer and enforce capacity.

        ``new_attention[l]`` holds per-head rows over the layer's live
        entries plus the new token itself, each row normalized;
        ``new_kv[l]``, when given, is the ``(key, value)`` pair of shape
        (H, d) to store. Every layer's input is checked before any layer
        changes, so a rejected step leaves the state untouched. Returns
        the appended log record.
        """
        checked = []
        for l in range(self.layers):
            rows = np.asarray(new_attention[l], dtype=float)
            expected = len(self.layer_caches[l]) + 1
            if rows.ndim != 2 or rows.shape[1] != expected:
                raise ValidationError(
                    f"attention rows for layer {l} have shape {rows.shape}, "
                    f"expected (heads, {expected})"
                )
            sums = rows.sum(axis=1)
            off = np.abs(sums - 1.0) > ROW_SUM_TOL
            if np.any(off):
                h = int(np.argwhere(off)[0][0])
                raise ValidationError(
                    f"row sum {sums[h]:.6g} at layer {l} head {h} during decode"
                )
            key = value = None
            if new_kv is not None:
                key, value = new_kv[l]
                key = np.array(key, dtype=float)
                value = np.array(value, dtype=float)
            checked.append((rows, key, value))

        position = self.current_len
        self.current_len += 1
        events: list[dict] = []
        for l, (rows, key, value) in enumerate(checked):
            cache = self.layer_caches[l]
            received = rows.mean(axis=0)
            for i, entry in enumerate(cache):
                entry.importance_acc += received[i]
            cache.append(CacheEntry(position=position, importance_acc=float(received[-1]),
                                    key=key, value=value))
            capacity = self.capacity(l)
            while len(cache) > capacity:
                idx = self._select_evictee(l)
                if idx is None:
                    break  # everything in reach is protected; capacity resumes later
                evictee = cache.pop(idx)
                if self.merge_policy != "none" and cache:
                    winner = merge(self.merge_policy, evictee, cache)
                    events.append({"layer": l, "pos": evictee.position,
                                   "merged_into": winner.position})
                else:
                    self.hard_evicted[l].append(evictee.position)
                    events.append({"layer": l, "pos": evictee.position, "merged_into": None})
        record = {
            "step": len(self.step_log) + 1,
            "layer_sizes": [len(c) for c in self.layer_caches],
            "evicted": events,
        }
        if self.report_profile is not None:
            record["retained_info"] = [float(v) for v in retained_info(self, self.report_profile)]
        self.step_log.append(record)
        return record


def prefill_compress(
    trace: AttentionTrace,
    config: PrefixConfiguration,
    protect_distance: int = DEFAULT_PROTECT_DISTANCE,
    merge_policy: str = "none",
) -> CacheState:
    """Evict down to the configured per-layer counts right after prefill.

    Importance-driven policies keep the highest-importance positions
    (ties to the lower position); the local policy keeps ``sink_count``
    earliest positions plus the most recent remainder. Accumulators are
    seeded with the prefill raw importance.
    """
    N = trace.meta.seq_len
    if config.seq_len != N:
        raise MismatchError(f"configuration covers {config.seq_len} positions, trace has {N}")
    if config.layers != trace.meta.layers:
        raise MismatchError(
            f"configuration covers {config.layers} layers, trace has {trace.meta.layers}"
        )
    if np.any(config.token_counts > N):
        raise MismatchError("token_counts exceed the trace length")
    if merge_policy == "feature" and trace.keys is None:
        raise MismatchError("feature merging requires a trace with key/value vectors")

    profile = compute_importance(trace)
    state = CacheState(config, profile, protect_distance=protect_distance,
                       merge_policy=merge_policy)
    state.current_len = N
    for l in range(config.layers):
        count = int(config.token_counts[l])
        if config.policy == "local":
            sinks = min(config.sink_count or 0, count)
            keep = sorted(set(range(sinks)) | set(range(N - (count - sinks), N)))
        else:
            ranked = np.lexsort((np.arange(N), -profile.normalized[l]))
            keep = sorted(int(p) for p in ranked[:count])
        kept = set(keep)
        state.hard_evicted[l].extend(p for p in range(N) if p not in kept)
        for pos in keep:
            key = value = None
            if trace.keys is not None:
                key = trace.keys[l, :, pos].copy()
                value = trace.values[l, :, pos].copy()
            state.layer_caches[l].append(
                CacheEntry(position=pos, importance_acc=float(profile.raw[l][pos]),
                           key=key, value=value)
            )
    return state


def full_cache_state(trace: AttentionTrace,
                     protect_distance: int = DEFAULT_PROTECT_DISTANCE) -> CacheState:
    """A state that retains everything: uniform policy at full budget."""
    budget = BudgetSpec(r=1.0, min_tokens_per_layer=1)
    config = baseline_config("uniform", budget, trace.meta)
    return prefill_compress(trace, config, protect_distance=protect_distance)


def merge(policy: str, evictee: CacheEntry, retained: list[CacheEntry]) -> CacheEntry:
    """Fold an evicted entry into its best-matching retained entry.

    Matching maximizes ``-|m - n|`` (position policy) or the cosine
    similarity of key vectors (feature policy), ties going to the lower
    retained position. The winner's key and value become flat averages
    over its own original vectors and everything absorbed so far, with
    the absorbed positions recorded in ``merged_from``.
    """
    if not retained:
        raise ValueError("cannot merge into an empty retained set")
    if policy == "position":
        scores = [-abs(evictee.position - entry.position) for entry in retained]
    elif policy == "feature":
        if evictee.key is None or any(entry.key is None for entry in retained):
            raise MismatchError("feature merging requires key vectors on every entry")
        flat = evictee.key.ravel()
        norm = np.linalg.norm(flat)
        scores = []
        for entry in retained:
            other = entry.key.ravel()
            denom = norm * np.linalg.norm(other)
            scores.append(float(flat @ other / denom) if denom > 0 else -np.inf)
    else:
        raise ValueError(f"unknown merge policy {policy!r}")

    best = 0
    for i in range(1, len(retained)):
        if scores[i] > scores[best] or (
            scores[i] == scores[best] and retained[i].position < retained[best].position
        ):
            best = i
    winner = retained[best]

    # Weights count the original vectors each side already averages over,
    # so the update stays a flat mean over all absorbed originals.
    w_count = 1 + len(winner.merged_from)
    e_count = 1 + len(evictee.merged_from)
    if winner.key is not None and evictee.key is not None:
        winner.key = (winner.key * w_count + evictee.key * e_count) / (w_count + e_count)
        winner.value = (winner.value * w_count + evictee.value * e_count) / (w_count + e_count)
    winner.merged_from.append(evictee.position)
    winner.merged_from.extend(evictee.merged_from)
    return winner


def retained_info(state: CacheState, profile: ImportanceProfile) -> np.ndarray:
    """Per-layer share of profile importance still live in the cache.

    Positions beyond the profile (tokens decoded after prefill) carry no
    share; merged-away positions do not count.
    """
    horizon = profile.meta.seq_len
    out = np.zeros(state.layers)
    for l in range(state.layers):
        positions = [e.position for e in state.layer_caches[l] if e.position < horizon]
        if positions:
            out[l] = float(profile.normalized[l][positions].sum())
    return out


def replay_steps(trace: AttentionTrace, state: CacheState, steps: int) -> None:
    """Feed the next ``steps`` trace rows into an already prefilled state.

    Each replayed row is restricted to the live cache plus the new token
    and renormalized, standing in for attention a model would have
    computed over the compressed cache.
    """
    N = trace.meta.seq_len
    n0 = state.current_len
    if n0 + steps > N:
        raise MismatchError(
            f"trace of length {N} cannot supply {steps} decode steps after a "
            f"prefill of {n0}"
        )
    if steps > 0 and trace.is_shortcut:
        raise MismatchError("importance-only traces carry no rows to replay")
    for m in range(n0, n0 + steps):
        rows = []
        kv = None if trace.keys is None else []
        for l in range(trace.meta.layers):
            live = state.live_positions(l)
            segment = trace.attention[l][:, m, live + [m]]
            sums = segment.sum(axis=1, keepdims=True)
            if np.any(sums == 0.0):
                raise ValidationError(
                    f"attention row {m} of layer {l} has no mass on the live cache"
                )
            rows.append(segment / sums)
            if kv is not None:
                kv.append((trace.keys[l, :, m], trace.values[l, :, m]))
        state.decode_step(rows, kv)


def replay_decode(
    trace: AttentionTrace,
    config: PrefixConfiguration,
    steps: int,
    protect_distance: int = DEFAULT_PROTECT_DISTANCE,
    merge_policy: str = "none",
) -> CacheState:
    """Prefill on the configuration's window, then replay decode steps."""
    prefill = trace_prefix(trace, config.seq_len)
    state = prefill_compress(prefill, config, protect_distance=protect_distance,
                             merge_policy=merge_policy)
    replay_steps(trace, state, steps)
    return state


@dataclass(frozen=True)
class DisturbanceReport:
    """Feature drift between compressed and full-cache decoding.

    ``mae`` has shape (layers, decoded tokens): the mean absolute error
    of each layer's post-attention features, token by token, under
    teacher forcing with the full-cache run's token choices.
    """

    budget_r: float
    mae: np.ndarray

    @property
    def per_layer_mae(self) -> np.ndarray:
        return self.mae.mean(axis=1)

    @property
    def per_token_mae(self) -> np.ndarray:
        return self.mae.mean(axis=0)


def disturbance(
    model: ToyModel,
    trace: AttentionTrace,
    reference: tuple[np.ndarray, np.ndarray],
    state: CacheState,
) -> DisturbanceReport:
    """Measure per-layer feature MAE caused by cache compression.

    ``trace`` is the prompt's forward trace, ``reference`` the
    ``(tokens, features)`` of a full-cache ``decode`` from it, and
    ``state`` a compressed cache prefilled from the same trace. The
    compressed run is teacher-forced with the reference's token choices,
    so the error isolates representation drift rather than compounding
    token divergence. ``state`` advances by the decoded tokens.
    """
    tokens, full_features = reference
    _, test_features = decode(model, trace, len(tokens), state, forced_tokens=tokens)
    mae = np.abs(full_features - test_features).mean(axis=2).T
    return DisturbanceReport(budget_r=state.config.budget.r, mae=mae)
