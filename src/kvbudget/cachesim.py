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

Each layer's live entries are parallel arrays in ascending position
order, and one kernel, ``CacheState.decode_step``, serves both trace
replay and toy-model decoding.

A CacheState is a single-writer object; independent simulations may run
in parallel on separate states.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .allocator import BudgetSpec, PrefixConfiguration, baseline_config
from .errors import MismatchError, UsageError, ValidationError
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
    ``merge`` updates these in place; ``CacheState.layer_caches`` hands
    out copies of its arrays in this form.
    """

    position: int
    importance_acc: float
    key: np.ndarray | None = None
    value: np.ndarray | None = None
    merged_from: list[int] = field(default_factory=list)


def _padded(live: np.ndarray, axis: int) -> np.ndarray:
    """Copy of ``live`` with free slots appended along its entry axis.

    The room grows with the entry count, so repeated appends cost
    amortised constant time and slots follow a layer's own size.
    """
    shape = list(live.shape)
    n = shape[axis]
    shape[axis] = n + n // 4 + 8
    out = np.empty(shape, dtype=live.dtype)
    out[(slice(None),) * axis + (slice(0, n),)] = live
    return out


class _LayerCache:
    """One layer's live entries as parallel arrays in ascending position order.

    Slots ``[:n]`` are live. ``kv`` stacks the (H, slots, d) key and value
    blocks, or is None for a cache without vectors; ``absorbed[i]`` is the
    tuple of positions merged into entry ``i``, so its vectors average
    over ``1 + len(absorbed[i])`` originals.
    """

    __slots__ = ("n", "pos", "acc", "kv", "absorbed")

    def __init__(self, positions: np.ndarray, importance: np.ndarray, keys=None, values=None):
        self.n = n = len(positions)
        self.pos = _padded(positions, 0)
        self.acc = _padded(importance, 0)
        self.kv = None
        if keys is not None:
            heads, _, dim = keys.shape
            self.kv = np.empty((2, heads, len(self.pos), dim))
            self.kv[0, :, :n] = keys
            self.kv[1, :, :n] = values
        self.absorbed: list[tuple[int, ...]] = [()] * n

    def append(self, position: int, importance: float, kv) -> None:
        n = self.n
        if n == len(self.pos):
            self.pos, self.acc = _padded(self.pos, 0), _padded(self.acc, 0)
            if self.kv is not None:
                self.kv = _padded(self.kv, 2)
        self.pos[n] = position
        self.acc[n] = importance
        if self.kv is not None:
            self.kv[:, :, n] = kv
        self.absorbed.append(())
        self.n = n + 1

    def remove(self, i: int):
        """Drop entry ``i``, shifting the later ones down; returns what it held."""
        n = self.n
        kv = None
        if self.kv is not None:
            kv = self.kv[:, :, i].copy()
            self.kv[:, :, i:n - 1] = self.kv[:, :, i + 1:n]
        position = int(self.pos[i])
        self.pos[i:n - 1] = self.pos[i + 1:n]
        self.acc[i:n - 1] = self.acc[i + 1:n]
        self.n = n - 1
        return position, self.absorbed.pop(i), kv

    def absorb(self, policy: str, position: int, absorbed, kv) -> int:
        """Merge a removed entry into its best match; returns the winner's index."""
        n = self.n
        if self.kv is None:
            w = _match(policy, position, None, self.pos[:n], None)
        else:
            w = _match(policy, position, kv[0], self.pos[:n], self.kv[0, :, :n])
            self.kv[:, :, w] = _flat_mean(self.kv[:, :, w], 1 + len(self.absorbed[w]),
                                          kv, 1 + len(absorbed))
        self.absorbed[w] = self.absorbed[w] + (position,) + absorbed
        return w

    def entries(self) -> list[CacheEntry]:
        n = self.n
        keys = values = [None] * n
        if self.kv is not None:
            keys, values = self.kv[:, :, :n].transpose(0, 2, 1, 3).copy()
        return [CacheEntry(p, a, k, v, list(m)) for p, a, k, v, m in
                zip(self.pos[:n].tolist(), self.acc[:n].tolist(), keys, values, self.absorbed)]


class _LayerEntries(Sequence):
    """``layer_caches[l]``: a fresh list of CacheEntry copies of layer l's live entries."""

    def __init__(self, layers: list[_LayerCache]):
        self._layers = layers

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, layer: int) -> list[CacheEntry]:
        return self._layers[layer].entries()


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
            raise UsageError("protect_distance must be a positive count")
        if merge_policy not in MERGE_POLICIES:
            raise UsageError(f"unknown merge policy {merge_policy!r}")
        self.config = config
        self.report_profile = profile
        self.protect_distance = int(protect_distance)
        self.merge_policy = merge_policy
        self._layers = [_LayerCache(np.empty(0, dtype=np.int64), np.empty(0))
                        for _ in range(config.layers)]
        self.hard_evicted: list[list[int]] = [[] for _ in range(config.layers)]
        self.current_len = 0
        self.step_log: list[dict] = []

    @property
    def layers(self) -> int:
        return self.config.layers

    @property
    def newest_position(self) -> int:
        return self.current_len - 1

    @property
    def layer_caches(self) -> Sequence[list[CacheEntry]]:
        """Per-layer snapshots of the live entries; changing them changes nothing here."""
        return _LayerEntries(self._layers)

    def set_layer(self, layer: int, positions, importance, keys=None, values=None) -> None:
        """Replace a layer's live entries.

        ``positions`` must ascend strictly; ``importance`` seeds their
        accumulators; ``keys``/``values``, when given, have shape
        (H, len(positions), d).
        """
        positions = np.asarray(positions, dtype=np.int64)
        importance = np.asarray(importance, dtype=float)
        if positions.ndim != 1 or (positions[1:] <= positions[:-1]).any():
            raise UsageError("positions must be a strictly ascending 1-D sequence")
        if importance.shape != positions.shape:
            raise UsageError("importance must have one value per position")
        if (keys is None) != (values is None):
            raise UsageError("pass both keys and values, or neither")
        if keys is not None:
            keys, values = np.asarray(keys, dtype=float), np.asarray(values, dtype=float)
            if keys.ndim != 3 or keys.shape[1] != len(positions) or values.shape != keys.shape:
                raise UsageError("keys and values must have shape (heads, positions, dim)")
        self._layers[layer] = _LayerCache(positions, importance, keys, values)

    def capacity(self, layer: int) -> int:
        """Current token allowance of a layer, re-derived from current_len."""
        floor = self.config.budget.min_tokens_per_layer
        return max(floor, int(self.config.ratios[layer] * self.current_len))

    def live_positions(self, layer: int) -> list[int]:
        cache = self._layers[layer]
        return cache.pos[:cache.n].tolist()

    def live_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (H, n, d) views of a layer's live key and value vectors."""
        cache = self._layers[layer]
        if cache.kv is None:
            raise MismatchError("cache entries carry no key/value vectors")
        live = cache.kv[:, :, :cache.n]
        live.flags.writeable = False
        return live[0], live[1]

    def _select_evictee(self, cache: _LayerCache) -> int | None:
        """Index of the entry to evict, or None if everything is protected.

        Entries at least ``protect_distance`` behind the newest position
        form a prefix; among them the lowest accumulator goes, ties to the
        lower position, or for the local policy the oldest non-sink entry.
        """
        live = cache.pos[:cache.n]
        eligible = int(live.searchsorted(self.newest_position - self.protect_distance,
                                         side="right"))
        if self.config.policy == "local":
            first = int(live.searchsorted(self.config.sink_count or 0))
            return first if first < eligible else None
        return int(cache.acc[:eligible].argmin()) if eligible else None

    def decode_step(self, new_attention, new_kv=None) -> dict:
        """Fold one decoded token into every layer and enforce capacity.

        ``new_attention[l]`` holds per-head rows over the layer's live
        entries plus the new token itself, each row normalized;
        ``new_kv[l]`` is the ``(key, value)`` pair of shape (H, d) to
        store, required exactly when the cache holds vectors. Every
        layer's input is checked before any layer changes, so a rejected
        step leaves the state untouched. Returns the appended log record.
        """
        if len(new_attention) != self.layers or (
            new_kv is not None and len(new_kv) != self.layers
        ):
            raise ValidationError(
                f"decode step inputs must cover the cache's {self.layers} layers"
            )
        checked = []
        for l, cache in enumerate(self._layers):
            rows = np.asarray(new_attention[l], dtype=float)
            expected = cache.n + 1
            if rows.ndim != 2 or rows.shape[1] != expected:
                raise ValidationError(
                    f"attention rows for layer {l} have shape {rows.shape}, "
                    f"expected (heads, {expected})"
                )
            sums = rows.sum(axis=1)
            off = np.abs(sums - 1.0) > ROW_SUM_TOL
            if off.any():
                h = int(np.argwhere(off)[0][0])
                raise ValidationError(
                    f"row sum {sums[h]:.6g} at layer {l} head {h} during decode"
                )
            if (new_kv is None) != (cache.kv is None):
                raise MismatchError(f"layer {l}: pass new_kv exactly when the cache "
                                    "holds key/value vectors")
            if self.merge_policy == "feature" and cache.kv is None:
                raise MismatchError("feature merging requires key vectors on every entry")
            kv = None
            if new_kv is not None:
                kv = np.asarray(new_kv[l], dtype=float)
                shape = (2, cache.kv.shape[1], cache.kv.shape[3])
                if kv.shape != shape:
                    raise ValidationError(f"key/value pair for layer {l} has shape "
                                          f"{kv.shape}, expected {shape}")
            checked.append((rows, kv))

        position = self.current_len
        self.current_len += 1
        events: list[dict] = []
        for l, (rows, kv) in enumerate(checked):
            cache = self._layers[l]
            received = rows.sum(axis=0) / len(rows)  # the head mean
            cache.acc[:cache.n] += received[:-1]
            cache.append(position, received[-1], kv)
            capacity = self.capacity(l)
            while cache.n > capacity:
                idx = self._select_evictee(cache)
                if idx is None:
                    break  # everything in reach is protected; capacity resumes later
                gone, absorbed, gone_kv = cache.remove(idx)
                if self.merge_policy != "none" and cache.n:
                    winner = cache.absorb(self.merge_policy, gone, absorbed, gone_kv)
                    events.append({"layer": l, "pos": gone,
                                   "merged_into": int(cache.pos[winner])})
                else:
                    self.hard_evicted[l].append(gone)
                    events.append({"layer": l, "pos": gone, "merged_into": None})
        record = {
            "step": len(self.step_log) + 1,
            "layer_sizes": [cache.n for cache in self._layers],
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
    profile: ImportanceProfile | None = None,
) -> CacheState:
    """Evict down to the configured per-layer counts right after prefill.

    Importance-driven policies keep the highest-importance positions
    (ties to the lower position); the local policy keeps ``sink_count``
    earliest positions plus the most recent remainder. Accumulators are
    seeded with the prefill raw importance: ``profile`` when given (it
    must be ``compute_importance(trace)``, so a sweep computes it once),
    else computed here.
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

    if profile is None:
        profile = compute_importance(trace)
    elif profile.meta != trace.meta:
        raise MismatchError(f"importance profile covers {profile.meta}, trace is {trace.meta}")
    state = CacheState(config, profile, protect_distance=protect_distance,
                       merge_policy=merge_policy)
    state.current_len = N
    for l in range(config.layers):
        count = int(config.token_counts[l])
        if config.policy == "local":
            sinks = min(config.sink_count or 0, count)
            keep = np.concatenate((np.arange(sinks), np.arange(N - count + sinks, N)))
        else:
            ranked = np.lexsort((np.arange(N), -profile.normalized[l]))
            keep = np.sort(ranked[:count])
        dropped = np.ones(N, dtype=bool)
        dropped[keep] = False
        state.hard_evicted[l] = np.flatnonzero(dropped).tolist()
        kv = () if trace.keys is None else (trace.keys[l][:, keep], trace.values[l][:, keep])
        state.set_layer(l, keep, profile.raw[l][keep], *kv)
    return state


def full_cache_state(trace: AttentionTrace,
                     protect_distance: int = DEFAULT_PROTECT_DISTANCE,
                     profile: ImportanceProfile | None = None) -> CacheState:
    """A state that retains everything: uniform policy at full budget."""
    budget = BudgetSpec(r=1.0, min_tokens_per_layer=1)
    config = baseline_config("uniform", budget, trace.meta)
    return prefill_compress(trace, config, protect_distance=protect_distance, profile=profile)


def _match(policy: str, position: int, key, positions: np.ndarray, keys) -> int:
    """Index of the best merge partner among entries in ascending position order.

    The position policy maximizes ``-|m - n|``; the feature policy the
    cosine similarity of the flattened (H, d) key with each entry of the
    (H, n, d) ``keys`` block, computed as a row-wise reduction so that
    identical keys score identically. The first maximum wins, which is
    the lower position on ties.
    """
    if policy == "position":
        scores = -np.abs(positions - position)
    elif policy == "feature":
        dots = np.einsum("hnd,hd->n", keys, key)
        norms = np.sqrt(np.einsum("hnd,hnd->n", keys, keys))
        denom = np.sqrt(np.einsum("hd,hd->", key, key)) * norms
        scores = np.full(len(positions), -np.inf)
        np.divide(dots, denom, out=scores, where=denom > 0)
    else:
        raise UsageError(f"unknown merge policy {policy!r}")
    return int(scores.argmax())


def _flat_mean(mine: np.ndarray, mine_count: int, other: np.ndarray, other_count: int):
    """Weights count the original vectors each side already averages over,
    so the result stays a flat mean over all absorbed originals."""
    return (mine * mine_count + other * other_count) / (mine_count + other_count)


def merge(policy: str, evictee: CacheEntry, retained: list[CacheEntry]) -> CacheEntry:
    """Fold an evicted entry into its best-matching retained entry.

    Matching maximizes ``-|m - n|`` (position policy) or the cosine
    similarity of key vectors (feature policy), ties going to the lower
    retained position. The winner's key and value become flat averages
    over its own original vectors and everything absorbed so far, with
    the absorbed positions recorded in ``merged_from``. This is the
    entry-object form of the match and update ``CacheState.decode_step``
    applies to its arrays.
    """
    if not retained:
        raise UsageError("cannot merge into an empty retained set")
    ordered = sorted(retained, key=lambda entry: entry.position)
    keys = None
    if policy == "feature":
        if evictee.key is None or any(entry.key is None for entry in ordered):
            raise MismatchError("feature merging requires key vectors on every entry")
        keys = np.stack([entry.key for entry in ordered], axis=1)
    positions = np.array([entry.position for entry in ordered], dtype=np.int64)
    winner = ordered[_match(policy, evictee.position, evictee.key, positions, keys)]

    w_count = 1 + len(winner.merged_from)
    e_count = 1 + len(evictee.merged_from)
    if winner.key is not None and evictee.key is not None:
        winner.key = _flat_mean(winner.key, w_count, evictee.key, e_count)
        winner.value = _flat_mean(winner.value, w_count, evictee.value, e_count)
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
    for l, cache in enumerate(state._layers):
        live = cache.pos[:cache.n]
        positions = live[:live.searchsorted(horizon)]
        if len(positions):
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
        for l, cache in enumerate(state._layers):
            segment = trace.attention[l][:, m, np.append(cache.pos[:cache.n], m)]
            sums = segment.sum(axis=1, keepdims=True)
            if (sums == 0.0).any():
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
