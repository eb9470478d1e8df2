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

The live entries of all layers sit in layer-major arrays, in ascending
position order within a layer. One batched kernel checks, folds in and
evicts a step on every layer at once. ``CacheState._step`` is its one
entry: ``replay_steps`` feeds it gathered trace rows, toy ``decode`` the
rows it computes over key/value views of the cache, and
``CacheState.decode_step`` the rows any caller passes.

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
from .trace import ROW_SUM_TOL, AttentionTrace, TraceMeta, _check_finite, _check_layer, _is_int

MERGE_POLICIES = ("none", "position", "feature")

DEFAULT_PROTECT_DISTANCE = 10


@dataclass
class CacheEntry:
    """One cached position with its accumulated received attention.

    ``merged_from`` lists positions whose vectors were absorbed here;
    ``key``/``value`` are then flat averages over this entry's original
    vectors and every absorbed one, shape (H, d) when present.
    ``CacheState.layer_caches`` hands out copies of its arrays in this form.
    """

    position: int
    importance_acc: float
    key: np.ndarray | None = None
    value: np.ndarray | None = None
    merged_from: list[int] = field(default_factory=list)


# Position slots past a layer's live count hold this value: above every
# position, so counting the positions below a cutoff needs no mask, and
# clamping a padded row of positions to a bound reads the bound there.
_NO_POSITION = np.iinfo(np.int64).max


def _padded(live: np.ndarray, axis: int, count: int, fill=None) -> np.ndarray:
    """Copy of ``live`` with room for ``count`` entries along its entry axis.

    The only place cache storage is sized. The room grows with the count,
    so repeated appends cost amortised constant time and slots follow the
    cache's size. Slots past ``live`` hold ``fill``, or are left unset
    when it is None.
    """
    shape = list(live.shape)
    shape[axis] = count + count // 4 + 8
    out = np.empty(shape, live.dtype) if fill is None else np.full(shape, fill, live.dtype)
    out[(slice(None),) * axis + (slice(0, live.shape[axis]),)] = live
    return out


class _LayerEntries(Sequence):
    """``layer_caches[l]``: a fresh list of CacheEntry copies of layer l's live entries."""

    def __init__(self, state: CacheState):
        self._state = state

    def __len__(self) -> int:
        return self._state.layers

    def __getitem__(self, layer: int) -> list[CacheEntry]:
        _check_layer(layer, self._state.layers)
        return self._state._entries(layer)


class CacheState:
    """Per-layer live caches plus the bookkeeping the invariants need.

    The live entries are layer-major: row ``l`` of ``_pos`` and ``_acc``
    holds layer ``l``'s positions in ascending order and their importance
    accumulators in slots ``[:_n[l]]``. Past the live count, positions
    read ``_NO_POSITION`` and accumulators 0, so a step can fold all
    layers' zero-padded attention rows in with one add. ``_kv[l]`` stacks
    the layer's (H, slots, d) key and value blocks, or is None for a cache
    without vectors; it keeps its own slot count, so a small layer does
    not pay for a large one. ``_merged[l]`` maps a live position to the
    tuple of positions absorbed into it, so that entry's vectors average
    over ``1 + len(tuple)`` originals.
    """

    def __init__(
        self,
        config: PrefixConfiguration,
        profile: ImportanceProfile | None = None,
        protect_distance: int = DEFAULT_PROTECT_DISTANCE,
        merge_policy: str = "none",
    ):
        if not _is_int(protect_distance) or protect_distance < 1:
            raise UsageError(f"protect_distance must be a positive count, got {protect_distance!r}")
        if merge_policy not in MERGE_POLICIES:
            raise UsageError(f"unknown merge policy {merge_policy!r}")
        if profile is not None:
            _check_covers(config, profile.meta, "importance profile")
        self.config = config
        self.report_profile = profile
        self.protect_distance = int(protect_distance)
        self.merge_policy = merge_policy
        L = config.layers
        self._n = np.zeros(L, dtype=np.int64)
        self._layer_index = np.arange(L)
        self._pos = _padded(np.empty((L, 0), dtype=np.int64), 1, 0, _NO_POSITION)
        self._acc = _padded(np.empty((L, 0)), 1, 0, 0.0)
        self._kv: list[np.ndarray | None] = [None] * L
        self._merged: list[dict[int, tuple[int, ...]]] = [{} for _ in range(L)]
        self.hard_evicted: list[list[int]] = [[] for _ in range(L)]
        self.current_len = 0
        self.step_log: list[dict] = []

    @property
    def layers(self) -> int:
        return self.config.layers

    @property
    def layer_caches(self) -> Sequence[list[CacheEntry]]:
        """Per-layer snapshots of the live entries; changing them changes nothing here."""
        return _LayerEntries(self)

    def _entries(self, layer: int) -> list[CacheEntry]:
        n = int(self._n[layer])
        positions = self._pos[layer, :n].tolist()
        keys = values = [None] * n
        if self._kv[layer] is not None:
            keys, values = self._kv[layer][:, :, :n].transpose(0, 2, 1, 3).copy()
        merged = self._merged[layer]
        return [CacheEntry(p, a, k, v, list(merged.get(p, ()))) for p, a, k, v in
                zip(positions, self._acc[layer, :n].tolist(), keys, values)]

    def _reserve(self, count: int) -> None:
        """Widen the position and accumulator rows to hold ``count`` entries.

        Every change that grows a layer keeps one free slot past the
        largest layer, so a step's block always fits the rows.
        """
        if count > self._pos.shape[1]:
            self._pos = _padded(self._pos, 1, count, _NO_POSITION)
            self._acc = _padded(self._acc, 1, count, 0.0)

    def set_layer(self, layer: int, positions, importance, keys=None, values=None) -> None:
        """Replace a layer's live entries.

        ``positions`` must ascend strictly within ``[0, current_len)``;
        ``importance`` seeds their accumulators; ``keys``/``values``, when
        given, have shape (H, len(positions), d).
        """
        _check_layer(layer, self.layers)
        positions = np.asarray(positions, dtype=np.int64)
        importance = np.asarray(importance, dtype=float)
        if positions.ndim != 1 or (positions[1:] <= positions[:-1]).any():
            raise UsageError("positions must be a strictly ascending 1-D sequence")
        if len(positions) and not (positions[0] >= 0 and positions[-1] < self.current_len):
            raise UsageError(f"positions must lie in [0, {self.current_len})")
        if importance.shape != positions.shape:
            raise UsageError("importance must have one value per position")
        if (keys is None) != (values is None):
            raise UsageError("pass both keys and values, or neither")
        if keys is not None:
            keys, values = np.asarray(keys, dtype=float), np.asarray(values, dtype=float)
            if keys.ndim != 3 or keys.shape[1] != len(positions) or values.shape != keys.shape:
                raise UsageError("keys and values must have shape (heads, positions, dim)")
        self._fill(layer, positions, importance,
                   None if keys is None else _padded(np.stack((keys, values)), 2, len(positions)))

    def _fill(self, layer: int, positions: np.ndarray, importance: np.ndarray, kv) -> None:
        """Make ``positions`` a layer's live entries, unchecked: the one layer writer.

        ``importance`` seeds their accumulators and ``kv`` is the layer's
        (2, H, slots, d) key/value block, or None; absorbed positions reset.
        """
        n = len(positions)
        self._reserve(n + 1)
        self._n[layer] = n
        self._pos[layer] = _NO_POSITION
        self._pos[layer, :n] = positions
        self._acc[layer] = 0.0
        self._acc[layer, :n] = importance
        self._kv[layer] = kv
        self._merged[layer] = {}

    def _capacities(self) -> list[int]:
        """Every layer's prefill count scaled to current_len, floored, in integers."""
        floor, N, t = self.config.budget.min_tokens_per_layer, self.config.seq_len, self.current_len
        return [max(floor, count * t // N) for count in self.config.token_counts.tolist()]

    def capacity(self, layer: int) -> int:
        """Current token allowance of a layer, re-derived from current_len."""
        _check_layer(layer, self.layers)
        return self._capacities()[layer]

    def live_positions(self, layer: int) -> list[int]:
        _check_layer(layer, self.layers)
        return self._pos[layer, :self._n[layer]].tolist()

    def live_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (H, n, d) views of a layer's live key and value vectors."""
        _check_layer(layer, self.layers)
        if self._kv[layer] is None:
            raise MismatchError("cache entries carry no key/value vectors")
        live = self._kv[layer][:, :, :self._n[layer]]
        live.flags.writeable = False
        return live[0], live[1]

    def decode_step(self, new_attention, new_kv=None) -> dict:
        """Fold one decoded token into every layer and enforce capacity.

        ``new_attention[l]`` holds per-head rows over the layer's live
        entries plus the new token itself, each row nonnegative and
        normalized, with the same head count on every layer;
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
        rows = [np.asarray(a, dtype=float) for a in new_attention]
        kv = None if new_kv is None else [np.asarray(pair, dtype=float) for pair in new_kv]
        heads = rows[0].shape[0] if rows[0].ndim == 2 else None
        for l, (layer_rows, n) in enumerate(zip(rows, self._n.tolist())):
            expected = n + 1
            if layer_rows.ndim != 2 or layer_rows.shape[1] != expected or not len(layer_rows):
                fault = ValidationError(
                    f"attention rows for layer {l} have shape {layer_rows.shape}, "
                    f"expected (heads, {expected})"
                )
            elif len(layer_rows) != heads:
                fault = ValidationError(f"attention rows for layer {l} have "
                                        f"{len(layer_rows)} heads, layer 0 has {heads}")
            else:
                continue
            if l:  # a fault in an earlier layer is reported first
                self._check_step(self._pack(rows[:l]), kv)
            raise fault
        heads_contiguous = all(r.strides[0] == r.itemsize for r in rows)
        return self._step(self._pack(rows), kv, heads_contiguous)

    def _step(self, block: np.ndarray, kv, heads_contiguous: bool) -> dict:
        """Check a zero-padded (slots, H, layers) step block, then apply and log it.

        The one entry into the decode kernel: ``decode_step``, trace replay
        and toy decode all end here. ``kv`` holds each layer's (2, H, d)
        pair, or is None; ``heads_contiguous`` picks the head sum's order
        (see ``_head_mean``).
        """
        self._check_step(block, kv)
        return self._advance(_head_mean(block, heads_contiguous), kv)

    def _kv_slot(self, layer: int, pair: np.ndarray) -> np.ndarray:
        """Write a layer's new (2, H, d) pair into its free slot ``n``, growing
        the block when it is full; return the layer's (2, H, slots, d) block.

        The one key/value appender. A slot past the live count is not
        observable state, so a step rejected afterwards still leaves the
        state as it was.
        """
        n = int(self._n[layer])
        block = self._kv[layer]
        if n == block.shape[2]:
            block = self._kv[layer] = _padded(block, 2, n)
        block[:, :, n] = pair
        return block

    def _pack(self, rows: list[np.ndarray]) -> np.ndarray:
        """Per-layer (H, n_l + 1) rows as one zero-padded (slots, H, layers) block.

        Heads are outermost in memory, so the head sum adds one head's
        plane after another, as numpy does for C-ordered rows.
        """
        block = np.zeros((len(rows[0]), max(r.shape[1] for r in rows), len(rows)))
        for l, layer_rows in enumerate(rows):
            block[:, :layer_rows.shape[1], l] = layer_rows
        return block.transpose(1, 0, 2)

    def _check_step(self, block: np.ndarray, kv) -> None:
        """Reject a step's input for the layers in ``block`` before any layer changes.

        ``block`` is a zero-padded (slots, H, layers) block of attention
        rows. The value checks run on all its layers at once; the first
        faulty layer, and within it the first failing check, names the error.
        """
        sums = block.sum(axis=0)
        off = np.abs(sums - 1.0)
        bad = [False] * block.shape[2]
        if not (block.min() >= 0.0 and off.max() <= ROW_SUM_TOL):  # NaN fails both
            off = off > ROW_SUM_TOL
            bad = (off.any(axis=0) | ~(block.min(axis=(0, 1)) >= 0.0)).tolist()
        for l, faulty in enumerate(bad):
            if faulty:
                rows = block[:self._n[l] + 1, :, l].T
                if not rows.min() >= 0.0:
                    _check_finite("decode attention", rows, (l,))
                    h, n = np.argwhere(rows < 0.0)[0]
                    raise ValidationError(
                        f"negative attention score {rows[h, n]:.6g} at layer {l} head {h} "
                        f"entry {n} during decode"
                    )
                h = int(off[:, l].argmax())
                raise ValidationError(
                    f"row sum {sums[h, l]:.6g} at layer {l} head {h} during decode"
                )
            cached = self._kv[l]
            if (kv is None) != (cached is None):
                raise MismatchError(f"layer {l}: pass new_kv exactly when the cache "
                                    "holds key/value vectors")
            if self.merge_policy == "feature" and cached is None:
                raise MismatchError("feature merging requires key vectors on every entry")
            if kv is not None:
                shape = (2, cached.shape[1], cached.shape[3])
                if kv[l].shape != shape:
                    raise ValidationError(f"key/value pair for layer {l} has shape "
                                          f"{kv[l].shape}, expected {shape}")

    def _advance(self, received: np.ndarray, kv) -> dict:
        """Apply a checked step to every layer and log it.

        ``received`` is the (slots, layers) head mean of the step's rows.
        """
        self._accumulate(received, kv)
        events = self._enforce_capacity()
        record = {
            "step": len(self.step_log) + 1,
            "layer_sizes": self._n.tolist(),
            "evicted": events,
        }
        if self.report_profile is not None:
            record["retained_info"] = [float(v) for v in retained_info(self, self.report_profile)]
        self.step_log.append(record)
        return record

    def _accumulate(self, received: np.ndarray, kv) -> None:
        """Fold the head mean into every accumulator and append the new token."""
        n = self._n
        # Slot n[l] still holds 0, so it takes the new token's mean as is.
        self._acc[:, :len(received)] += received.T
        self._pos[self._layer_index, n] = self.current_len
        if kv is not None:
            for l, pair in enumerate(kv):
                self._kv_slot(l, pair)
        n += 1
        self.current_len += 1
        self._reserve(max(n.tolist()) + 1)

    def _enforce_capacity(self) -> list[dict]:
        """Evict until every layer fits its capacity or has nothing in reach."""
        events = []
        for l, (n, capacity) in enumerate(zip(self._n.tolist(), self._capacities())):
            while n > capacity:
                i = self._select_evictee(l, n)
                if i is None:
                    break  # everything in reach is protected; capacity resumes later
                events.append(self._evict(l, i))
                n -= 1
        return events

    def _select_evictee(self, layer: int, n: int) -> int | None:
        """Index of the entry to evict from a layer of ``n`` entries, or None
        if everything is protected.

        Entries at least ``protect_distance`` behind the newest position
        form a prefix; among them the lowest accumulator goes, ties to the
        lower position, or for the local policy the oldest non-sink entry.
        """
        live = self._pos[layer, :n]
        eligible = int(live.searchsorted(self.current_len - 1 - self.protect_distance,
                                         side="right"))
        if self.config.policy == "local":
            first = int(live.searchsorted(self.config.sink_count or 0))
            return first if first < eligible else None
        return int(self._acc[layer, :eligible].argmin()) if eligible else None

    def _evict(self, layer: int, i: int) -> dict:
        """Remove entry ``i`` of a layer and merge it, or record it as hard-evicted."""
        n = int(self._n[layer])
        pos, acc, kv = self._pos[layer], self._acc[layer], self._kv[layer]
        gone = int(pos[i])
        # Slot n is free, so shifting it down too leaves padding in slot n - 1.
        pos[i:n] = pos[i + 1:n + 1]
        acc[i:n] = acc[i + 1:n + 1]
        self._n[layer] = n - 1
        gone_kv = None
        if kv is not None:
            gone_kv = kv[:, :, i].copy()
            kv[:, :, i:n - 1] = kv[:, :, i + 1:n]
        absorbed = self._merged[layer].pop(gone, ())
        if self.merge_policy == "none":
            self.hard_evicted[layer].append(gone)
            return {"layer": layer, "pos": gone, "merged_into": None}
        return {"layer": layer, "pos": gone,
                "merged_into": merge(self, layer, gone, absorbed, gone_kv)}


def merge(state: CacheState, layer: int, position: int, absorbed: tuple[int, ...], kv) -> int:
    """Merge a removed entry into its best match; returns the winner's position.

    The decode kernel's merge step, called by ``CacheState._evict`` once
    per merge through this module-level name, so a wrapper installed on
    the module sees every merge. Not part of the package API.
    """
    n = int(state._n[layer])
    live = state._pos[layer, :n]
    block = state._kv[layer]
    merged = state._merged[layer]
    if block is None:
        w = _match(state.merge_policy, position, None, live, None)
    else:
        w = _match(state.merge_policy, position, kv[0], live, block[0, :, :n])
    winner = int(live[w])
    held = merged.get(winner, ())
    if block is not None:
        block[:, :, w] = _flat_mean(block[:, :, w], 1 + len(held), kv, 1 + len(absorbed))
    merged[winner] = held + (position,) + absorbed
    return winner


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
    _check_covers(config, trace.meta, "trace")
    if np.any(config.token_counts > N):
        raise MismatchError("token_counts exceed the trace length")
    if np.any(config.token_counts < 0):
        raise MismatchError("token_counts must be nonnegative")
    if merge_policy == "feature" and trace.keys is None:
        raise MismatchError("feature merging requires a trace with key/value vectors")

    if profile is None:
        profile = compute_importance(trace)
    elif profile.meta != trace.meta:
        raise MismatchError(f"importance profile covers {profile.meta}, trace is {trace.meta}")
    state = CacheState(config, profile, protect_distance=protect_distance,
                       merge_policy=merge_policy)
    state.current_len = N
    # Kept positions ascend within [0, N) by construction, so each layer is
    # filled without set_layer's checks.
    for l, count in enumerate(config.token_counts.tolist()):
        if config.policy == "local":
            sinks = min(config.sink_count or 0, count)
            keep = np.concatenate((np.arange(sinks), np.arange(N - count + sinks, N)))
        else:
            keep = np.sort(profile.order[l][:count])
        dropped = np.ones(N, dtype=bool)
        dropped[keep] = False
        state.hard_evicted[l] = np.flatnonzero(dropped).tolist()
        state._fill(l, keep, profile.raw[l][keep],
                    None if trace.keys is None else _gathered_kv(trace, l, keep))
    return state


def _gathered_kv(trace: AttentionTrace, layer: int, keep: np.ndarray) -> np.ndarray:
    """A layer's key and value vectors at ``keep`` as one (2, H, slots, d) block.

    One gather per array: ``_padded`` sizes the index, and with it the
    block, as it sizes every block; slots past ``keep`` repeat position
    0's vectors, which no live entry reads.
    """
    index = _padded(keep, 0, len(keep), 0)
    keys, values = (np.asarray(a[layer], dtype=float) for a in (trace.keys, trace.values))
    block = np.empty((2, keys.shape[0], len(index), keys.shape[2]))
    keys.take(index, 1, block[0], "clip")
    values.take(index, 1, block[1], "clip")
    return block


def full_cache_state(trace: AttentionTrace,
                     profile: ImportanceProfile | None = None) -> CacheState:
    """A state that retains everything: uniform policy at full budget.

    Its capacity at length t is t, so it never evicts and has no use for a
    protection window.
    """
    budget = BudgetSpec(r=1.0, min_tokens_per_layer=1)
    config = baseline_config("uniform", budget, trace.meta)
    return prefill_compress(trace, config, profile=profile)


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
    else:
        dots = np.einsum("hnd,hd->n", keys, key)
        norms = np.sqrt(np.einsum("hnd,hnd->n", keys, keys))
        denom = np.sqrt(np.einsum("hd,hd->", key, key)) * norms
        scores = np.full(len(positions), -np.inf)
        np.divide(dots, denom, out=scores, where=denom > 0)
    return int(scores.argmax())


def _flat_mean(mine: np.ndarray, mine_count: int, other: np.ndarray, other_count: int):
    """Weights count the original vectors each side already averages over,
    so the result stays a flat mean over all absorbed originals."""
    return (mine * mine_count + other * other_count) / (mine_count + other_count)


def retained_info(state: CacheState, profile: ImportanceProfile) -> np.ndarray:
    """Per-layer share of profile importance still live in the cache.

    Positions beyond the profile (tokens decoded after prefill) carry no
    share; merged-away positions do not count. The profile must cover the
    configuration's layers and positions.
    """
    _check_covers(state.config, profile.meta, "importance profile")
    counts = (state._pos < profile.meta.seq_len).sum(axis=1)
    out = np.zeros(state.layers)
    for l, count in enumerate(counts.tolist()):
        if count:
            out[l] = float(profile.normalized[l][state._pos[l, :count]].sum())
    return out


def _check_covers(config: PrefixConfiguration, meta: TraceMeta, what: str) -> None:
    """Refuse a trace or profile of another layer count or length than the configuration."""
    covers = (meta.layers, meta.seq_len)
    if covers != (config.layers, config.seq_len):
        raise MismatchError(f"{what} covers (layers, positions) {covers}, "
                            f"the configuration {(config.layers, config.seq_len)}")


def _head_mean(block: np.ndarray, heads_contiguous: bool) -> np.ndarray:
    """(slots, layers) mean over the heads of a (slots, H, layers) block.

    numpy sums over an axis pairwise when that axis is contiguous in
    memory and one plane after another otherwise; the two orders differ
    from 8 heads on. Each step's head sum follows the memory order of the
    rows it came from: ``heads_contiguous`` for F-ordered rows, such as a
    per-layer gather of trace rows, else the block's own order, in which
    heads are never the contiguous axis of a multi-layer block.
    """
    heads = block.shape[1]
    if heads_contiguous and heads >= 8:
        return np.ascontiguousarray(block.transpose(0, 2, 1)).sum(axis=2) / heads
    return block.sum(axis=1) / heads


def _replay_block(trace: AttentionTrace, state: CacheState, m: int) -> np.ndarray:
    """Row ``m`` of every layer over the live cache plus ``m``, renormalized.

    Returns a zero-padded (slots, H, layers) block. With slots outermost,
    each row sums sequentially along its entries, the order numpy takes
    for a per-layer (H, n) gather of the same row, whose heads are
    contiguous; trailing zeros leave the sum as it is. A one-head row is
    contiguous and numpy sums it pairwise, so those sums go per layer.
    """
    L, H = state.layers, trace.meta.heads
    n = state._n
    rows = np.empty((L, H, m + 2))
    rows[:, :, :m + 1] = trace.attention[:, :, m, :m + 1]
    rows[:, :, m + 1] = 0.0  # read by the padding slots
    index = np.minimum(state._pos[:, :int(n.max()) + 1], m + 1)
    index[state._layer_index, n] = m
    block = rows.take(index.T[:, None, :] + (np.arange(L) * H + np.arange(H)[:, None]) * (m + 2))
    if H == 1:
        sums = np.array([[block[:k + 1, 0, l].sum() for l, k in enumerate(n.tolist())]])
    else:
        sums = block.sum(axis=0)
    empty = (sums == 0.0).any(axis=0)
    if empty.any():
        raise ValidationError(
            f"attention row {m} of layer {int(empty.argmax())} has no mass on the live cache"
        )
    block /= sums
    return block


def replay_steps(trace: AttentionTrace, state: CacheState, steps: int) -> None:
    """Feed the next ``steps`` trace rows into an already prefilled state.

    Each replayed row is restricted to the live cache plus the new token
    and renormalized, standing in for attention a model would have
    computed over the compressed cache.
    """
    if not _is_int(steps) or steps < 0:
        raise UsageError(f"steps must be nonnegative, got {steps}")
    if trace.meta.layers != state.layers:
        raise MismatchError(
            f"trace has {trace.meta.layers} layers, the cache has {state.layers}"
        )
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
        block = _replay_block(trace, state, m)
        kv = None
        if trace.keys is not None:
            kv = np.stack((trace.keys[:, :, m], trace.values[:, :, m]), axis=1)
        state._step(block, kv, heads_contiguous=True)


def disturbance(
    model: ToyModel,
    trace: AttentionTrace,
    reference: tuple[np.ndarray, np.ndarray],
    state: CacheState,
) -> np.ndarray:
    """Measure per-layer feature MAE caused by cache compression.

    ``trace`` is the prompt's forward trace, ``reference`` the
    ``(tokens, features)`` of a full-cache ``decode`` from it, and
    ``state`` a compressed cache prefilled from the same trace. The
    compressed run is teacher-forced with the reference's token choices,
    so the error isolates representation drift rather than compounding
    token divergence. ``state`` advances by the decoded tokens.

    Returns the (layers, decoded tokens) mean absolute error of each
    layer's post-attention features, token by token.
    """
    tokens, full_features = reference
    _, test_features = decode(model, trace, len(tokens), state, forced_tokens=tokens)
    return np.abs(full_features - test_features).mean(axis=2).T
