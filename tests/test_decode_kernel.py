"""The layer-batched decode kernel against a per-layer reference.

``ReferenceState`` and ``reference_replay`` are the per-layer decode step
and trace replay the batched kernel replaced, kept here as the oracle:
one array-backed cache per layer, checked and updated one layer at a
time. The properties require bit-identical accumulators, key/value
vectors, positions, merge lists, hard evictions and step logs after every
step, and the same exception type and message for faulty steps.
``reference_decode`` and ``reference_prefill`` are the toy decode loop
and the prefill that went through the public, checked entry points
(``decode_step``, ``set_layer``); ``decode`` and ``prefill_compress``
must leave the same state.

Two reductions are sensitive to summation order. A replayed row gathered
per layer is F-ordered (heads contiguous): numpy sums it sequentially
along its entries, except that a one-head row is contiguous and summed
pairwise; its head sum is pairwise, which differs from a sequential sum
from 8 heads on. Toy-model rows are C-ordered, so their head sum is
sequential. The head counts below straddle both limits.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvbudget import (
    BudgetSpec,
    CacheState,
    MismatchError,
    ToyModel,
    ValidationError,
    baseline_config,
    compute_importance,
    decode,
    forward_trace,
    plan_online,
    prefill_compress,
    priority_sequence,
    replay_steps,
    retained_info,
    synth_trace,
    trace_prefix,
)
from kvbudget.cachesim import _flat_mean, _match
from kvbudget.trace import ROW_SUM_TOL, _check_finite

SINKS = 2
HEADS = [1, 2, 3, 8, 9]
POLICIES = ["prefixkv", "uniform", "pyramid", "local"]
MERGES = ["none", "position", "feature"]


def _padded(live, axis):
    shape = list(live.shape)
    n = shape[axis]
    shape[axis] = n + n // 4 + 8
    out = np.empty(shape, dtype=live.dtype)
    out[(slice(None),) * axis + (slice(0, n),)] = live
    return out


class ReferenceLayer:
    """One layer's live entries as parallel arrays in ascending position order."""

    def __init__(self, positions, importance, keys=None, values=None, absorbed=None):
        self.n = n = len(positions)
        self.pos = _padded(np.asarray(positions, dtype=np.int64), 0)
        self.acc = _padded(np.asarray(importance, dtype=float), 0)
        self.kv = None
        if keys is not None:
            heads, _, dim = keys.shape
            self.kv = np.empty((2, heads, len(self.pos), dim))
            self.kv[0, :, :n] = keys
            self.kv[1, :, :n] = values
        self.absorbed = list(absorbed) if absorbed is not None else [()] * n

    def append(self, position, importance, kv):
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

    def remove(self, i):
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

    def absorb(self, policy, position, absorbed, kv):
        n = self.n
        if self.kv is None:
            w = _match(policy, position, None, self.pos[:n], None)
        else:
            w = _match(policy, position, kv[0], self.pos[:n], self.kv[0, :, :n])
            self.kv[:, :, w] = _flat_mean(self.kv[:, :, w], 1 + len(self.absorbed[w]),
                                          kv, 1 + len(absorbed))
        self.absorbed[w] = self.absorbed[w] + (position,) + absorbed
        return w


class ReferenceState:
    """The per-layer decode step, started from a copy of a prefilled CacheState."""

    def __init__(self, state):
        self.config = state.config
        self.report_profile = state.report_profile
        self.protect_distance = state.protect_distance
        self.merge_policy = state.merge_policy
        self.current_len = state.current_len
        self.hard_evicted = [list(h) for h in state.hard_evicted]
        self.step_log = [dict(r) for r in state.step_log]
        self.layers = state.layers
        self._layers = []
        for l in range(state.layers):
            entries = state.layer_caches[l]
            keys, values = state.live_kv(l)
            self._layers.append(ReferenceLayer(
                [e.position for e in entries], [e.importance_acc for e in entries],
                keys, values, [tuple(e.merged_from) for e in entries]))

    def capacity(self, layer):
        floor = self.config.budget.min_tokens_per_layer
        return max(floor, int(self.config.token_counts[layer]) * self.current_len
                   // self.config.seq_len)

    def _select_evictee(self, cache):
        live = cache.pos[:cache.n]
        eligible = int(live.searchsorted(self.current_len - 1 - self.protect_distance,
                                         side="right"))
        if self.config.policy == "local":
            first = int(live.searchsorted(self.config.sink_count or 0))
            return first if first < eligible else None
        return int(cache.acc[:eligible].argmin()) if eligible else None

    def decode_step(self, new_attention, new_kv=None):
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
            if rows.ndim != 2 or rows.shape[1] != expected or not len(rows):
                raise ValidationError(
                    f"attention rows for layer {l} have shape {rows.shape}, "
                    f"expected (heads, {expected})"
                )
            if not rows.min() >= 0.0:
                _check_finite("decode attention", rows, (l,))
                h, n = np.argwhere(rows < 0.0)[0]
                raise ValidationError(
                    f"negative attention score {rows[h, n]:.6g} at layer {l} head {h} "
                    f"entry {n} during decode"
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
        events = []
        for l, (rows, kv) in enumerate(checked):
            cache = self._layers[l]
            received = rows.sum(axis=0) / len(rows)
            cache.acc[:cache.n] += received[:-1]
            cache.append(position, received[-1], kv)
            capacity = self.capacity(l)
            while cache.n > capacity:
                idx = self._select_evictee(cache)
                if idx is None:
                    break
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
            record["retained_info"] = [float(v) for v in reference_retained(self)]
        self.step_log.append(record)
        return record


def reference_retained(state):
    profile = state.report_profile
    out = np.zeros(state.layers)
    for l, cache in enumerate(state._layers):
        live = cache.pos[:cache.n]
        positions = live[:live.searchsorted(profile.meta.seq_len)]
        if len(positions):
            out[l] = float(profile.normalized[l][positions].sum())
    return out


def reference_rows(trace, state, m):
    """The per-layer replay gather: row m over live + m, renormalized (F-ordered)."""
    rows = []
    for l, cache in enumerate(state._layers):
        segment = trace.attention[l][:, m, np.append(cache.pos[:cache.n], m)]
        sums = segment.sum(axis=1, keepdims=True)
        if (sums == 0.0).any():
            raise ValidationError(
                f"attention row {m} of layer {l} has no mass on the live cache"
            )
        rows.append(segment / sums)
    return rows


def reference_replay(trace, state, steps):
    for m in range(state.current_len, state.current_len + steps):
        kv = None
        if trace.keys is not None:
            kv = [(trace.keys[l, :, m], trace.values[l, :, m]) for l in range(state.layers)]
        state.decode_step(reference_rows(trace, state, m), kv)


def reference_view(ref):
    """What the comparison reads from a ReferenceState, in snapshot form."""
    layers = []
    for cache in ref._layers:
        n = cache.n
        kv = np.ascontiguousarray(cache.kv[:, :, :n]).tobytes()
        layers.append((cache.pos[:n].tolist(), cache.acc[:n].tobytes(), kv,
                       [list(a) for a in cache.absorbed]))
    return layers, [list(h) for h in ref.hard_evicted], list(ref.step_log), ref.current_len


def state_view(state):
    layers = []
    for l in range(state.layers):
        entries = state.layer_caches[l]
        kv = None
        if state._kv[l] is not None:
            kv = np.ascontiguousarray(np.stack(state.live_kv(l))).tobytes()
        layers.append((state.live_positions(l),
                       np.array([e.importance_acc for e in entries]).tobytes(), kv,
                       [e.merged_from for e in entries]))
    return layers, [list(h) for h in state.hard_evicted], list(state.step_log), state.current_len


def prefilled(policy, merge, layers, heads, n0, steps, r, protect, seed):
    rng = np.random.default_rng(seed)
    conc = np.exp(rng.uniform(np.log(0.1), np.log(4.0), layers))
    trace = synth_trace(layers, heads, n0 + steps, conc, seed=seed, with_kv=True)
    prefix = trace_prefix(trace, n0)
    budget = BudgetSpec(r=r)
    profile = compute_importance(prefix)
    if policy == "prefixkv":
        config = plan_online(priority_sequence(profile), budget)
    else:
        config = baseline_config(policy, budget, prefix.meta,
                                 sink_count=SINKS if policy == "local" else None)
    state = prefill_compress(prefix, config, protect_distance=protect, merge_policy=merge,
                             profile=profile)
    return trace, state


def toy_rows(rng, state, heads):
    """C-ordered rows as a toy model makes them: a softmax over live + new."""
    rows = []
    for l in range(state.layers):
        logits = 4.0 * rng.standard_normal((heads, len(state.live_positions(l)) + 1))
        logits -= logits.max(axis=-1, keepdims=True)
        row = np.exp(logits)
        row /= row.sum(axis=-1, keepdims=True)
        rows.append(row)
    return rows


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 4),
    heads=st.sampled_from(HEADS),
    n0=st.integers(10, 30),
    steps=st.integers(1, 8),
    r=st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    protect=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    source=st.sampled_from(["replay", "replayed rows", "toy rows"]),
)
def test_kernel_matches_per_layer_reference(policy, merge, layers, heads, n0, steps, r,
                                            protect, seed, source):
    trace, state = prefilled(policy, merge, layers, heads, n0, steps, r, protect, seed)
    ref = ReferenceState(state)
    assert state_view(state) == reference_view(ref)
    rng = np.random.default_rng(seed)
    dim = trace.keys.shape[-1]
    for m in range(n0, n0 + steps):
        if source == "replay":
            replay_steps(trace, state, 1)
            reference_replay(trace, ref, 1)
        else:
            if source == "replayed rows":
                rows = reference_rows(trace, ref, m)
                kv = [(trace.keys[l, :, m], trace.values[l, :, m]) for l in range(layers)]
            else:
                rows = toy_rows(rng, state, heads)
                kv = [tuple(rng.standard_normal((2, heads, dim))) for _ in range(layers)]
            assert state.decode_step(rows, kv) == ref.decode_step(rows, kv)
        assert state_view(state) == reference_view(ref)
    assert retained_info(state, state.report_profile).tobytes() == \
        reference_retained(ref).tobytes()


FAULTS = ["shape", "negative", "non-finite", "row sum", "infinite", "key/value shape"]


def broken(rows, kv, layer, fault, rng):
    row = rows[layer].copy()
    h = int(rng.integers(len(row)))
    j = int(rng.integers(row.shape[1]))
    if fault == "shape":
        rows[layer] = np.concatenate((row, row[:, :1]), axis=1)
        return
    if fault == "negative":
        k = (j + 1) % row.shape[1]
        row[h, k] += row[h, j] + 0.5  # the row still sums to 1
        row[h, j] = -0.5
    elif fault == "non-finite":
        row[h, j] = np.nan
    elif fault == "row sum":
        row[h] *= 1.5
    elif fault == "infinite":
        row[h, j] = np.inf
    else:
        kv[layer] = (kv[layer][0][:, 1:], kv[layer][1][:, 1:])
    rows[layer] = row


@pytest.mark.parametrize("merge", MERGES)
@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 4),
    heads=st.sampled_from(HEADS),
    n0=st.integers(10, 24),
    seed=st.integers(0, 2**31 - 1),
    faults=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(FAULTS)),
                    min_size=1, max_size=4),
    toy=st.booleans(),
)
def test_faulty_steps_raise_like_the_reference(merge, layers, heads, n0, seed, faults, toy):
    trace, state = prefilled("prefixkv", merge, layers, heads, n0, 2, 0.4, 3, seed)
    ref = ReferenceState(state)
    rng = np.random.default_rng(seed)
    m = n0
    rows = toy_rows(rng, state, heads) if toy else reference_rows(trace, ref, m)
    kv = [(trace.keys[l, :, m], trace.values[l, :, m]) for l in range(layers)]
    for layer, fault in faults:
        broken(rows, kv, layer % layers, fault, rng)
    before = state_view(state)
    with pytest.raises(Exception) as expected:
        ref.decode_step(rows, kv)
    with pytest.raises(type(expected.value)) as got:
        state.decode_step(rows, kv)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert state_view(state) == before


def reference_decode(model, trace, steps, state, forced_tokens=None):
    """Toy decode through the public step: live_kv, one concatenate per layer, decode_step."""
    L, H, hd = model.layers, model.heads, model.head_dim
    next_id = int(np.argmax(trace.features[-1, -1] @ model.unembedding))
    if forced_tokens is not None:
        next_id = int(forced_tokens[0])
    tokens = np.zeros(steps, dtype=np.int64)
    features = np.zeros((steps, L, model.dim))
    for t in range(steps):
        x = model.embedding[next_id]
        rows = []
        kv = []
        for l in range(L):
            q = (x @ model.w_query[l]).reshape(H, hd)
            k_new = (x @ model.w_key[l]).reshape(H, hd)
            v_new = (x @ model.w_value[l]).reshape(H, hd)
            k_live, v_live = state.live_kv(l)
            k_all = np.concatenate((k_live, k_new[:, None]), axis=1)
            v_all = np.concatenate((v_live, v_new[:, None]), axis=1)
            logits = model.logit_gains[l] * np.einsum("hd,hnd->hn", q, k_all) / np.sqrt(hd)
            logits -= logits.max(axis=-1, keepdims=True)
            row = np.exp(logits)
            row /= row.sum(axis=-1, keepdims=True)
            out = np.einsum("hn,hnd->hd", row, v_all).reshape(model.dim)
            x = x + out @ model.w_output[l]
            features[t, l] = x
            rows.append(row)
            kv.append((k_new, v_new))
        state.decode_step(rows, kv)
        tokens[t] = next_id
        generated = int(np.argmax(x @ model.unembedding))
        if forced_tokens is not None and t + 1 < steps:
            next_id = int(forced_tokens[t + 1])
        else:
            next_id = generated
    return tokens, features


def planned(policy, budget, profile):
    if policy == "prefixkv":
        return plan_online(priority_sequence(profile), budget)
    return baseline_config(policy, budget, profile.meta,
                           sink_count=SINKS if policy == "local" else None)


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=15, deadline=None)
@given(
    layers=st.integers(1, 3),
    heads=st.sampled_from(HEADS),
    head_dim=st.integers(1, 3),
    n0=st.integers(5, 20),
    steps=st.integers(1, 8),
    r=st.sampled_from([0.2, 0.5, 1.0]),
    floor=st.integers(0, 1),
    empty=st.booleans(),
    protect=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    forced=st.booleans(),
)
def test_toy_decode_matches_the_public_step(policy, merge, layers, heads, head_dim, n0, steps,
                                           r, floor, empty, protect, seed, forced):
    model = ToyModel(layers=layers, heads=heads, dim=heads * head_dim, vocab=32, seed=seed)
    rng = np.random.default_rng(seed)
    trace = forward_trace(model, rng.integers(0, model.vocab, n0))
    profile = compute_importance(trace)
    config = planned(policy, BudgetSpec(r=r, min_tokens_per_layer=floor), profile)
    if empty:  # every layer starts with no entries, so the first rows have one entry each
        config = dataclasses.replace(config, token_counts=np.zeros(layers, dtype=np.int64))
    state, ref = (prefill_compress(trace, config, protect_distance=protect, merge_policy=merge,
                                   profile=profile) for _ in range(2))
    forced_tokens = rng.integers(0, model.vocab, steps) if forced else None
    tokens, features = decode(model, trace, steps, state, forced_tokens=forced_tokens)
    ref_tokens, ref_features = reference_decode(model, trace, steps, ref, forced_tokens)
    assert tokens.tobytes() == ref_tokens.tobytes()
    assert features.tobytes() == ref_features.tobytes()
    assert state_view(state) == state_view(ref)


def reference_prefill(trace, config, protect, merge, profile):
    """prefill_compress through the checked set_layer, one layer at a time."""
    N = trace.meta.seq_len
    state = CacheState(config, profile, protect_distance=protect, merge_policy=merge)
    state.current_len = N
    for l in range(config.layers):
        count = int(config.token_counts[l])
        if config.policy == "local":
            sinks = min(config.sink_count or 0, count)
            keep = np.concatenate((np.arange(sinks), np.arange(N - count + sinks, N)))
        else:
            keep = np.sort(profile.order[l][:count])
        dropped = np.ones(N, dtype=bool)
        dropped[keep] = False
        state.hard_evicted[l] = np.flatnonzero(dropped).tolist()
        kv = () if trace.keys is None else (trace.keys[l][:, keep], trace.values[l][:, keep])
        state.set_layer(l, keep, profile.raw[l][keep], *kv)
    return state


@pytest.mark.parametrize("with_kv", [False, True], ids=["no-kv", "kv"])
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=30, deadline=None)
@given(
    layers=st.integers(1, 4),
    heads=st.sampled_from(HEADS),
    n0=st.integers(1, 30),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_prefill_matches_set_layer(policy, with_kv, layers, heads, n0, seed, data):
    # Two more rows than the prefill, so both states can take two replayed steps.
    trace = synth_trace(layers, heads, n0 + 2, [0.5] * layers, seed=seed, with_kv=with_kv)
    prefix = trace_prefix(trace, n0)
    profile = compute_importance(prefix)
    count = st.one_of(st.just(0), st.just(n0), st.integers(0, n0))
    counts = np.array(data.draw(st.lists(count, min_size=layers, max_size=layers)))
    merge = data.draw(st.sampled_from(MERGES if with_kv else MERGES[:2]))
    config = dataclasses.replace(planned(policy, BudgetSpec(r=1.0), profile),
                                 token_counts=counts)
    state = prefill_compress(prefix, config, protect_distance=1, merge_policy=merge,
                             profile=profile)
    ref = reference_prefill(prefix, config, 1, merge, profile)
    assert state_view(state) == state_view(ref)
    replay_steps(trace, state, 2)
    replay_steps(trace, ref, 2)
    assert state_view(state) == state_view(ref)
