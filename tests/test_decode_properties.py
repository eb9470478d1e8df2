"""Decode-time invariants checked after every replayed step.

Every policy x merge mode runs on small Dirichlet traces with key/value
vectors. Before each step a copy of the state is taken, a step whose
last layer carries a bad row must be rejected without touching it, and
the real step's evictions are checked against an oracle built from that
copy and the step's own attention rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvbudget import (
    BudgetSpec,
    ValidationError,
    baseline_config,
    compute_importance,
    plan_online,
    prefill_compress,
    priority_sequence,
    replay_steps,
    synth_trace,
    trace_prefix,
)

SINKS = 2


def snapshot(state):
    caches = [[(e.position, e.importance_acc, tuple(e.merged_from)) for e in cache]
              for cache in state.layer_caches]
    vectors = [tuple(block.tobytes() for block in state.live_kv(l))
               for l in range(state.layers)]
    return (caches, vectors, [list(h) for h in state.hard_evicted],
            [dict(r) for r in state.step_log], state.current_len)


def step_rows(trace, state, m):
    """The rows replay_steps feeds: row m restricted to live + new, renormalized."""
    rows = []
    for l in range(state.layers):
        segment = trace.attention[l][:, m, state.live_positions(l) + [m]]
        rows.append(segment / segment.sum(axis=1, keepdims=True))
    return rows


def expected_evictions(entries, received, m, capacity, protect, local):
    """Oracle: repeatedly drop the minimum-(acc, position) eligible entry,
    or the oldest eligible non-sink entry for the local policy."""
    live = [(acc + received[i], pos) for i, (pos, acc, _) in enumerate(entries)]
    live.append((received[-1], m))
    out = []
    while len(live) > capacity:
        eligible = [e for e in live
                    if m - e[1] >= protect and not (local and e[1] < SINKS)]
        if not eligible:
            break
        pick = min(eligible, key=lambda e: e[1]) if local else min(eligible)
        live.remove(pick)
        out.append(pick[1])
    return out


@pytest.mark.parametrize("merge", ["none", "position", "feature"])
@pytest.mark.parametrize("policy", ["prefixkv", "uniform", "pyramid", "local"])
@settings(max_examples=15, deadline=None)
@given(
    layers=st.integers(1, 3),
    heads=st.integers(1, 2),
    n0=st.integers(10, 24),
    steps=st.integers(1, 8),
    r=st.sampled_from([0.2, 0.3, 0.5, 0.8]),
    protect=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    bad=st.sampled_from(["row sum", "shape"]),
)
def test_decode_invariants(policy, merge, layers, heads, n0, steps, r, protect, seed, bad):
    rng = np.random.default_rng(seed)
    conc = np.exp(rng.uniform(np.log(0.1), np.log(4.0), layers))
    trace = synth_trace(layers, heads, n0 + steps, conc, seed=seed, with_kv=True)
    prefix = trace_prefix(trace, n0)
    budget = BudgetSpec(r=r)
    if policy == "prefixkv":
        config = plan_online(priority_sequence(compute_importance(prefix)), budget)
    else:
        config = baseline_config(policy, budget, prefix.meta,
                                 sink_count=SINKS if policy == "local" else None)
    state = prefill_compress(prefix, config, protect_distance=protect, merge_policy=merge)
    local = policy == "local"

    for m in range(n0, n0 + steps):
        before = snapshot(state)
        rows = step_rows(trace, state, m)
        kv = [(trace.keys[l, :, m], trace.values[l, :, m]) for l in range(layers)]
        broken = rows[:-1] + [rows[-1] * 1.5 if bad == "row sum" else rows[-1][:, 1:]]
        with pytest.raises(ValidationError, match=bad):
            state.decode_step(broken, kv)
        assert snapshot(state) == before

        replay_steps(trace, state, 1)
        record = state.step_log[-1]
        for ev in record["evicted"]:
            assert m - ev["pos"] >= protect
        for l in range(layers):
            live = state.live_positions(l)
            assert live == sorted(set(live))
            merged = [p for e in state.layer_caches[l] for p in e.merged_from]
            assert sorted(live + merged + state.hard_evicted[l]) == list(range(m + 1))
            if len(live) > state.capacity(l):
                assert not [p for p in live
                            if m - p >= protect and not (local and p < SINKS)]
            # Merging leaves every accumulator alone, so the eviction order
            # is the same in every merge mode.
            got = [ev["pos"] for ev in record["evicted"] if ev["layer"] == l]
            assert got == expected_evictions(before[0][l], rows[l].mean(axis=0), m,
                                             state.capacity(l), protect, local)


@pytest.mark.parametrize("merge", ["position", "feature"])
@settings(max_examples=25, deadline=None)
@given(
    layers=st.integers(1, 3),
    heads=st.integers(1, 3),
    n0=st.integers(12, 24),
    steps=st.integers(1, 16),
    r=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    protect=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_merged_vectors_are_flat_means_of_the_originals(merge, layers, heads, n0, steps, r,
                                                        protect, seed):
    """Every live key and value is the plain mean of the trace's vectors at
    its own position and every position merged into it, however long the
    chain of merges that built it."""
    rng = np.random.default_rng(seed)
    conc = np.exp(rng.uniform(np.log(0.1), np.log(4.0), layers))
    trace = synth_trace(layers, heads, n0 + steps, conc, seed=seed, with_kv=True)
    prefix = trace_prefix(trace, n0)
    config = plan_online(priority_sequence(compute_importance(prefix)), BudgetSpec(r=r))
    state = prefill_compress(prefix, config, protect_distance=protect, merge_policy=merge)
    replay_steps(trace, state, steps)
    for l in range(layers):
        for entry in state.layer_caches[l]:
            group = [entry.position, *entry.merged_from]
            np.testing.assert_allclose(entry.key, trace.keys[l][:, group].mean(axis=1),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(entry.value, trace.values[l][:, group].mean(axis=1),
                                       rtol=0, atol=1e-12)
