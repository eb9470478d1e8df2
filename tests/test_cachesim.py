import re

import numpy as np
import pytest

from kvbudget import (
    BudgetSpec,
    CacheState,
    MismatchError,
    UsageError,
    ValidationError,
    baseline_config,
    compute_importance,
    decode,
    disturbance,
    forward_trace,
    full_cache_state,
    plan_online,
    prefill_compress,
    priority_sequence,
    replay_steps,
    retained_info,
    synth_trace,
    trace_prefix,
    ToyModel,
)
from kvbudget import cachesim

from conftest import full_trace, shortcut_trace


def importance_config(counts, n, r, policy="prefixkv", sink=None):
    """Hand-built configuration with explicit token counts."""
    from kvbudget import PrefixConfiguration

    counts = np.asarray(counts, dtype=np.int64)
    return PrefixConfiguration(
        budget=BudgetSpec(r=r),
        seq_len=n,
        token_counts=counts,
        policy=policy,
        sink_count=sink,
    )


class TestPrefill:
    def test_top_k_selection(self):
        trace = shortcut_trace([[0.7, 0.2, 0.05, 0.05]])
        state = prefill_compress(trace, importance_config([2], 4, 0.5))
        assert state.live_positions(0) == [0, 1]
        assert state.hard_evicted[0] == [2, 3]

    def test_full_count_keeps_everything(self):
        trace = shortcut_trace([[0.1, 0.2, 0.3, 0.4]])
        state = prefill_compress(trace, importance_config([4], 4, 1.0))
        assert state.live_positions(0) == [0, 1, 2, 3]

    def test_local_keeps_sink_plus_recent(self):
        trace = shortcut_trace([[0.7, 0.2, 0.05, 0.05]])
        config = importance_config([2], 4, 0.5, policy="local", sink=1)
        state = prefill_compress(trace, config)
        assert state.live_positions(0) == [0, 3]

    def test_importance_seeded_from_prefill(self):
        trace = shortcut_trace([[0.7, 0.2, 0.05, 0.05]])
        state = prefill_compress(trace, importance_config([2], 4, 0.5))
        assert [e.importance_acc for e in state.layer_caches[0]] == [0.7, 0.2]

    def test_length_mismatch(self):
        trace = shortcut_trace([[1.0, 1.0]])
        with pytest.raises(MismatchError, match="positions"):
            prefill_compress(trace, importance_config([2], 4, 0.5))

    @pytest.mark.parametrize("policy", ["prefixkv", "local"])
    def test_given_profile_builds_the_same_state(self, policy):
        full = synth_trace(3, 2, 30, [0.1, 1.0, 4.0], seed=4, with_kv=True)
        trace = trace_prefix(full, 24)
        config = plan_online(priority_sequence(compute_importance(trace)), BudgetSpec(r=0.3))
        if policy == "local":
            config = baseline_config("local", BudgetSpec(r=0.3), trace.meta, sink_count=2)
        states = [prefill_compress(trace, config, merge_policy="feature", profile=profile)
                  for profile in (None, compute_importance(trace))]
        for state in states:
            replay_steps(full, state, 6)
        a, b = states
        assert a.step_log == b.step_log
        assert a.hard_evicted == b.hard_evicted
        for l in range(a.layers):
            assert a.live_positions(l) == b.live_positions(l)
            assert all(np.array_equal(x, y) for x, y in zip(a.live_kv(l), b.live_kv(l)))
            assert ([e.importance_acc for e in a.layer_caches[l]]
                    == [e.importance_acc for e in b.layer_caches[l]])

    def test_mismatched_profile(self):
        trace = synth_trace(2, 1, 12, [0.5, 2.0], seed=1)
        config = baseline_config("uniform", BudgetSpec(r=0.5), trace.meta)
        other = synth_trace(2, 1, 12, [0.5, 2.0], seed=2)
        for profile in (compute_importance(other), compute_importance(trace_prefix(trace, 11))):
            with pytest.raises(MismatchError, match="importance profile"):
                prefill_compress(trace, config, profile=profile)

    def test_negative_count_rejected(self):
        # Count -1 used to keep order[:-1], that is N - 1 positions.
        trace = shortcut_trace([[0.7, 0.2, 0.05, 0.05], [0.1, 0.2, 0.3, 0.4]])
        with pytest.raises(MismatchError, match="token_counts must be nonnegative"):
            prefill_compress(trace, importance_config([-1, 3], 4, 0.25))

    def test_count_above_the_trace_length_rejected(self):
        trace = shortcut_trace([[0.7, 0.2, 0.05, 0.05], [0.1, 0.2, 0.3, 0.4]])
        with pytest.raises(MismatchError, match="token_counts exceed the trace length"):
            prefill_compress(trace, importance_config([5, 1], 4, 0.75))

    def test_feature_merge_requires_kv(self):
        trace = shortcut_trace([[1.0, 1.0, 1.0, 1.0]])
        with pytest.raises(MismatchError, match="key/value"):
            prefill_compress(trace, importance_config([2], 4, 0.5), merge_policy="feature")


def make_state(importances, positions, current_len, capacity_n, protect=2,
               policy="prefixkv", merge_policy="none", sink=None, keys=None):
    """State with one layer and hand-placed entries; capacity_n fixes capacity.

    ``keys``, when given, serve as both key and value vectors.
    """
    config = importance_config([capacity_n], current_len, capacity_n / current_len,
                               policy=policy, sink=sink)
    state = CacheState(config, None, protect_distance=protect, merge_policy=merge_policy)
    state.current_len = current_len
    state.set_layer(0, positions, importances, keys, keys)
    return state


class TestDecodeStep:
    def _step(self, state):
        n = len(state.layer_caches[0]) + 1
        row = np.full((1, n), 1.0 / n)
        return state.decode_step([row])

    def test_full_budget_never_evicts(self):
        trace = shortcut_trace([[0.4, 0.3, 0.2, 0.1]])
        config = baseline_config("uniform", BudgetSpec(r=1.0), trace.meta)
        state = prefill_compress(trace, config)
        for _ in range(6):
            self._step(state)
        assert state.live_positions(0) == list(range(10))
        assert all(not rec["evicted"] for rec in state.step_log)

    def test_lowest_importance_eligible_entry_evicted(self):
        # Capacity 5, six entries after the step; the lowest-importance
        # entry sits at distance 4 from the newest position and goes.
        state = make_state(
            importances=[0.05, 0.5, 0.6, 0.7, 0.8],
            positions=[1, 2, 3, 4, 5],
            current_len=6,
            capacity_n=5,
            protect=2,
        )
        record = state.decode_step([np.full((1, 6), 1.0 / 6)])
        assert record["evicted"] == [{"layer": 0, "pos": 1, "merged_into": None}]
        assert 1 not in state.live_positions(0)

    def test_protected_newest_survives(self):
        # The newest token has the lowest importance but distance 0;
        # the second-lowest eligible entry is evicted instead.
        state = make_state(
            importances=[0.2, 0.9, 0.8, 0.85, 0.7],
            positions=[1, 2, 3, 4, 5],
            current_len=6,
            capacity_n=5,
            protect=2,
        )
        rows = np.zeros((1, 6))
        rows[0, -1] = 0.01  # newest receives almost nothing
        rows[0, :-1] = 0.99 / 5
        record = state.decode_step([rows])
        evicted = record["evicted"][0]["pos"]
        assert evicted != 6  # newest position
        assert evicted == 1  # lowest importance among distance >= 2

    def test_local_policy_evicts_oldest_non_sink(self):
        state = make_state(
            importances=[0.9, 0.1, 0.2, 0.3, 0.4],
            positions=[0, 1, 2, 3, 4],
            current_len=6,
            capacity_n=5,
            protect=2,
            policy="local",
            sink=1,
        )
        record = state.decode_step([np.full((1, 6), 1.0 / 6)])
        assert record["evicted"][0]["pos"] == 1
        assert 0 in state.live_positions(0)

    def test_row_validation(self):
        state = make_state([0.5], [0], 1, 1)
        with pytest.raises(ValidationError, match="shape"):
            state.decode_step([np.full((1, 5), 0.2)])
        with pytest.raises(ValidationError, match=r"shape \(0, 2\)"):
            state.decode_step([np.empty((0, 2))])  # no heads: the head mean is 0/0
        with pytest.raises(ValidationError, match="row sum"):
            state.decode_step([np.array([[0.6, 0.6]])])
        # Neither row fails the row-sum test: NaN compares false and the
        # negative score is offset by the other.
        with pytest.raises(ValidationError,
                           match=r"non-finite decode attention value nan at index \(0, 0, 0\)"):
            state.decode_step([np.array([[np.nan, 1.0]])])
        with pytest.raises(ValidationError,
                           match="negative attention score -0.5 at layer 0 head 0 entry 0"):
            state.decode_step([np.array([[-0.5, 1.5]])])
        assert state.live_positions(0) == [0] and state.current_len == 1
        assert not state.step_log

    def test_capacity_tracks_growing_length(self):
        trace = shortcut_trace([[1.0] * 10])
        config = importance_config([5], 10, 0.5)
        state = prefill_compress(trace, config, protect_distance=2)
        for step in range(8):
            self._step(state)
            t = state.current_len
            assert len(state.layer_caches[0]) <= max(1, int(0.5 * t)) + 1

    def test_capacity_scales_the_count_in_integers(self):
        # Scaled through a float ratio, int(15 / 22 * 44) is 29.
        state = CacheState(importance_config([15], 22, 0.5))
        capacities = []
        for t in (22, 23, 44):
            state.current_len = t
            capacities.append(state.capacity(0))
        assert capacities == [15, 15, 30]

    @pytest.mark.parametrize("bad", ["row sum", "shape", "negative", "non-finite"])
    def test_rejected_step_leaves_state_untouched(self, bad):
        # Layers 0-1 would absorb the step and evict before layer 2's rows
        # are checked if validation ran inside the mutation loop.
        trace = synth_trace(3, 2, 24, [0.1, 1.0, 3.0], seed=5, with_kv=True)
        config = plan_online(priority_sequence(compute_importance(trace)), BudgetSpec(r=0.3))
        state = prefill_compress(trace, config, protect_distance=2, merge_policy="position")
        rows = [np.full((2, len(c) + 1), 1.0 / (len(c) + 1)) for c in state.layer_caches]
        kv = [(np.ones((2, 16)), np.ones((2, 16)))] * 3

        def snapshot():
            return ([[(e.position, e.importance_acc, list(e.merged_from)) for e in c]
                     for c in state.layer_caches],
                    [list(h) for h in state.hard_evicted], list(state.step_log),
                    state.current_len)

        before = snapshot()
        last = rows[2].copy()
        if bad == "row sum":
            last *= 1.5
        elif bad == "shape":
            last = last[:, 1:]
        elif bad == "negative":
            last[0, :2] += (-1.0, 1.0)  # the row still sums to 1
        else:
            last[0, 0] = np.nan
        broken = rows[:2] + [last]
        with pytest.raises(ValidationError, match=bad):
            state.decode_step(broken, kv)
        assert snapshot() == before
        record = state.decode_step(rows, kv)
        assert any(ev["layer"] < 2 for ev in record["evicted"])

    def test_head_count_must_match_layer_zero(self):
        trace = synth_trace(3, 2, 24, [0.1, 1.0, 3.0], seed=5, with_kv=True)
        state = prefill_compress(trace, plan_online(
            priority_sequence(compute_importance(trace)), BudgetSpec(r=0.3)))
        rows = [np.full((2, len(c) + 1), 1.0 / (len(c) + 1)) for c in state.layer_caches]
        rows[2] = np.full((3, rows[2].shape[1]), 1.0 / rows[2].shape[1])
        kv = [(np.ones((2, 16)), np.ones((2, 16)))] * 3
        with pytest.raises(ValidationError,
                           match="attention rows for layer 2 have 3 heads, layer 0 has 2"):
            state.decode_step(rows, kv)
        assert state.current_len == 24 and not state.step_log

    def test_layer_count_and_key_value_presence_checked(self):
        plain = make_state([0.5, 0.4], [0, 1], 2, 2)
        with pytest.raises(MismatchError, match="new_kv"):
            plain.decode_step([np.full((1, 3), 1.0 / 3)], [(np.ones((1, 2)), np.ones((1, 2)))])
        vectors = make_state([0.5, 0.4], [0, 1], 2, 2, keys=np.ones((1, 2, 2)))
        with pytest.raises(MismatchError, match="new_kv"):
            vectors.decode_step([np.full((1, 3), 1.0 / 3)])
        with pytest.raises(ValidationError, match="key/value pair"):
            vectors.decode_step([np.full((1, 3), 1.0 / 3)], [(np.ones((1, 3)), np.ones((1, 3)))])
        with pytest.raises(ValidationError, match="cover"):
            plain.decode_step([np.full((1, 3), 1.0 / 3)] * 2)
        assert plain.current_len == vectors.current_len == 2
        assert not plain.step_log and not vectors.step_log

    def test_set_layer_rejects_unordered_positions(self):
        state = make_state([0.5], [0], 1, 1)
        with pytest.raises(ValueError, match="ascending"):
            state.set_layer(0, [3, 1], [0.1, 0.2])
        with pytest.raises(ValueError, match="ascending"):
            state.set_layer(0, [1, 1], [0.1, 0.2])
        assert state.live_positions(0) == [0]

    def test_set_layer_rejects_positions_outside_the_sequence_and_bad_layers(self):
        # [0, 40] on a 12-token state used to be accepted; the next step then
        # appended position 12 after 40, breaking the ascending order.
        state = make_state([0.5] * 12, list(range(12)), 12, 6)
        for positions in ([0, 40], [0, 12], [-1, 3]):
            with pytest.raises(UsageError, match=r"positions must lie in \[0, 12\)"):
                state.set_layer(0, positions, [0.1, 0.2])
        for layer in (-1, 1):
            with pytest.raises(UsageError, match=rf"layer {layer} outside \[0, 1\)"):
                state.set_layer(layer, [0], [0.1])
        assert state.live_positions(0) == list(range(12))

    def test_set_layer_replaces_a_populated_layer(self):
        # A layer that decoded with merges keeps nothing of what it held:
        # not its entries, its vectors or the positions merged into them.
        trace = synth_trace(3, 2, 64, [0.1, 0.5, 2.0], seed=11, with_kv=True)
        prefix = trace_prefix(trace, 32)
        profile = compute_importance(prefix)
        config = plan_online(priority_sequence(profile), BudgetSpec(r=0.4))
        used = prefill_compress(prefix, config, protect_distance=2, merge_policy="feature",
                                profile=profile)
        replay_steps(trace, used, 12)
        fresh = CacheState(config, profile, protect_distance=2, merge_policy="feature")
        fresh.current_len = used.current_len
        rng = np.random.default_rng(3)
        absorbing = 0
        for l in range(used.layers):
            entries = used.layer_caches[l]
            keep = [e.position for e in entries[::3]]
            absorbing += sum(bool(e.merged_from) for e in entries[::3])
            keys, values = rng.standard_normal((2, 2, len(keep), trace.keys.shape[3]))
            importance = rng.uniform(0.0, 1.0, len(keep))
            for state in (used, fresh):
                state.set_layer(l, keep, importance, keys, values)
        assert absorbing > 0

        def view(state):
            entries = [[(e.position, e.importance_acc, e.key.tobytes(), e.value.tobytes(),
                         e.merged_from) for e in state.layer_caches[l]]
                       for l in range(state.layers)]
            kv = [np.stack(state.live_kv(l)).tobytes() for l in range(state.layers)]
            return (entries, kv, [state.capacity(l) for l in range(state.layers)],
                    retained_info(state, profile).tolist())

        assert view(used) == view(fresh)
        logged = len(used.step_log)
        for state in (used, fresh):
            replay_steps(trace, state, 20)
        later = [{k: v for k, v in record.items() if k != "step"}
                 for record in used.step_log[logged:]]
        assert later == [{k: v for k, v in record.items() if k != "step"}
                         for record in fresh.step_log]
        assert any(event["merged_into"] is not None for record in later
                   for event in record["evicted"])
        assert view(used) == view(fresh)

    @pytest.mark.parametrize("arrays, message", [
        (([0, 1], [0.1]), "importance must have one value per position"),
        (([0], [0.1], np.ones((1, 1, 2))), "pass both keys and values, or neither"),
        (([0], [0.1], np.ones((1, 2, 2)), np.ones((1, 2, 2))),
         "keys and values must have shape (heads, positions, dim)"),
    ], ids=["importance", "keys-without-values", "keys-shape"])
    def test_set_layer_rejects_arrays_that_disagree(self, arrays, message):
        state = make_state([0.5, 0.4], [0, 1], 2, 2)
        with pytest.raises(UsageError, match=re.escape(message)):
            state.set_layer(0, *arrays)
        assert state.live_positions(0) == [0, 1]

    def test_feature_merge_step_requires_vectors(self):
        state = make_state([0.5, 0.4], [0, 1], 2, 2, merge_policy="feature")
        with pytest.raises(MismatchError, match="feature merging requires key vectors"):
            state.decode_step([np.full((1, 3), 1.0 / 3)])
        assert state.current_len == 2 and not state.step_log

    @pytest.mark.parametrize("protect", [1.5, True])
    def test_protect_distance_must_be_an_integer(self, protect):
        with pytest.raises(UsageError, match="protect_distance must be a positive count"):
            make_state([0.5], [0], 1, 1, protect=protect)

    @pytest.mark.parametrize("layer", [-1, 1])
    @pytest.mark.parametrize("accessor", ["capacity", "live_positions", "live_kv"])
    def test_layer_accessors_reject_layers_outside_the_cache(self, accessor, layer):
        state = make_state([0.5, 0.2], [0, 1], 2, 2, keys=np.ones((1, 2, 3)))
        with pytest.raises(UsageError, match=rf"layer {layer} outside \[0, 1\)"):
            getattr(state, accessor)(layer)
        assert [len(entries) for entries in state.layer_caches] == [2]

    def test_layer_entry_points_take_only_integer_indices(self):
        # True used to pass as layer 1, and 1.0 to reach numpy's indexing;
        # layer_caches[-1] used to give the last layer.
        state = full_cache_state(synth_trace(2, 1, 8, [1.0, 1.0], seed=0, with_kv=True))
        calls = [state.capacity, state.live_positions, state.live_kv,
                 lambda layer: state.set_layer(layer, [0], [0.1]),
                 lambda layer: state.layer_caches[layer]]
        for call in calls:
            for layer in (True, 1.0, -1, 2):
                message = rf"layer {layer!r} outside \[0, 2\)"
                with pytest.raises(UsageError, match=message) as caught:
                    call(layer)
                assert isinstance(caught.value, IndexError)
        assert [state.live_positions(l) for l in range(2)] == [list(range(8))] * 2
        assert len(state.layer_caches) == 2
        assert [[e.position for e in c] for c in state.layer_caches] == [list(range(8))] * 2

    def test_feature_merge_exact_tie_goes_to_lower_position(self):
        # Positions 0 and 5 hold bit-identical keys, so their cosine scores
        # against the evictee must tie exactly and the lower position wins.
        # Under position merging, 2 and 4 tie at distance 1 from the evictee.
        rng = np.random.default_rng(3)
        keys = rng.standard_normal((2, 7, 7))
        keys[:, 5] = keys[:, 0]
        keys[:, 3] = keys[:, 0] + 0.01 * rng.standard_normal((2, 7))
        new = rng.standard_normal((2, 7))
        for policy, winner in (("feature", 0), ("position", 2)):
            state = make_state([0.9, 0.8, 0.7, 0.05, 0.6, 0.5, 0.4], range(7), current_len=8,
                               capacity_n=7, merge_policy=policy, keys=keys)
            record = state.decode_step([np.full((2, 8), 1.0 / 8)], [(new, new)])
            assert record["evicted"] == [{"layer": 0, "pos": 3, "merged_into": winner}]
            entries = state.layer_caches[0]
            assert entries[state.live_positions(0).index(winner)].merged_from == [3]


def merge_step(state, new_key=None):
    """One decode step over uniform rows; ``new_key`` is the new token's key and value."""
    n = len(state.live_positions(0)) + 1
    kv = None if new_key is None else [(np.array(new_key), np.array(new_key))]
    return state.decode_step([np.full((1, n), 1.0 / n)], kv)["evicted"]


class TestMerge:
    """The kernel's merge step, each case one decode step that evicts the chosen entries.

    Capacity stays at ``capacity_n`` and ``protect=1`` shields only the
    new token, so the lowest-importance older entries go, in that order.
    """

    def test_feature_cosine_example(self):
        state = make_state([1.0, 1.0, 0.1], [1, 2, 5], current_len=6, capacity_n=3,
                           protect=1, merge_policy="feature",
                           keys=[[[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]]])
        assert merge_step(state, [[-1.0, 0.0]]) == [{"layer": 0, "pos": 5, "merged_into": 1}]
        keys, values = state.live_kv(0)
        assert np.allclose(keys[:, 0], [[0.95, 0.05]]) and np.allclose(values[:, 0], [[0.95, 0.05]])
        assert state.layer_caches[0][0].merged_from == [5]

    def test_position_distance_example(self):
        # The new token, position 10, is farther from 7 than 9 is.
        state = make_state([1.0, 0.1, 1.0], [2, 7, 9], current_len=10, capacity_n=3,
                           protect=1, merge_policy="position")
        assert merge_step(state) == [{"layer": 0, "pos": 7, "merged_into": 9}]
        assert state.live_positions(0) == [2, 9, 10]
        assert state.layer_caches[0][1].merged_from == [7]

    def test_single_retained_entry(self):
        # Evicting the only older entry leaves the new token as its one match.
        state = make_state([0.0], [3], current_len=4, capacity_n=1, protect=1,
                           merge_policy="feature", keys=[[[1.0, 1.0]]])
        assert merge_step(state, [[3.0, 1.0]]) == [{"layer": 0, "pos": 3, "merged_into": 4}]
        keys, values = state.live_kv(0)
        assert np.allclose(keys, [[[2.0, 1.0]]]) and np.allclose(values, [[[2.0, 1.0]]])
        assert state.layer_caches[0][0].merged_from == [3]

    def test_running_average_over_chain(self):
        # Absorbing 1 then 3 into 2 must yield the flat mean of all three
        # original vectors, not a mean of means.
        state = make_state([0.1, 1.0, 0.2], [1, 2, 3], current_len=6, capacity_n=2,
                           protect=1, merge_policy="position",
                           keys=[[[3.0, 0.0], [0.0, 0.0], [0.0, 6.0]]])
        assert merge_step(state, [[5.0, 5.0]]) == [
            {"layer": 0, "pos": 1, "merged_into": 2}, {"layer": 0, "pos": 3, "merged_into": 2}]
        keys, values = state.live_kv(0)
        assert np.allclose(keys[:, 0], [[1.0, 2.0]]) and np.allclose(values[:, 0], [[1.0, 2.0]])
        assert sorted(state.layer_caches[0][0].merged_from) == [1, 3]

    def test_absorbed_sets_transfer(self):
        # 3 merges into 2, then 2 goes with its absorbed 3 into 0: 2's
        # vector already averages two originals, so weights are 1 and 2.
        state = make_state([1.0, 0.2, 0.1], [0, 2, 3], current_len=6, capacity_n=2,
                           protect=1, merge_policy="position", keys=[[[2.0], [4.0], [10.0]]])
        assert merge_step(state, [[0.0]]) == [
            {"layer": 0, "pos": 3, "merged_into": 2}, {"layer": 0, "pos": 2, "merged_into": 0}]
        keys, values = state.live_kv(0)
        assert np.allclose(keys[:, 0], [[(2.0 + 4.0 + 10.0) / 3]])
        assert np.allclose(values[:, 0], [[(2.0 + 4.0 + 10.0) / 3]])
        assert sorted(state.layer_caches[0][0].merged_from) == [2, 3]

    def test_tie_breaks_to_lower_position(self):
        # 3 and 7 are both two positions from the evictee 5; the new token,
        # position 8, is three away, so the lower of the tied pair wins.
        state = make_state([1.0, 0.1, 1.0], [3, 5, 7], current_len=8, capacity_n=3,
                           protect=1, merge_policy="position")
        assert merge_step(state) == [{"layer": 0, "pos": 5, "merged_into": 3}]
        assert state.live_positions(0) == [3, 7, 8]
        assert state.layer_caches[0][0].merged_from == [5]


class TestRetainedInfo:
    def test_full_cache_is_one(self):
        trace = shortcut_trace([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
        state = full_cache_state(trace)
        assert np.allclose(retained_info(state, state.report_profile), [1.0, 1.0])

    def test_subset_sum(self):
        trace = shortcut_trace([[0.7, 0.2, 0.05, 0.05]])
        state = prefill_compress(trace, importance_config([2], 4, 0.5))
        assert retained_info(state, state.report_profile)[0] == pytest.approx(0.9)

    def test_single_floored_token(self):
        trace = shortcut_trace([[0.7, 0.2, 0.05, 0.05]])
        state = prefill_compress(trace, importance_config([1], 4, 0.25))
        assert retained_info(state, state.report_profile)[0] == pytest.approx(0.7)


    @pytest.mark.parametrize("layers, n", [(2, 30), (4, 30), (3, 20)])
    def test_profile_of_another_shape_is_a_mismatch(self, layers, n):
        # A 2-layer profile used to raise a bare IndexError; a 4-layer one,
        # or 20 positions against 30, silently gave three numbers.
        trace = synth_trace(3, 1, 30, [0.5, 1.0, 2.0], seed=3)
        state = full_cache_state(trace)
        other = compute_importance(synth_trace(layers, 1, n, [1.0] * layers, seed=4))
        message = rf"importance profile covers \(layers, positions\) \({layers}, {n}\)"
        with pytest.raises(MismatchError, match=message):
            retained_info(state, other)
        with pytest.raises(MismatchError, match=message):
            CacheState(state.config, other)


def test_per_layer_dominance_after_prefill():
    # Right after prefill, prefixkv's retained share in any layer trails
    # uniform's by at most that layer's largest single-token share.
    rng = np.random.default_rng(51)
    done = 0
    while done < 120:
        L = int(rng.integers(2, 8))
        N = int(rng.integers(16, 65))
        r = float(rng.choice([0.2, 0.3, 0.5, 0.7, 0.8]))
        if round(r * L * N) < L:
            continue
        conc = np.exp(rng.uniform(np.log(0.05), np.log(5.0), L))
        trace = synth_trace(L, 1, N, conc, seed=int(rng.integers(2**31)))
        profile = compute_importance(trace)
        seq = priority_sequence(profile)
        budget = BudgetSpec(r=r)
        ranked = prefill_compress(trace, plan_online(seq, budget))
        uniform = prefill_compress(trace, baseline_config("uniform", budget, trace.meta))
        info_ranked = retained_info(ranked, profile)
        info_uniform = retained_info(uniform, profile)
        for l in range(L):
            assert info_ranked[l] >= info_uniform[l] - profile.normalized[l].max() - 1e-12
        done += 1


class TestReplay:
    def _trace(self, seed=0, layers=3, n=48, kv=True):
        conc = list(np.geomspace(0.08, 4.0, layers))
        return synth_trace(layers, 2, n, conc, seed=seed, with_kv=kv)

    def test_capacity_and_protection_invariants(self):
        rng = np.random.default_rng(15)
        for trial in range(8):
            trace = self._trace(seed=trial, n=56)
            prefix = trace_prefix(trace, 40)
            seq = priority_sequence(compute_importance(prefix))
            r = float(rng.choice([0.3, 0.5, 0.7]))
            mp = str(rng.choice(["none", "position", "feature"]))
            config = plan_online(seq, BudgetSpec(r=r))
            state = prefill_compress(prefix, config, protect_distance=4, merge_policy=mp)
            replay_steps(trace, state, 16)
            for rec in state.step_log:
                t = 40 + rec["step"]
                newest = t - 1
                for l, size in enumerate(rec["layer_sizes"]):
                    assert size <= max(1, int(config.token_counts[l]) * t // 40) + 1
                for ev in rec["evicted"]:
                    evicted_at = 40 + rec["step"] - 1
                    assert evicted_at - ev["pos"] >= 4

    def test_bookkeeping_conservation(self):
        trace = self._trace(seed=9, n=56)
        prefix = trace_prefix(trace, 40)
        seq = priority_sequence(compute_importance(prefix))
        config = plan_online(seq, BudgetSpec(r=0.4))
        state = prefill_compress(prefix, config, protect_distance=4, merge_policy="feature")
        replay_steps(trace, state, 16)
        for l in range(trace.meta.layers):
            live = state.live_positions(l)
            absorbed = [p for e in state.layer_caches[l] for p in e.merged_from]
            assert len(absorbed) == len(set(absorbed))
            assert not (set(absorbed) & set(live))
            assert len(live) + len(absorbed) + len(state.hard_evicted[l]) == state.current_len

    def test_deterministic_logs(self):
        trace = self._trace(seed=4)
        config = plan_online(
            priority_sequence(compute_importance(trace_prefix(trace, 40))),
            BudgetSpec(r=0.5),
        )
        logs = []
        for _ in range(2):
            state = prefill_compress(trace_prefix(trace, 40), config, protect_distance=4,
                                     merge_policy="position")
            replay_steps(trace, state, 8)
            logs.append(state.step_log)
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("policy", ["prefixkv", "uniform", "pyramid", "local"])
    def test_merge_mode_changes_only_key_value_vectors(self, policy):
        # Replayed rows are read at live positions only, so merging moves
        # vectors but never what stays live, the accumulators or the log.
        trace = self._trace(seed=5, layers=4, n=60)
        prefix = trace_prefix(trace, 40)
        profile = compute_importance(prefix)
        for r in (0.1, 0.3, 0.5):
            budget = BudgetSpec(r=r)
            config = (plan_online(priority_sequence(profile), budget) if policy == "prefixkv"
                      else baseline_config(policy, budget, prefix.meta, sink_count=2))
            runs = []
            for mode in ("none", "position", "feature"):
                state = prefill_compress(prefix, config, protect_distance=4, merge_policy=mode,
                                         profile=profile)
                replay_steps(trace, state, 20)
                runs.append((
                    [state.live_positions(l) for l in range(4)],
                    [[e.importance_acc for e in state.layer_caches[l]] for l in range(4)],
                    [(rec["layer_sizes"], [ev["pos"] for ev in rec["evicted"]],
                      rec["retained_info"]) for rec in state.step_log],
                    retained_info(state, profile).tolist(),
                ))
                merged = [ev["merged_into"] for rec in state.step_log for ev in rec["evicted"]]
                assert any(q is not None for q in merged) == (mode != "none")
            assert runs[0] == runs[1] == runs[2]

    def test_too_short_trace_rejected(self):
        trace = self._trace(seed=1, n=48)
        config = plan_online(priority_sequence(compute_importance(trace)), BudgetSpec(r=0.5))
        state = prefill_compress(trace, config)
        with pytest.raises(MismatchError, match="decode steps"):
            replay_steps(trace, state, 1)

    def test_negative_steps_rejected(self):
        trace = self._trace(seed=1, n=48)
        state = prefill_compress(trace_prefix(trace, 40), plan_online(
            priority_sequence(compute_importance(trace_prefix(trace, 40))), BudgetSpec(r=0.5)))
        with pytest.raises(UsageError, match="steps must be nonnegative, got -1"):
            replay_steps(trace, state, -1)
        assert state.current_len == 40 and not state.step_log

    @pytest.mark.parametrize("steps", [1.0, True])
    def test_steps_must_be_an_integer(self, steps):
        # 1.0 used to fail inside range() with a TypeError, and True replayed a step.
        trace = self._trace(seed=1, n=48)
        prefix = trace_prefix(trace, 40)
        state = prefill_compress(prefix, plan_online(
            priority_sequence(compute_importance(prefix)), BudgetSpec(r=0.5)))
        with pytest.raises(UsageError, match=f"steps must be nonnegative, got {steps}"):
            replay_steps(trace, state, steps)
        assert state.current_len == 40 and not state.step_log

    @pytest.mark.parametrize("layers", [2, 4])
    def test_layer_count_mismatch_rejected(self, layers):
        # Fewer trace layers used to fail with an IndexError, more were
        # silently cut down to the cache's layers.
        trace = self._trace(seed=1, n=48)
        prefix = trace_prefix(trace, 40)
        state = prefill_compress(prefix, plan_online(
            priority_sequence(compute_importance(prefix)), BudgetSpec(r=0.5)))
        other = self._trace(seed=2, layers=layers, n=48)
        with pytest.raises(MismatchError, match=f"trace has {layers} layers, the cache has 3"):
            replay_steps(other, state, 1)
        assert state.current_len == 40 and not state.step_log

    def test_full_budget_replay_grows_key_value_storage(self):
        # A layer's key/value block starts with n0 // 4 + 8 free slots; at
        # r = 1.0 nothing is evicted, so more steps than that grow it.
        trace = self._trace(seed=3, n=80)
        prefix = trace_prefix(trace, 40)
        config = plan_online(priority_sequence(compute_importance(prefix)), BudgetSpec(r=1.0))
        state = prefill_compress(prefix, config)
        replay_steps(trace, state, 40)
        assert state.hard_evicted == [[]] * 3
        for l in range(3):
            live = state.live_positions(l)
            assert live == list(range(80))
            keys, values = state.live_kv(l)
            assert np.array_equal(keys, trace.keys[l][:, live])
            assert np.array_equal(values, trace.values[l][:, live])

    def test_position_merge_without_key_values(self):
        trace = self._trace(seed=5, n=56, kv=False)
        prefix = trace_prefix(trace, 40)
        config = plan_online(priority_sequence(compute_importance(prefix)), BudgetSpec(r=0.3))
        state = prefill_compress(prefix, config, protect_distance=2, merge_policy="position")
        replay_steps(trace, state, 16)
        events = [ev for record in state.step_log for ev in record["evicted"]]
        assert events and all(ev["merged_into"] is not None for ev in events)
        for l in range(3):
            entries = state.layer_caches[l]
            assert all(e.key is None and e.value is None for e in entries)
            merged = [p for e in entries for p in e.merged_from]
            assert sorted(state.live_positions(l) + merged + state.hard_evicted[l]) == \
                list(range(56))
            with pytest.raises(MismatchError, match="no key/value vectors"):
                state.live_kv(l)

    @pytest.mark.parametrize("mode", ["position", "feature"])
    def test_module_level_merge_sees_every_kernel_merge(self, monkeypatch, mode):
        # A benchmark times merging by replacing the module's global ``merge``.
        calls = []
        original = cachesim.merge

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(cachesim, "merge", counted)
        trace = self._trace(seed=9, n=56)
        prefix = trace_prefix(trace, 40)
        config = plan_online(priority_sequence(compute_importance(prefix)), BudgetSpec(r=0.3))
        state = prefill_compress(prefix, config, protect_distance=4, merge_policy=mode)
        replay_steps(trace, state, 16)
        merged = [ev["pos"] for rec in state.step_log for ev in rec["evicted"]
                  if ev["merged_into"] is not None]
        assert merged and calls == merged

    def test_row_without_mass_on_the_live_cache_rejected(self):
        # Prefill keeps position 1 only; row 3 puts all its mass on position 0.
        attention = np.array([[1.0, 0.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0, 0.0],
                              [1.0, 0.0, 0.0, 0.0]])
        trace = full_trace(attention)
        state = prefill_compress(trace_prefix(trace, 3), importance_config([1], 3, 1 / 3))
        assert state.live_positions(0) == [1]
        with pytest.raises(ValidationError, match="attention row 3 of layer 0 has no mass "
                                                  "on the live cache"):
            replay_steps(trace, state, 1)
        assert state.current_len == 3 and not state.step_log

    def test_importance_only_trace_has_no_rows_to_replay(self):
        state = prefill_compress(shortcut_trace([[0.5, 0.3, 0.2]]),
                                 importance_config([2], 3, 2 / 3))
        longer = shortcut_trace([[0.4, 0.3, 0.2, 0.1]])
        with pytest.raises(MismatchError, match="importance-only traces carry no rows"):
            replay_steps(longer, state, 1)
        replay_steps(longer, state, 0)
        assert state.current_len == 3 and not state.step_log


class TestDisturbance:
    def test_full_budget_has_exactly_zero_error(self):
        model = ToyModel(layers=4, heads=2, dim=32, seed=6)
        config = baseline_config(
            "uniform", BudgetSpec(r=1.0), TraceMeta_for(model, 24)
        )
        prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 24)
        trace = forward_trace(model, prompt)
        reference = decode(model, trace, 6, full_cache_state(trace))
        mae = disturbance(model, trace, reference, prefill_compress(trace, config))
        assert mae.shape == (4, 6)
        assert np.all(mae == 0.0)

    def test_error_nonnegative_and_positive_under_compression(self):
        model = ToyModel(layers=4, heads=2, dim=32, seed=6)
        prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 24)
        trace = forward_trace(model, prompt)
        seq = priority_sequence(compute_importance(trace))
        config = plan_online(seq, BudgetSpec(r=0.3))
        reference = decode(model, trace, 6, full_cache_state(trace))
        state = prefill_compress(trace, config, protect_distance=2)
        mae = disturbance(model, trace, reference, state)
        assert np.all(mae >= 0.0)
        assert mae.mean() > 0.0


def TraceMeta_for(model, n):
    from kvbudget import TraceMeta

    return TraceMeta(layers=model.layers, heads=model.heads, seq_len=n)
