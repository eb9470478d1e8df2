import numpy as np
import pytest

from kvbudget import (
    BudgetSpec,
    CacheEntry,
    CacheState,
    MismatchError,
    ValidationError,
    baseline_config,
    compute_importance,
    decode,
    disturbance,
    forward_trace,
    full_cache_state,
    merge,
    plan_online,
    prefill_compress,
    priority_sequence,
    replay_decode,
    replay_steps,
    retained_info,
    synth_trace,
    trace_prefix,
    ToyModel,
)

from conftest import shortcut_trace


def importance_config(counts, n, r, policy="prefixkv", sink=None):
    """Hand-built configuration with explicit token counts."""
    from kvbudget import PrefixConfiguration

    counts = np.asarray(counts, dtype=np.int64)
    return PrefixConfiguration(
        budget=BudgetSpec(r=r),
        seq_len=n,
        ratios=counts / n,
        token_counts=counts,
        policy=policy,
        source="baseline",
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

    def test_feature_merge_requires_kv(self):
        trace = shortcut_trace([[1.0, 1.0, 1.0, 1.0]])
        with pytest.raises(MismatchError, match="key/value"):
            prefill_compress(trace, importance_config([2], 4, 0.5), merge_policy="feature")


def make_state(importances, positions, current_len, capacity_n, protect=2,
               policy="prefixkv", merge_policy="none", sink=None, keys=None):
    """State with one layer and hand-placed entries; ratio fixes capacity.

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
        with pytest.raises(ValidationError, match="row sum"):
            state.decode_step([np.array([[0.6, 0.6]])])

    def test_capacity_tracks_growing_length(self):
        trace = shortcut_trace([[1.0] * 10])
        config = importance_config([5], 10, 0.5)
        state = prefill_compress(trace, config, protect_distance=2)
        for step in range(8):
            self._step(state)
            t = state.current_len
            assert len(state.layer_caches[0]) <= max(1, int(0.5 * t)) + 1

    @pytest.mark.parametrize("bad", ["row sum", "shape"])
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
        broken = rows[:2] + [rows[2] * 1.5 if bad == "row sum" else rows[2][:, 1:]]
        with pytest.raises(ValidationError, match=bad):
            state.decode_step(broken, kv)
        assert snapshot() == before
        record = state.decode_step(rows, kv)
        assert any(ev["layer"] < 2 for ev in record["evicted"])

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

    def test_feature_merge_exact_tie_goes_to_lower_position(self):
        # Positions 0 and 5 hold bit-identical keys, so their cosine scores
        # against the evictee must tie exactly and the lower position wins.
        rng = np.random.default_rng(3)
        keys = rng.standard_normal((2, 7, 7))
        keys[:, 5] = keys[:, 0]
        keys[:, 3] = keys[:, 0] + 0.01 * rng.standard_normal((2, 7))
        state = make_state([0.9, 0.8, 0.7, 0.05, 0.6, 0.5, 0.4], range(7), current_len=8,
                           capacity_n=7, merge_policy="feature", keys=keys)
        new = rng.standard_normal((2, 7))
        record = state.decode_step([np.full((2, 8), 1.0 / 8)], [(new, new)])
        assert record["evicted"] == [{"layer": 0, "pos": 3, "merged_into": 0}]
        assert state.layer_caches[0][0].merged_from == [3]


class TestMerge:
    def test_feature_cosine_example(self):
        evictee = CacheEntry(position=5, importance_acc=0.1,
                             key=np.array([[0.9, 0.1]]), value=np.array([[0.9, 0.1]]))
        retained = [
            CacheEntry(position=1, importance_acc=1.0,
                       key=np.array([[1.0, 0.0]]), value=np.array([[1.0, 0.0]])),
            CacheEntry(position=2, importance_acc=1.0,
                       key=np.array([[0.0, 1.0]]), value=np.array([[0.0, 1.0]])),
        ]
        winner = merge("feature", evictee, retained)
        assert winner.position == 1
        assert np.allclose(winner.key, [[0.95, 0.05]])
        assert winner.merged_from == [5]

    def test_position_distance_example(self):
        evictee = CacheEntry(position=7, importance_acc=0.1)
        retained = [CacheEntry(position=2, importance_acc=1.0),
                    CacheEntry(position=9, importance_acc=1.0)]
        winner = merge("position", evictee, retained)
        assert winner.position == 9

    def test_single_retained_entry(self):
        evictee = CacheEntry(position=3, importance_acc=0.0,
                             key=np.array([[1.0, 1.0]]), value=np.array([[1.0, 1.0]]))
        only = CacheEntry(position=0, importance_acc=0.0,
                          key=np.array([[3.0, 1.0]]), value=np.array([[3.0, 1.0]]))
        winner = merge("feature", evictee, [only])
        assert winner is only
        assert np.allclose(winner.key, [[2.0, 1.0]])

    def test_running_average_over_chain(self):
        # Absorbing v1 then v2 must yield the flat mean of all three
        # original vectors, not a mean of means.
        base = CacheEntry(position=0, importance_acc=0.0,
                          key=np.array([[0.0, 0.0]]), value=np.array([[0.0, 0.0]]))
        v1 = CacheEntry(position=1, importance_acc=0.0,
                        key=np.array([[3.0, 0.0]]), value=np.array([[3.0, 0.0]]))
        v2 = CacheEntry(position=2, importance_acc=0.0,
                        key=np.array([[0.0, 6.0]]), value=np.array([[0.0, 6.0]]))
        merge("position", v1, [base])
        merge("position", v2, [base])
        assert np.allclose(base.key, [[1.0, 2.0]])
        assert sorted(base.merged_from) == [1, 2]

    def test_absorbed_sets_transfer(self):
        a = CacheEntry(position=0, importance_acc=0.0,
                       key=np.array([[2.0]]), value=np.array([[2.0]]))
        b = CacheEntry(position=1, importance_acc=0.0,
                       key=np.array([[4.0]]), value=np.array([[4.0]]),
                       merged_from=[7, 8])
        merge("position", b, [a])
        # b's key already averages three originals, so weights are 1 and 3.
        assert np.allclose(a.key, [[(2.0 + 3 * 4.0) / 4]])
        assert sorted(a.merged_from) == [1, 7, 8]

    def test_tie_breaks_to_lower_position(self):
        evictee = CacheEntry(position=5, importance_acc=0.0)
        retained = [CacheEntry(position=7, importance_acc=0.0),
                    CacheEntry(position=3, importance_acc=0.0)]
        assert merge("position", evictee, retained).position == 3

    def test_feature_requires_keys(self):
        evictee = CacheEntry(position=1, importance_acc=0.0)
        with pytest.raises(MismatchError, match="key vectors"):
            merge("feature", evictee, [CacheEntry(position=0, importance_acc=0.0)])

    def test_empty_retained_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            merge("position", CacheEntry(position=1, importance_acc=0.0), [])


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
        budget = BudgetSpec(r=r, delta_tol=0.0)
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
                    assert size <= max(1, int(config.ratios[l] * t)) + 1
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
        a = replay_decode(trace, config, 8, protect_distance=4, merge_policy="position")
        b = replay_decode(trace, config, 8, protect_distance=4, merge_policy="position")
        assert a.step_log == b.step_log

    def test_too_short_trace_rejected(self):
        trace = self._trace(seed=1, n=48)
        config = plan_online(priority_sequence(compute_importance(trace)), BudgetSpec(r=0.5))
        with pytest.raises(MismatchError, match="decode steps"):
            replay_decode(trace, config, 1)


class TestDisturbance:
    def test_full_budget_has_exactly_zero_error(self):
        model = ToyModel(layers=4, heads=2, dim=32, seed=6)
        config = baseline_config(
            "uniform", BudgetSpec(r=1.0), TraceMeta_for(model, 24)
        )
        prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 24)
        trace = forward_trace(model, prompt)
        reference = decode(model, trace, 6, full_cache_state(trace))
        report = disturbance(model, trace, reference, prefill_compress(trace, config))
        assert report.mae.shape == (4, 6)
        assert np.all(report.mae == 0.0)

    def test_error_nonnegative_and_positive_under_compression(self):
        model = ToyModel(layers=4, heads=2, dim=32, seed=6)
        prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 24)
        trace = forward_trace(model, prompt)
        seq = priority_sequence(compute_importance(trace))
        config = plan_online(seq, BudgetSpec(r=0.3))
        reference = decode(model, trace, 6, full_cache_state(trace, protect_distance=2))
        state = prefill_compress(trace, config, protect_distance=2)
        report = disturbance(model, trace, reference, state)
        assert np.all(report.mae >= 0.0)
        assert report.mae.mean() > 0.0
        assert report.per_layer_mae.shape == (4,)
        assert report.per_token_mae.shape == (6,)


def TraceMeta_for(model, n):
    from kvbudget import TraceMeta

    return TraceMeta(layers=model.layers, heads=model.heads, seq_len=n)
