import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvbudget import (
    BudgetError,
    BudgetSpec,
    ParseError,
    SearchResult,
    baseline_config,
    binary_search,
    compute_importance,
    estimate_offline,
    finalize_config,
    load_config,
    plan_online,
    priority_sequence,
    ratio_at_threshold,
    save_config,
    synth_trace,
    TraceMeta,
    layer_stats,
)

from kvbudget.allocator import _apportion, _ratios_at, _resample_cumulative
from conftest import seq_from_importance


def scan_ratio_oracle(cumulative, p):
    """Linear scan: smallest prefix whose cumulative priority reaches p."""
    if p <= 0:
        return 0.0
    n = len(cumulative)
    for j, value in enumerate(cumulative):
        if value >= p:
            return (j + 1) / n
    return 1.0


def scan_threshold_oracle(cumulative, r):
    """Best candidate threshold by exhaustive scan of cumulative values.

    Minimizes |delta|, preferring the under-budget side on ties, the same
    preference the search uses.
    """
    L = cumulative.shape[0]
    best = None
    for c in sorted(set(cumulative.ravel().tolist())):
        delta = sum(scan_ratio_oracle(cumulative[l], c) for l in range(L)) - r * L
        key = (abs(delta), 0 if delta < 0 else 1)
        if best is None or key < best[0]:
            best = (key, c)
    return best[1]


def unique_bracket_search(cumulative, budget):
    """The search as it stood with a sorted union of all cumulative values.

    It stops once at most one candidate lies strictly inside (p1, p2),
    evaluating that one if there is exactly one.
    """
    L, _ = cumulative.shape
    target = budget.r * L
    if budget.r == 1.0:
        return SearchResult(p=1.0, steps=0, delta_final=0.0, converged=True)
    candidates = np.unique(cumulative)
    evaluated = []

    def evaluate(p):
        delta = float(_ratios_at(cumulative, p).sum() - target)
        evaluated.append((abs(delta), 0 if delta < 0 else 1, len(evaluated), p, delta))
        return delta

    def done(p, delta):
        return SearchResult(p=p, steps=len(evaluated), delta_final=delta, converged=True)

    p1, p2 = 0.0, 1.0
    while len(evaluated) < budget.max_steps:
        p = (p1 + p2) / 2.0
        delta = evaluate(p)
        if abs(delta) <= budget.delta_tol:
            return done(p, delta)
        p1, p2 = (p, p2) if delta < 0.0 else (p1, p)
        lo = np.searchsorted(candidates, p1, side="right")
        hi = np.searchsorted(candidates, p2, side="left")
        if hi - lo <= 1:
            if hi - lo == 1 and len(evaluated) < budget.max_steps:
                v = float(candidates[lo])
                delta_v = evaluate(v)
                if abs(delta_v) <= budget.delta_tol:
                    return done(v, delta_v)
            break
    *_, p, delta = min(evaluated)
    return SearchResult(p=p, steps=len(evaluated), delta_final=delta, converged=False)


def random_seq(rng, layers=(2, 8), tokens=(8, 64)):
    L = int(rng.integers(*layers))
    N = int(rng.integers(*tokens))
    conc = np.exp(rng.uniform(np.log(0.05), np.log(5.0), L))
    trace = synth_trace(L, 1, N, conc, seed=int(rng.integers(2**31)))
    return priority_sequence(compute_importance(trace))


class TestRatioAtThreshold:
    def test_scan_example(self, two_layer_seq):
        assert ratio_at_threshold(two_layer_seq, 0, 0.7) == 0.25
        assert ratio_at_threshold(two_layer_seq, 0, 0.7) == scan_ratio_oracle(
            two_layer_seq.cumulative[0], 0.7
        )

    def test_zero_threshold_is_empty_prefix(self, two_layer_seq):
        assert ratio_at_threshold(two_layer_seq, 0, 0.0) == 0.0

    def test_full_threshold_needs_full_prefix(self, two_layer_seq):
        assert ratio_at_threshold(two_layer_seq, 0, 1.0) == 1.0

    def test_matches_oracle_on_random_inputs(self, two_layer_seq):
        rng = np.random.default_rng(4)
        for p in rng.uniform(0, 1, 50):
            for layer in (0, 1):
                assert ratio_at_threshold(two_layer_seq, layer, float(p)) == scan_ratio_oracle(
                    two_layer_seq.cumulative[layer], p
                )

    def test_layer_out_of_range(self, two_layer_seq):
        with pytest.raises(IndexError):
            ratio_at_threshold(two_layer_seq, 2, 0.5)


class TestBinarySearch:
    def test_reference_midpoint_trace(self, two_layer_seq):
        # Midpoints are forced: 0.5 (delta -0.25), 0.75 (+0.25), 0.625 (0).
        result = binary_search(two_layer_seq, BudgetSpec(r=0.5, delta_tol=0.0))
        assert result.p == 0.625
        assert result.steps == 3
        assert result.delta_final == 0.0
        assert result.converged
        config = finalize_config(two_layer_seq, result, BudgetSpec(r=0.5, delta_tol=0.0))
        assert config.ratios.tolist() == [0.25, 0.75]

    def test_full_budget_boundary(self, two_layer_seq):
        budget = BudgetSpec(r=1.0)
        result = binary_search(two_layer_seq, budget)
        assert result.p == 1.0
        assert result.delta_final == 0.0
        assert result.converged
        config = finalize_config(two_layer_seq, result, budget)
        assert config.ratios.tolist() == [1.0, 1.0]
        assert config.token_counts.tolist() == [4, 4]

    def test_steps_decrease_with_tolerance(self):
        rng = np.random.default_rng(11)
        tols = [0.0125, 0.025, 0.05, 0.075, 0.1]
        totals = np.zeros(len(tols))
        for _ in range(15):
            seq = random_seq(rng, tokens=(48, 128))
            for i, tol in enumerate(tols):
                totals[i] += binary_search(seq, BudgetSpec(r=0.5, delta_tol=tol)).steps
        assert np.all(np.diff(totals) <= 0)

    def test_respects_max_steps(self, two_layer_seq):
        result = binary_search(two_layer_seq, BudgetSpec(r=0.5, delta_tol=0.0, max_steps=1))
        assert result.steps == 1
        assert not result.converged

    def test_step_bound_property(self):
        # With a positive tolerance the search never wanders: it stays
        # within ceil(log2(L*N)) + 4 evaluations on this seeded family.
        rng = np.random.default_rng(3)
        for _ in range(150):
            seq = random_seq(rng, tokens=(32, 257))
            L, N = seq.cumulative.shape
            r = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
            if round(r * L * N) < L:
                continue
            result = binary_search(seq, BudgetSpec(r=r, delta_tol=0.025))
            assert result.steps <= math.ceil(math.log2(L * N)) + 4

    @settings(max_examples=150, deadline=None)
    @given(
        raw=st.integers(1, 5).flatmap(lambda L: st.integers(1, 24).flatmap(
            lambda N: st.lists(st.lists(st.integers(0, 4), min_size=N, max_size=N),
                               min_size=L, max_size=L))),
        r=st.floats(0.01, 1.0),
        delta_tol=st.sampled_from([0.0, 0.0, 1e-3, 0.025, 0.1]),
        max_steps=st.integers(1, 12),
    )
    def test_matches_unique_bracket_search(self, raw, r, delta_tol, max_steps):
        # Tie-heavy integer importance puts many equal cumulative values in
        # and across layers, where the per-layer bracket must still agree
        # with the search over the sorted union of all values.
        raw = np.asarray(raw, dtype=float)
        raw[:, 0] += 1.0
        seq = seq_from_importance(raw)
        budget = BudgetSpec(r=r, delta_tol=delta_tol, max_steps=max_steps)
        assert binary_search(seq, budget) == unique_bracket_search(seq.cumulative, budget)


class TestFinalize:
    def test_token_realization_example(self, two_layer_seq):
        budget = BudgetSpec(r=0.5, delta_tol=0.0)
        config = finalize_config(two_layer_seq, binary_search(two_layer_seq, budget), budget)
        assert config.token_counts.tolist() == [1, 3]
        assert config.token_counts.sum() == round(0.5 * 2 * 4)

    def test_scaling_skipped_when_exact(self):
        seq = seq_from_importance([[1.0] * 8, [1.0] * 8])
        budget = BudgetSpec(r=0.5)
        config = plan_online(seq, budget)
        assert config.ratios.tolist() == [0.5, 0.5]

    def test_three_layer_scaling_example(self):
        # Raw ratios (0.42, 0.53, 0.61) scale by 1.5/1.56 and round to (4, 5, 6).
        from kvbudget.allocator import _realize

        budget = BudgetSpec(r=0.5)
        raw = np.array([0.42, 0.53, 0.61])
        config = _realize(raw, budget, 10, policy="prefixkv", source="online", threshold=None)
        assert np.allclose(config.ratios, [0.404, 0.510, 0.587], atol=5e-4)
        assert config.token_counts.tolist() == [4, 5, 6]
        assert config.token_counts.sum() == 15

        # Exhaustive rounding oracle: the returned counts minimize the total
        # deviation from the scaled ratios subject to the exact budget.
        def objective(counts):
            return sum(abs(c / 10 - q) for c, q in zip(counts, config.ratios))

        best = min(
            objective(c)
            for c in itertools.product(range(1, 11), repeat=3)
            if sum(c) == 15
        )
        assert objective(config.token_counts) == pytest.approx(best, abs=1e-12)

    def test_infeasible_budget(self):
        seq = seq_from_importance([[1.0] * 10] * 3)
        with pytest.raises(BudgetError, match="cannot cover"):
            plan_online(seq, BudgetSpec(r=0.001))

    def test_budget_exactness_over_random_instances(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 120:
            seq = random_seq(rng)
            L, N = seq.cumulative.shape
            for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                if round(r * L * N) < L:
                    continue
                config = plan_online(seq, BudgetSpec(r=r))
                assert config.token_counts.sum() == round(r * L * N)
                assert np.all(config.token_counts >= 1)
                assert np.all(config.token_counts <= N)
                checked += 1

    def test_threshold_feasibility(self):
        # Each layer retains cumulative priority >= p minus at most one
        # token's worth of importance.
        rng = np.random.default_rng(777)
        done = 0
        while done < 100:
            seq = random_seq(rng, tokens=(8, 97))
            L, N = seq.cumulative.shape
            r = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
            if round(r * L * N) < L:
                continue
            budget = BudgetSpec(r=r, delta_tol=0.0)
            result = binary_search(seq, budget)
            config = finalize_config(seq, result, budget)
            done += 1
            increments = np.diff(
                np.concatenate([np.zeros((L, 1)), seq.cumulative], axis=1), axis=1
            )
            for l in range(L):
                count = int(config.token_counts[l])
                retained = seq.cumulative[l][count - 1] if count else 0.0
                assert retained >= result.p - increments[l].max() - 1e-12

    def test_counts_monotone_in_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            seq = random_seq(rng)
            L, N = seq.cumulative.shape
            previous = None
            for r in (0.2, 0.4, 0.6, 0.8):
                if round(r * L * N) < L:
                    continue
                counts = plan_online(seq, BudgetSpec(r=r)).token_counts
                if previous is not None:
                    assert np.all(counts >= previous - 1)
                previous = counts

    def test_matches_threshold_scan_on_small_instances(self):
        rng = np.random.default_rng(20240809)
        done = 0
        while done < 150:
            L = int(rng.integers(1, 4))
            N = int(rng.integers(2, 9))
            r = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
            if round(r * L * N) < L:
                continue
            raw = rng.uniform(0.05, 1.0, size=(L, N))
            seq = seq_from_importance(raw)
            budget = BudgetSpec(r=r, delta_tol=0.0)
            config = plan_online(seq, budget)
            p_star = scan_threshold_oracle(seq.cumulative, r)
            reference = finalize_config(
                seq, SearchResult(p=p_star, steps=0, delta_final=0.0, converged=True), budget
            )
            assert config.token_counts.tolist() == reference.token_counts.tolist()
            done += 1


class TestApportion:
    """Largest-remainder rounding: floor, then move one token per layer per pass."""

    def test_hands_out_to_largest_remainders(self):
        assert _apportion(np.array([1.2, 2.7, 0.5]), 5, 0, 10).tolist() == [1, 3, 1]
        assert _apportion(np.array([1.2, 2.7, 0.5]), 6, 0, 10).tolist() == [2, 3, 1]

    def test_withdraws_from_smallest_remainders_above_lower(self):
        # Layers 0 and 2 sit at the lower bound, so only layer 1 can give.
        assert _apportion(np.array([0.5, 3.9, 2.1]), 6, 2, 10).tolist() == [2, 2, 2]

    def test_ties_go_to_lower_layer(self):
        assert _apportion(np.array([1.5, 1.5]), 3, 0, 5).tolist() == [2, 1]
        assert _apportion(np.array([3.5, 3.5]), 5, 0, 3).tolist() == [2, 3]

    def test_multi_pass_up_and_down(self):
        assert _apportion(np.zeros(3), 7, 0, 5).tolist() == [3, 2, 2]
        assert _apportion(np.array([0.0, 0.9, 0.0]), 10, 0, 4).tolist() == [3, 4, 3]
        assert _apportion(np.full(3, 9.0), 5, 1, 4).tolist() == [1, 2, 2]

    def test_bounds_and_total_hold_on_random_quotas(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            L = int(rng.integers(1, 7))
            lower = int(rng.integers(0, 3))
            upper = lower + int(rng.integers(0, 6))
            quotas = rng.uniform(-2.0, upper + 3.0, size=L)
            total = int(rng.integers(L * lower, L * upper + 1))
            counts = _apportion(quotas, total, lower, upper)
            assert counts.sum() == total
            assert counts.min() >= lower and counts.max() <= upper

    def test_infeasible_total(self):
        with pytest.raises(BudgetError, match="cannot place 10 tokens"):
            _apportion(np.ones(2), 10, 0, 3)
        with pytest.raises(BudgetError, match="cannot place 1 tokens"):
            _apportion(np.full(2, 2.0), 1, 1, 4)


def test_resample_cumulative_steps_onto_grid():
    cumulative = np.array([[0.5, 0.8, 1.0], [0.2, 0.6, 1.0]])
    assert _resample_cumulative(cumulative, 3).tolist() == cumulative.tolist()
    assert _resample_cumulative(cumulative, 6).tolist() == [
        [0.0, 0.5, 0.5, 0.8, 0.8, 1.0], [0.0, 0.2, 0.2, 0.6, 0.6, 1.0]]
    assert _resample_cumulative(cumulative, 2).tolist() == [[0.5, 1.0], [0.2, 1.0]]


class TestOffline:
    def _samples(self, n, seed0=5000, L=4, N=32):
        conc = list(np.geomspace(0.1, 3.0, L))
        return [
            priority_sequence(compute_importance(synth_trace(L, 1, N, conc, seed=seed0 + i)))
            for i in range(n)
        ]

    def test_identical_samples_reduce_to_online(self):
        seqs = self._samples(1) * 3
        budget = BudgetSpec(r=0.5)
        offline = estimate_offline(seqs, budget)
        online = plan_online(seqs[0], budget)
        assert offline.token_counts.tolist() == online.token_counts.tolist()
        assert np.allclose(offline.ratios, online.ratios, atol=1e-12)
        assert offline.source == "offline"
        assert offline.samples == 3

    def test_methods_agree_on_identical_samples(self):
        seqs = self._samples(1) * 4
        budget = BudgetSpec(r=0.4)
        mean_cfg = estimate_offline(seqs, budget, method="per-sample-mean")
        pooled_cfg = estimate_offline(seqs, budget, method="pooled-curve")
        assert mean_cfg.token_counts.tolist() == pooled_cfg.token_counts.tolist()
        assert np.allclose(mean_cfg.ratios, pooled_cfg.ratios, atol=1e-9)

    def test_single_vs_many_samples_stay_close(self):
        # Tolerance adopted from the worst observed per-layer deviation on
        # real traces (0.024), with margin.
        budget = BudgetSpec(r=0.5)
        one = estimate_offline(self._samples(1, N=128), budget)
        ten = estimate_offline(self._samples(10, N=128), budget)
        assert np.abs(one.ratios - ten.ratios).mean() <= 0.03

    def test_pooled_curve_resamples_mixed_lengths(self):
        seqs = self._samples(2, N=16) + self._samples(2, seed0=6000, N=32)
        config = estimate_offline(seqs, BudgetSpec(r=0.5), method="pooled-curve")
        assert config.seq_len == 32
        assert config.token_counts.sum() == round(0.5 * 4 * 32)

    def test_per_sample_mean_handles_mixed_lengths(self):
        seqs = self._samples(2, N=16) + self._samples(2, seed0=6000, N=32)
        config = estimate_offline(seqs, BudgetSpec(r=0.5))
        assert config.seq_len == 32
        assert config.token_counts.sum() == round(0.5 * 4 * 32)
        assert config.samples == 4

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError, match="at least one"):
            estimate_offline([], BudgetSpec(r=0.5))
        samples = self._samples(1, L=2) + self._samples(1, L=3)
        from kvbudget import MismatchError

        with pytest.raises(MismatchError, match="layer count"):
            estimate_offline(samples, BudgetSpec(r=0.5))


class TestBaselines:
    def test_pyramid_ramp(self):
        meta = TraceMeta(layers=3, heads=1, seq_len=8)
        config = baseline_config("pyramid", BudgetSpec(r=0.5), meta)
        assert config.ratios.tolist() == [0.75, 0.5, 0.25]

    def test_pyramid_amplitude_clamps_to_budget(self):
        meta = TraceMeta(layers=2, heads=1, seq_len=20)
        config = baseline_config("pyramid", BudgetSpec(r=0.9), meta)
        assert np.allclose(config.ratios, [0.95, 0.85])

    def test_pyramid_single_layer_degenerates_to_uniform(self):
        meta = TraceMeta(layers=1, heads=1, seq_len=10)
        config = baseline_config("pyramid", BudgetSpec(r=0.3), meta)
        assert config.ratios.tolist() == [0.3]

    def test_uniform(self):
        meta = TraceMeta(layers=5, heads=1, seq_len=10)
        config = baseline_config("uniform", BudgetSpec(r=0.3), meta)
        assert config.ratios.tolist() == [0.3] * 5
        assert config.token_counts.sum() == 15

    def test_local_records_sink_count(self):
        meta = TraceMeta(layers=2, heads=1, seq_len=10)
        config = baseline_config("local", BudgetSpec(r=0.5), meta, sink_count=2)
        assert config.policy == "local"
        assert config.sink_count == 2
        assert config.ratios.tolist() == [0.5, 0.5]

    def test_invalid_kind(self):
        meta = TraceMeta(layers=2, heads=1, seq_len=10)
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_config("h2o", BudgetSpec(r=0.5), meta)

    def test_pyramid_budget_exact_across_sizes(self):
        for L in (2, 3, 5, 8):
            for r in (0.1, 0.5, 0.9):
                meta = TraceMeta(layers=L, heads=1, seq_len=16)
                config = baseline_config("pyramid", BudgetSpec(r=r), meta)
                assert config.token_counts.sum() == round(r * L * 16)


def test_config_round_trip(tmp_path, two_layer_seq):
    budget = BudgetSpec(r=0.5, delta_tol=0.0)
    config = plan_online(two_layer_seq, budget)
    path = tmp_path / "config.json"
    save_config(config, path)
    back = load_config(path)
    assert back.token_counts.tolist() == config.token_counts.tolist()
    assert back.ratios.tolist() == config.ratios.tolist()
    assert back.budget == config.budget
    assert back.threshold == config.threshold
    assert back.policy == config.policy


@pytest.mark.parametrize("field, value", [
    (("ratios", 0), float("nan")),
    (("ratios", 1), float("inf")),
    (("budget", "r"), float("nan")),
    (("budget", "r"), float("inf")),
    (("p",), float("nan")),
    (("p",), float("-inf")),
    (("seq_len",), True),
    (("token_counts", 0), True),
    (("budget", "max_steps"), False),
    (("steps",), True),
    (("seq_len",), "64"),
    (("token_counts", 0), 2.5),
    (("ratios", 0), "0.5"),
])
def test_config_rejects_non_finite_and_mistyped_numbers(tmp_path, two_layer_seq, field, value):
    path = tmp_path / "config.json"
    save_config(plan_online(two_layer_seq, BudgetSpec(r=0.5)), path)
    doc = json.loads(path.read_text())
    *parents, last = field
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="must be (finite|a number|an integer)"):
        load_config(path)


def test_planning_never_builds_the_order_permutation():
    rng = np.random.default_rng(8)
    seqs = [random_seq(rng, layers=(3, 4), tokens=(24, 40)) for _ in range(2)]
    budget = BudgetSpec(r=0.4)
    for seq in seqs:
        plan_online(seq, budget)
        layer_stats(seq)
    for method in ("per-sample-mean", "pooled-curve"):
        estimate_offline(seqs, budget, method=method)
    assert all("order" not in vars(seq) for seq in seqs)
    assert seqs[0].order.shape == seqs[0].cumulative.shape
    assert "order" in vars(seqs[0])
