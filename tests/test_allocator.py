import dataclasses
import inspect
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kvbudget import (
    BudgetError,
    BudgetSpec,
    CacheState,
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
    save_config,
    synth_trace,
    TraceMeta,
    UsageError,
    layer_stats,
)

from kvbudget.allocator import (OFFLINE_METHODS, _apportion, _resample_cumulative, _search,
                                config_from_dict, config_to_dict)
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


def unique_bracket_search(cumulative, r, delta_tol, max_steps):
    """The search as it stood with a sorted union of all cumulative values.

    It stops once at most one candidate lies strictly inside (p1, p2),
    evaluating that one if there is exactly one.
    """
    L, _ = cumulative.shape
    target = r * L
    if r == 1.0:
        return SearchResult(p=1.0, steps=0, delta_final=0.0, converged=True)
    candidates = np.unique(cumulative)
    evaluated = []

    def evaluate(p):
        delta = sum(scan_ratio_oracle(row, p) for row in cumulative) - target
        evaluated.append((abs(delta), 0 if delta < 0 else 1, len(evaluated), p, delta))
        return delta

    def done(p, delta):
        return SearchResult(p=p, steps=len(evaluated), delta_final=delta, converged=True)

    p1, p2 = 0.0, 1.0
    while len(evaluated) < max_steps:
        p = (p1 + p2) / 2.0
        delta = evaluate(p)
        if abs(delta) <= delta_tol:
            return done(p, delta)
        p1, p2 = (p, p2) if delta < 0.0 else (p1, p)
        lo = np.searchsorted(candidates, p1, side="right")
        hi = np.searchsorted(candidates, p2, side="left")
        if hi - lo <= 1:
            if hi - lo == 1 and len(evaluated) < max_steps:
                v = float(candidates[lo])
                delta_v = evaluate(v)
                if abs(delta_v) <= delta_tol:
                    return done(v, delta_v)
            break
    *_, p, delta = min(evaluated)
    return SearchResult(p=p, steps=len(evaluated), delta_final=delta, converged=False)


def global_prefix_oracle(cumulative, total, floor):
    """Full sort: the ``total`` cheapest tokens of every layer together.

    Token k of a layer costs the cumulative priority of the tokens before
    it (the first costs 0) and the first ``floor`` cost nothing; a stable
    sort of the row-major prices sends ties to the lower layer.
    """
    L, N = cumulative.shape
    prices = np.hstack([np.zeros((L, 1)), cumulative[:, :-1]])
    prices[:, :floor] = -np.inf
    chosen = np.argsort(prices, axis=None, kind="stable")[:total]
    return np.bincount(chosen // N, minlength=L)


def random_profile(rng, layers=(2, 8), tokens=(8, 64)):
    L = int(rng.integers(*layers))
    N = int(rng.integers(*tokens))
    conc = np.exp(rng.uniform(np.log(0.05), np.log(5.0), L))
    return compute_importance(synth_trace(L, 1, N, conc, seed=int(rng.integers(2**31))))


def random_seq(rng, layers=(2, 8), tokens=(8, 64)):
    return priority_sequence(random_profile(rng, layers, tokens))


def test_budget_holds_only_what_changes_a_plan():
    assert [field.name for field in dataclasses.fields(BudgetSpec)] == [
        "r", "min_tokens_per_layer"]
    with pytest.raises(TypeError):
        BudgetSpec(r=0.5, delta_tol=0.0)


def test_budget_ratio_is_stored_as_a_python_float(tmp_path, two_layer_seq):
    # A numpy float used to fail in json.dumps: "Object of type float32 is
    # not JSON serializable".
    config = plan_online(two_layer_seq, BudgetSpec(r=np.float32(0.5)))
    assert type(config.budget.r) is float
    save_config(config, tmp_path / "c.json")
    back = load_config(tmp_path / "c.json")
    assert back.budget == config.budget
    assert back.token_counts.tolist() == config.token_counts.tolist()


@pytest.mark.parametrize("r", [True, np.bool_(True), "0.5", None, float("nan")])
def test_budget_ratio_must_be_a_real_number(r):
    # True used to plan as r=1.0 and be written as `true`, which
    # load_config then refused.
    with pytest.raises(BudgetError, match="compression ratio must be a real number"):
        BudgetSpec(r=r)


@pytest.mark.parametrize("option", [{"delta_tol": 0.1}, {"max_steps": 4}],
                         ids=["delta_tol", "max_steps"])
def test_search_takes_only_a_sequence_and_a_budget(two_layer_seq, option):
    # How the search stops never changes a plan, so planning has no option
    # for it; studies of the search call _search.
    assert list(inspect.signature(binary_search).parameters) == ["seq", "budget"]
    with pytest.raises(TypeError):
        binary_search(two_layer_seq, BudgetSpec(r=0.5), **option)


@pytest.mark.parametrize("delta_tol", [float("nan"), float("inf"), -0.1])
def test_budget_rejects_non_finite_or_negative_tolerance(two_layer_seq, delta_tol):
    # The tolerance is DELTA_TOL, not an argument, so a bad one cannot reach the search.
    with pytest.raises(TypeError, match="delta_tol"):
        binary_search(two_layer_seq, BudgetSpec(r=0.5), delta_tol=delta_tol)


@pytest.mark.parametrize("field, value", [
    ("max_steps", 2.5), ("max_steps", True), ("max_steps", 0),
    ("min_tokens_per_layer", 1.5), ("min_tokens_per_layer", True), ("min_tokens_per_layer", -1),
])
def test_budget_counts_must_be_integers_in_range(two_layer_seq, field, value):
    # The layer floor is a BudgetSpec field; the step limit is MAX_STEPS, not an argument.
    if field == "max_steps":
        with pytest.raises(TypeError, match="max_steps"):
            binary_search(two_layer_seq, BudgetSpec(r=0.3), max_steps=value)
    else:
        with pytest.raises(BudgetError, match=f"{field} must be a"):
            BudgetSpec(r=0.3, **{field: value})


class TestBinarySearch:
    def test_reference_midpoint_trace(self, two_layer_seq):
        # Midpoints are forced: 0.5 (delta -0.25), 0.75 (+0.25), 0.625 (0).
        result = _search(two_layer_seq.cumulative, BudgetSpec(r=0.5), delta_tol=0.0)
        assert result.p == 0.625
        assert result.steps == 3
        assert result.delta_final == 0.0
        assert result.converged
        config = finalize_config(two_layer_seq, result, BudgetSpec(r=0.5))
        assert config.token_counts.tolist() == [1, 3]

    def test_full_budget_boundary(self, two_layer_seq):
        budget = BudgetSpec(r=1.0)
        result = binary_search(two_layer_seq, budget)
        assert result.p == 1.0
        assert result.delta_final == 0.0
        assert result.converged
        config = finalize_config(two_layer_seq, result, budget)
        assert config.token_counts.tolist() == [4, 4]

    def test_steps_decrease_with_tolerance(self):
        rng = np.random.default_rng(11)
        tols = [0.0125, 0.025, 0.05, 0.075, 0.1]
        totals = np.zeros(len(tols))
        for _ in range(15):
            seq = random_seq(rng, tokens=(48, 128))
            for i, tol in enumerate(tols):
                totals[i] += _search(seq.cumulative, BudgetSpec(r=0.5), delta_tol=tol).steps
        assert np.all(np.diff(totals) <= 0)

    def test_respects_max_steps(self, two_layer_seq):
        result = _search(two_layer_seq.cumulative, BudgetSpec(r=0.5), delta_tol=0.0, max_steps=1)
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
            result = binary_search(seq, BudgetSpec(r=r))
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
        result = _search(seq.cumulative, BudgetSpec(r=r), delta_tol=delta_tol, max_steps=max_steps)
        assert result == unique_bracket_search(seq.cumulative, r, delta_tol, max_steps)


class TestFinalize:
    def test_token_realization_example(self, two_layer_seq):
        budget = BudgetSpec(r=0.5)
        config = finalize_config(two_layer_seq, binary_search(two_layer_seq, budget), budget)
        assert config.token_counts.tolist() == [1, 3]
        assert config.token_counts.sum() == round(0.5 * 2 * 4)

    def test_scaling_skipped_when_exact(self):
        seq = seq_from_importance([[1.0] * 8, [1.0] * 8])
        budget = BudgetSpec(r=0.5)
        config = plan_online(seq, budget)
        assert config.token_counts.tolist() == [4, 4]

    def test_three_layer_scaling_example(self):
        # Quotas already on the 1.5 budget are kept as given and round to (4, 5, 6).
        from kvbudget.allocator import _realize

        budget = BudgetSpec(r=0.5)
        quotas = np.array([0.42, 0.53, 0.61]) * (1.5 / 1.56)
        config = _realize(quotas, budget, 10, policy="uniform", threshold=None)
        assert np.allclose(quotas, [0.404, 0.510, 0.587], atol=5e-4)
        assert config.token_counts.tolist() == [4, 5, 6]
        assert config.token_counts.sum() == 15

        # Exhaustive rounding oracle: the returned counts minimize the total
        # deviation from the quotas subject to the exact budget.
        def objective(counts):
            return sum(abs(c / 10 - q) for c, q in zip(counts, quotas))

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
            budget = BudgetSpec(r=r)
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
                    assert np.all(counts >= previous)
                previous = counts

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["ties", "zeros", "pareto"]),
        L=st.integers(1, 6),
        N=st.integers(2, 40),
        floor=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_are_the_exact_global_prefix(self, kind, L, N, floor, seed):
        # Over the budget grid the counts never shrink, equal a full-sort
        # order statistic and ignore where the search stopped.
        rng = np.random.default_rng(seed)
        if kind == "ties":
            raw = rng.integers(0, 3, (L, N)).astype(float)
        elif kind == "zeros":
            raw = rng.pareto(1.0, (L, N)) * (rng.random((L, N)) < 0.2)
        else:
            raw = rng.pareto(1.2, (L, N))
        raw[:, 0] += 1.0
        seq = seq_from_importance(raw)
        previous = np.zeros(L, dtype=np.int64)
        for r in np.round(np.arange(0.05, 1.0, 0.05), 2).tolist() + [1.0]:
            total = round(r * L * N)
            if total < L * floor:
                continue
            oracle = global_prefix_oracle(seq.cumulative, total, floor)
            budget = BudgetSpec(r=r, min_tokens_per_layer=floor)
            for delta_tol in (0.0, 0.025, 0.1):
                result = _search(seq.cumulative, budget, delta_tol=delta_tol)
                config = finalize_config(seq, result, budget)
                assert config.token_counts.tolist() == oracle.tolist()
            assert np.all(oracle >= previous)
            previous = oracle

    def test_counts_ignore_the_recorded_threshold(self):
        # p only places the window of prices the global prefix ranks, so the
        # empty prefix (p=0), the searched p and the full one (p=1) agree.
        rng = np.random.default_rng(404)
        checked = 0
        for _ in range(300):
            L, N, floor = int(rng.integers(1, 7)), int(rng.integers(1, 60)), int(rng.integers(2))
            seq = seq_from_importance(rng.pareto(1.2, (L, N)))
            for r in (0.1, 0.3, 0.5, 0.7, 0.9):
                budget = BudgetSpec(r=r, min_tokens_per_layer=floor)
                if round(r * L * N) < L * floor:
                    continue
                result = binary_search(seq, budget)
                counts = {tuple(finalize_config(seq, dataclasses.replace(result, p=p),
                                                budget).token_counts.tolist())
                          for p in (0.0, result.p, 1.0)}
                assert len(counts) == 1
                checked += 1
        assert checked > 1000

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
            budget = BudgetSpec(r=r)
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
        assert offline.samples == 3

    def test_methods_agree_on_identical_samples(self):
        seqs = self._samples(1) * 4
        budget = BudgetSpec(r=0.4)
        mean_cfg = estimate_offline(seqs, budget, method="per-sample-mean")
        pooled_cfg = estimate_offline(seqs, budget, method="pooled-curve")
        assert mean_cfg.token_counts.tolist() == pooled_cfg.token_counts.tolist()

    def test_single_vs_many_samples_stay_close(self):
        # Tolerance adopted from the worst observed per-layer deviation on
        # real traces (0.024), with margin.
        budget = BudgetSpec(r=0.5)
        one = estimate_offline(self._samples(1, N=128), budget)
        ten = estimate_offline(self._samples(10, N=128), budget)
        assert np.abs(one.token_counts - ten.token_counts).mean() / 128 <= 0.03

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
        assert config.token_counts.tolist() == [6, 4, 2]

    def test_pyramid_amplitude_clamps_to_budget(self):
        meta = TraceMeta(layers=2, heads=1, seq_len=20)
        config = baseline_config("pyramid", BudgetSpec(r=0.9), meta)
        assert config.token_counts.tolist() == [19, 17]

    def test_pyramid_single_layer_degenerates_to_uniform(self):
        meta = TraceMeta(layers=1, heads=1, seq_len=10)
        config = baseline_config("pyramid", BudgetSpec(r=0.3), meta)
        assert config.token_counts.tolist() == [3]

    def test_uniform(self):
        meta = TraceMeta(layers=5, heads=1, seq_len=10)
        config = baseline_config("uniform", BudgetSpec(r=0.3), meta)
        assert config.token_counts.tolist() == [3] * 5

    def test_local_records_sink_count(self):
        meta = TraceMeta(layers=2, heads=1, seq_len=10)
        config = baseline_config("local", BudgetSpec(r=0.5), meta, sink_count=2)
        assert config.policy == "local"
        assert config.sink_count == 2
        assert config.token_counts.tolist() == [5, 5]

    @pytest.mark.parametrize("sink", [True, 2.0])
    def test_local_sink_count_must_be_an_integer(self, sink):
        # True used to be written to the configuration as `true`, which
        # load_config then refused.
        meta = TraceMeta(layers=2, heads=1, seq_len=10)
        with pytest.raises(UsageError, match="nonnegative sink_count"):
            baseline_config("local", BudgetSpec(r=0.5), meta, sink_count=sink)

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
    budget = BudgetSpec(r=0.5)
    config = plan_online(two_layer_seq, budget)
    path = tmp_path / "config.json"
    save_config(config, path)
    back = load_config(path)
    assert back.token_counts.tolist() == config.token_counts.tolist()
    assert back.budget == config.budget
    assert back.threshold == config.threshold
    assert back.policy == config.policy


@settings(max_examples=80, deadline=None)
@given(
    L=st.integers(1, 6),
    N=st.integers(1, 40),
    extra=st.lists(st.integers(0, 8), min_size=1, max_size=3),
    r=st.floats(0.01, 1.0),
    floor=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_plan_loads_again(L, N, extra, r, floor, seed):
    # Every policy and both offline methods, on tie-heavy importance and
    # samples of mixed lengths (N is the shortest): what a plan writes
    # passes every check the configuration reader makes and reads back as
    # the same plan, whose decode capacity starts at its counts and grows
    # with the sequence.
    assume(round(r * L * N) >= L * floor)
    rng = np.random.default_rng(seed)
    seqs = []
    for n in [N + e for e in extra]:
        raw = rng.integers(0, 3, (L, n)).astype(float)
        raw[:, 0] += 1.0
        seqs.append(seq_from_importance(raw))
    budget = BudgetSpec(r=r, min_tokens_per_layer=floor)
    meta = seqs[0].meta
    configs = [plan_online(seqs[0], budget),
               *(baseline_config(kind, budget, meta, sink_count=2)
                 for kind in ("uniform", "pyramid", "local")),
               *(estimate_offline(seqs, budget, method=method) for method in OFFLINE_METHODS)]
    for config in configs:
        back = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert back.token_counts.tolist() == config.token_counts.tolist()
        assert (back.budget, back.seq_len, back.threshold) == (
            config.budget, config.seq_len, config.threshold)
        assert (back.policy, back.samples, back.sink_count) == (
            config.policy, config.samples, config.sink_count)
        state, n = CacheState(back), back.seq_len
        previous = [0] * L
        for t in range(n, 2 * n + 1):
            state.current_len = t
            capacities = [state.capacity(l) for l in range(L)]
            assert capacities == [max(floor, c * t // n) for c in back.token_counts.tolist()]
            assert all(c >= p for c, p in zip(capacities, previous))
            if t == n:
                assert capacities == back.token_counts.tolist()
            previous = capacities


@pytest.mark.parametrize("make", [
    lambda seq: plan_online(seq, BudgetSpec(r=0.5, min_tokens_per_layer=np.int64(1))),
    lambda seq: baseline_config("local", BudgetSpec(r=0.5), seq.meta, sink_count=np.int64(2)),
], ids=["floor", "sink-count"])
def test_numpy_integer_settings_are_written_as_integers(tmp_path, two_layer_seq, make):
    # Both used to fail in json.dumps: "Object of type int64 is not JSON serializable".
    config = make(two_layer_seq)
    save_config(config, tmp_path / "c.json")
    back = load_config(tmp_path / "c.json")
    assert (back.budget, back.sink_count) == (config.budget, config.sink_count)
    assert back.token_counts.tolist() == config.token_counts.tolist()


@pytest.mark.parametrize("field, value", [
    (("delta_final",), float("nan")),
    (("delta_final",), float("inf")),
    (("budget", "r"), float("nan")),
    (("budget", "r"), float("inf")),
    (("p",), float("nan")),
    (("p",), float("-inf")),
    (("seq_len",), True),
    (("token_counts", 0), True),
    (("budget", "min_tokens_per_layer"), False),
    (("steps",), True),
    (("seq_len",), "64"),
    (("token_counts", 0), 2.5),
    (("p",), "0.5"),
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


def _read(doc):
    """What config_from_dict makes of ``doc``: its document again, or its refusal."""
    try:
        return config_to_dict(config_from_dict(doc))
    except (ParseError, BudgetError) as exc:
        return type(exc), str(exc)


def test_a_null_field_reads_as_an_absent_one(two_layer_seq):
    # "seq_len": null used to end in a TypeError, and a null threshold field
    # on a prefixkv plan was accepted.
    budget = BudgetSpec(r=0.5)
    fields = ["budget", "seq_len", "token_counts", "policy", "samples", "sink_count",
              "p", "steps", "delta_final", "converged"]
    for config in (plan_online(two_layer_seq, budget),
                   estimate_offline([two_layer_seq] * 2, budget),
                   baseline_config("local", budget, two_layer_seq.meta, sink_count=1)):
        doc = config_to_dict(config)
        assert _read(doc) == doc
        for key in fields:
            absent = {k: v for k, v in doc.items() if k != key}
            assert _read({**absent, key: None}) == _read(absent), key
        for key in ("r", "min_tokens_per_layer"):
            absent = {k: v for k, v in doc["budget"].items() if k != key}
            assert (_read({**doc, "budget": {**absent, key: None}})
                    == _read({**doc, "budget": absent})), key


@pytest.mark.parametrize("call, message", [
    (lambda seq: estimate_offline([seq], BudgetSpec(r=0.5), method="median"),
     "unknown offline method 'median'"),
], ids=["offline-method"])
def test_planning_refuses_arguments_outside_its_domain(two_layer_seq, call, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        call(two_layer_seq)


def test_planning_never_builds_the_order_permutation():
    rng = np.random.default_rng(8)
    profiles = [random_profile(rng, layers=(3, 4), tokens=(24, 40)) for _ in range(2)]
    seqs = [priority_sequence(profile) for profile in profiles]
    budget = BudgetSpec(r=0.4)
    for seq in seqs:
        plan_online(seq, budget)
        layer_stats(seq)
    for method in ("per-sample-mean", "pooled-curve"):
        estimate_offline(seqs, budget, method=method)
    assert all("order" not in vars(profile) for profile in profiles)
    assert profiles[0].order.shape == seqs[0].cumulative.shape
    assert "order" in vars(profiles[0])


def test_planning_never_builds_the_normalized_shares():
    rng = np.random.default_rng(8)
    profiles = [random_profile(rng, layers=(3, 4), tokens=(24, 40)) for _ in range(2)]
    seqs = [priority_sequence(profile) for profile in profiles]
    budget = BudgetSpec(r=0.4)
    for seq in seqs:
        plan_online(seq, budget)
        layer_stats(seq)
    for method in ("per-sample-mean", "pooled-curve"):
        estimate_offline(seqs, budget, method=method)
    assert all("normalized" not in vars(profile) for profile in profiles)
    for profile in profiles:
        expected = profile.raw / profile.raw.sum(axis=1, keepdims=True)
        assert profile.normalized.tobytes() == expected.tobytes()
        assert "normalized" in vars(profile) and not profile.normalized.flags.writeable
