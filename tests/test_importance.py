import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kvbudget import (
    AttentionTrace,
    DegenerateLayerError,
    TraceMeta,
    compute_importance,
    layer_stats,
    priority_sequence,
)

from conftest import full_trace, shortcut_trace


def column_sum_oracle(attention):
    """Independent recomputation: explicit loops over heads, rows, columns."""
    L, H, N, _ = attention.shape
    raw = np.zeros((L, N))
    for l in range(L):
        for n in range(N):
            total = 0.0
            for h in range(H):
                for m in range(N):
                    total += attention[l, h, m, n]
            raw[l, n] = total / H
    return raw


def sort_oracle(values):
    """Brute-force priority order: descending value, ascending index on ties."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


class TestComputeImportance:
    def test_hand_example(self):
        trace = full_trace([[1.0, 0.0], [0.6, 0.4]])
        profile = compute_importance(trace)
        assert np.allclose(profile.raw, [[1.6, 0.4]])
        assert np.allclose(profile.normalized, [[0.8, 0.2]])
        assert np.array_equal(profile.raw, column_sum_oracle(trace.attention))

    def test_single_token(self):
        profile = compute_importance(full_trace([[1.0]]))
        assert profile.raw.tolist() == [[1.0]]
        assert profile.normalized.tolist() == [[1.0]]

    def test_identical_heads_average_to_one_head(self):
        att = np.array([[1.0, 0.0], [0.6, 0.4]])
        one = compute_importance(full_trace(att))
        two = compute_importance(full_trace(np.stack([att, att])[None]))
        assert np.array_equal(one.raw, two.raw)

    def test_raw_mass_equals_row_count(self):
        # Each of N rows contributes total mass 1, averaged over heads.
        trace = full_trace(np.array([[1, 0, 0], [0.5, 0.5, 0], [0.2, 0.3, 0.5]]))
        assert abs(compute_importance(trace).raw.sum() - 3.0) < 1e-6

    def test_degenerate_layer_raises(self):
        with pytest.raises(DegenerateLayerError, match="layer 1"):
            compute_importance(shortcut_trace([[1.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_total_raises(self, bad):
        # An unvalidated trace can still carry a NaN or an infinity.
        raw = np.array([[1.0, 2.0], [3.0, bad]])
        trace = AttentionTrace(meta=TraceMeta(layers=2, heads=1, seq_len=2), importance=raw)
        with pytest.raises(DegenerateLayerError, match="layer 1 has non-finite"):
            compute_importance(trace)

    def test_shortcut_copies_raw(self):
        profile = compute_importance(shortcut_trace([[3.0, 1.0]]))
        assert profile.raw.tolist() == [[3.0, 1.0]]
        assert np.allclose(profile.normalized, [[0.75, 0.25]])


class TestPrioritySequence:
    def test_hand_example(self):
        profile = compute_importance(shortcut_trace([[0.2, 0.7, 0.05, 0.05]]))
        assert profile.order[0].tolist() == [1, 0, 2, 3]
        assert np.allclose(priority_sequence(profile).cumulative[0], [0.7, 0.9, 0.95, 1.0])
        assert profile.order[0].tolist() == sort_oracle([0.2, 0.7, 0.05, 0.05])

    def test_uniform_tie_break(self):
        profile = compute_importance(shortcut_trace([[1.0] * 4]))
        assert profile.order[0].tolist() == [0, 1, 2, 3]
        assert np.allclose(priority_sequence(profile).cumulative[0], [0.25, 0.5, 0.75, 1.0])

    def test_single_token(self):
        profile = compute_importance(shortcut_trace([[5.0]]))
        assert profile.order[0].tolist() == [0]
        assert np.allclose(priority_sequence(profile).cumulative[0], [1.0])

    @settings(max_examples=60, deadline=None)
    @given(
        raw=arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 16)),
            elements=st.floats(0.001, 100.0),
        )
    )
    def test_permutation_and_conservation(self, raw):
        profile = compute_importance(shortcut_trace(raw))
        seq = priority_sequence(profile)
        L, N = raw.shape
        for l in range(L):
            assert sorted(profile.order[l].tolist()) == list(range(N))
            ranked = profile.normalized[l][profile.order[l]]
            assert np.all(np.diff(ranked) <= 0)
            assert abs(seq.cumulative[l][-1] - 1.0) < 1e-9
            assert np.all(np.diff(seq.cumulative[l]) >= -1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        raw=arrays(np.float64, st.tuples(st.just(1), st.integers(1, 12)),
                   elements=st.floats(0.01, 10.0)),
        scale=st.sampled_from([0.5, 2.0, 3.7, 1000.0]),
    )
    def test_scale_invariance(self, raw, scale):
        base = compute_importance(shortcut_trace(raw))
        scaled = compute_importance(shortcut_trace(raw * scale))
        assert np.array_equal(base.order, scaled.order)
        assert np.allclose(priority_sequence(base).cumulative,
                           priority_sequence(scaled).cumulative, atol=1e-12, rtol=0)

    @settings(max_examples=100, deadline=None)
    @given(
        raw=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 40)),
            elements=st.integers(0, 3).map(float),
        )
    )
    def test_cumulative_matches_stable_argsort_gather(self, raw):
        # Few distinct values make ties the rule; the value sort must give
        # the same bits as summing along the order, and the order must be
        # the per-layer (value, then position) lexicographic ranking.
        raw[:, 0] += 1.0
        profile = compute_importance(shortcut_trace(raw))
        normalized = profile.normalized
        order = np.stack([np.lexsort((np.arange(len(row)), -row)) for row in normalized])
        expected = np.cumsum(np.take_along_axis(normalized, order, axis=1), axis=1)
        assert np.array_equal(priority_sequence(profile).cumulative, expected)
        assert np.array_equal(profile.order, order)
        assert not profile.order.flags.writeable


class TestSharedReadOnlyArrays:
    def test_shortcut_raw_is_a_read_only_view_of_the_trace(self):
        trace = shortcut_trace([[3.0, 1.0], [2.0, 2.0]])
        profile = compute_importance(trace)
        assert np.shares_memory(profile.raw, trace.importance)
        assert trace.importance.flags.writeable
        for array in (profile.raw, profile.normalized):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0

    def test_full_form_profile_is_read_only(self):
        profile = compute_importance(full_trace([[1.0, 0.0], [0.6, 0.4]]))
        assert not profile.raw.flags.writeable and not profile.normalized.flags.writeable

    def test_cumulative_is_read_only(self):
        seq = priority_sequence(compute_importance(shortcut_trace([[3.0, 1.0, 2.0]])))
        with pytest.raises(ValueError, match="read-only"):
            seq.cumulative[0, 0] = 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        raw=st.tuples(st.integers(1, 5), st.integers(1, 50)).flatmap(lambda shape: st.one_of(
            arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.0, 0.0, 0.5, 3.0])),
            arrays(np.float64, shape, elements=st.integers(0, 2).map(float)),
            arrays(np.float64, shape, elements=st.floats(0.0, 1e6)),
            arrays(np.float64, shape, elements=st.floats(0.0, 1e-300)),
        ))
    )
    def test_cumulative_bytes_match_the_descending_sort_formula(self, raw):
        # Zero-heavy, tie-heavy and subnormal rows: dividing raw by the
        # negated totals, sorting and accumulating in place must give the
        # bytes of summing the descending sort of the normalized shares.
        raw[:, 0] += 1.0
        profile = compute_importance(shortcut_trace(raw))
        expected = np.cumsum(np.sort(profile.normalized, axis=1)[:, ::-1], axis=1)
        assert priority_sequence(profile).cumulative.tobytes() == expected.tobytes()


def test_planning_pass_holds_one_layer_by_position_buffer():
    # The cumulative matrix is the only L*N array the pass allocates; the
    # shares are never materialized and layer_stats works in blocks of
    # about 2**18 values, far below this 16 MB trace.
    L, N = 64, 32768
    raw = np.random.default_rng(3).gamma(0.5, size=(L, N))
    trace = AttentionTrace(meta=TraceMeta(layers=L, heads=1, seq_len=N), importance=raw)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        layer_stats(priority_sequence(compute_importance(trace)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * L * N * 8
