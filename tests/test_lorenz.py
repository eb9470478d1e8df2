from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kvbudget import PrioritySequence, layer_stats, lorenz

from conftest import seq_from_importance


def stats_of(importance):
    """Layer 0's ``layer_stats`` entry for the priority sequence of ``importance``."""
    return layer_stats(seq_from_importance(importance))[0]


def trapezoid_oracle(x, y):
    """Independent area-between computation from first principles."""
    xs = [0.0] + list(x)
    ys = [0.0] + list(y)
    under = sum((xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) / 2 for i in range(len(x)))
    return 2.0 * (under - 0.5)


class TestCurve:
    def test_reindexing_example(self):
        curve = stats_of([[0.7, 0.2, 0.05, 0.05]]).curve
        assert curve.x.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert np.allclose(curve.y, [0.7, 0.9, 0.95, 1.0])

    def test_uniform_is_diagonal(self):
        curve = stats_of([[1.0] * 4]).curve
        assert np.allclose(curve.y, curve.x)

    def test_single_point(self):
        curve = stats_of([[2.0]]).curve
        assert curve.x.tolist() == [1.0]
        assert np.allclose(curve.y, [1.0])


class TestGini:
    def test_uniform_zero(self):
        assert stats_of([[1.0] * 8]).gini == pytest.approx(0.0, abs=1e-9)

    def test_one_hot_upper_bound(self):
        assert stats_of([[1.0, 0.0, 0.0, 0.0]]).gini == pytest.approx(0.75, abs=1e-9)

    def test_reference_curve_value(self):
        stats = stats_of([[0.7, 0.2, 0.05, 0.05]])
        assert stats.gini == pytest.approx(0.525, abs=1e-12)
        assert stats.gini == pytest.approx(trapezoid_oracle(stats.curve.x, stats.curve.y),
                                           abs=1e-12)

    def test_bounds_over_random_profiles(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            raw = rng.uniform(0.0, 1.0, size=(1, n)) + 1e-9
            g = stats_of(raw).gini
            assert 0.0 <= g <= (n - 1) / n + 1e-9

    def test_majorization_monotonicity(self):
        # Mixing any profile toward uniform is majorized by the original,
        # so its Gini cannot exceed the original's.
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            raw = np.sort(rng.uniform(0.0, 1.0, size=n) + 1e-6)[::-1]
            raw /= raw.sum()
            for t in (0.25, 0.5, 0.75):
                mixed = t * raw + (1 - t) * np.full(n, 1.0 / n)
                g_orig = stats_of(raw[None]).gini
                g_mixed = stats_of(mixed[None]).gini
                assert g_mixed <= g_orig + 1e-12


def test_layer_stats_covers_all_layers():
    seq = seq_from_importance([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
    stats = layer_stats(seq)
    assert [s.layer for s in stats] == [0, 1]
    assert stats[1].gini == pytest.approx(0.0, abs=1e-9)
    assert stats[0].gini > stats[1].gini


def parent_layer_stats(seq):
    """Per-layer curves and Ginis as computed one layer at a time, with copies."""
    n = seq.meta.seq_len
    out = []
    for layer in range(seq.meta.layers):
        x = np.arange(1, n + 1) / n
        y = seq.cumulative[layer].copy()
        xs, ys = np.concatenate(([0.0], x)), np.concatenate(([0.0], y))
        area = float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))
        out.append((float(np.clip(2.0 * (area - 0.5), 0.0, 1.0)), x, y))
    return out


def tie_and_zero_heavy_importance():
    """(L, N) importance whose rows are mostly zeros or a few repeated values."""
    shapes = st.tuples(st.integers(1, 9), st.integers(1, 70))
    return shapes.flatmap(lambda shape: st.one_of(
        arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5])),
        arrays(np.float64, shape, elements=st.integers(0, 3).map(float)),
        arrays(np.float64, shape, elements=st.floats(0.0, 1e3)),
    )).map(lambda raw: np.concatenate([raw[:, :-1], raw[:, -1:] + 1.0], axis=1))


class TestBlockStats:
    @settings(max_examples=60, deadline=None)
    @given(raw=tie_and_zero_heavy_importance(), block=st.sampled_from([1, 7, 64, 2**18, 2**20]))
    def test_matches_per_layer_curves_and_ginis(self, raw, block):
        seq = seq_from_importance(raw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lorenz, "_BLOCK_VALUES", block)
            stats = layer_stats(seq)
        assert [s.layer for s in stats] == list(range(raw.shape[0]))
        for s, (g, x, y) in zip(stats, parent_layer_stats(seq)):
            assert s.gini == g and type(s.gini) is float
            assert s.curve.x.tobytes() == x.tobytes()
            assert s.curve.y.tobytes() == y.tobytes()
            alone = PrioritySequence(replace(seq.meta, layers=1), seq.cumulative[s.layer][None])
            assert s.gini == layer_stats(alone)[0].gini

    def test_curves_share_the_grid_and_the_cumulative_rows(self):
        seq = seq_from_importance(np.arange(1.0, 41.0).reshape(4, 10))
        stats = layer_stats(seq)
        assert len({id(s.curve.x) for s in stats}) == 1
        for s in stats:
            assert np.shares_memory(s.curve.y, seq.cumulative)
            assert np.array_equal(s.curve.y, seq.cumulative[s.layer])
            for array in (s.curve.x, s.curve.y):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.5

    @pytest.mark.parametrize("fault", ["dip", "decreasing", "end"])
    @pytest.mark.parametrize("block", [1, 8, 2**18, 2**20])
    def test_first_bad_layer_raises_the_constructor_message(self, fault, block, monkeypatch):
        monkeypatch.setattr(lorenz, "_BLOCK_VALUES", block)
        good = seq_from_importance(np.arange(1.0, 25.0).reshape(6, 4))
        cumulative = good.cumulative.copy()
        broken = {"dip": [0.1, 0.4, 0.7, 1.0], "decreasing": [0.5, 0.8, 0.7, 1.0],
                  "end": [0.5, 0.8, 0.9, 0.95]}
        # A later layer fails another check, so its message would differ.
        cumulative[3] = broken[fault]
        cumulative[5] = broken["dip" if fault == "end" else "end"]
        seq = PrioritySequence(good.meta, cumulative)
        message = {"dip": "curve dips below the equality line",
                   "decreasing": "y must be nondecreasing",
                   "end": "curve must end at (1, 1), got (1.0, 0.95)"}[fault]
        with pytest.raises(ValueError) as raised:
            layer_stats(seq)
        assert str(raised.value) == message

    @pytest.mark.parametrize("shape", [(7, 4), (5, 4), (6, 3), (6, 5), (24,)])
    def test_cumulative_of_another_shape_is_refused(self, shape):
        # Extra rows used to be sliced off, so (7, 4) passed silently.
        good = seq_from_importance(np.arange(1.0, 25.0).reshape(6, 4))
        cumulative = np.resize(good.cumulative, shape)
        with pytest.raises(ValueError) as raised:
            layer_stats(PrioritySequence(good.meta, cumulative))
        assert str(raised.value) == f"cumulative has shape {shape}, expected (6, 4)"
