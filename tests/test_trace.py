import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvbudget import (
    ParseError,
    ValidationError,
    compute_importance,
    gini,
    layer_stats,
    load_trace,
    priority_sequence,
    save_trace,
    synth_trace,
    trace_prefix,
)

from conftest import full_trace, shortcut_trace


def write_doc(tmp_path, doc, name="trace.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc(attention):
    n = len(attention)
    return {
        "meta": {"layers": 1, "heads": 1, "seq_len": n, "label": "", "seed": None},
        "attention": [[attention]],
        "kv": None,
        "features": None,
    }


class TestLoad:
    def test_valid_two_token_trace(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc([[1.0, 0.0], [0.6, 0.4]]))
        trace = load_trace(path)
        assert trace.meta.seq_len == 2
        assert trace.attention[0, 0, 1, 1] == 0.4

    def test_row_sum_violation_names_value(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc([[1.0, 0.0], [0.5, 0.6]]))
        with pytest.raises(ValidationError, match="row sum 1.1"):
            load_trace(path)

    def test_causality_violation(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc([[0.8, 0.2], [0.6, 0.4]]))
        with pytest.raises(ValidationError, match="causality"):
            load_trace(path)

    def test_missing_meta_field(self, tmp_path):
        doc = minimal_doc([[1.0]])
        del doc["meta"]["layers"]
        with pytest.raises(ParseError, match="meta.layers"):
            load_trace(write_doc(tmp_path, doc))

    def test_requires_exactly_one_payload(self, tmp_path):
        doc = minimal_doc([[1.0]])
        doc["importance"] = [[1.0]]
        with pytest.raises(ParseError, match="exactly one"):
            load_trace(write_doc(tmp_path, doc))
        del doc["attention"], doc["importance"]
        with pytest.raises(ParseError, match="exactly one"):
            load_trace(write_doc(tmp_path, doc))

    def test_ragged_attention(self, tmp_path):
        doc = minimal_doc([[1.0, 0.0], [1.0]])
        doc["meta"]["seq_len"] = 2
        with pytest.raises(ParseError, match="attention"):
            load_trace(write_doc(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_trace(path)

    def test_shortcut_form(self, tmp_path):
        doc = {"meta": {"layers": 1, "heads": 1, "seq_len": 3}, "importance": [[3.0, 2.0, 1.0]]}
        trace = load_trace(write_doc(tmp_path, doc))
        assert trace.is_shortcut
        assert trace.attention is None

    def test_negative_importance_rejected(self, tmp_path):
        doc = {"meta": {"layers": 1, "heads": 1, "seq_len": 2}, "importance": [[1.0, -0.1]]}
        with pytest.raises(ValidationError, match="negative importance"):
            load_trace(write_doc(tmp_path, doc))


    def test_nan_literal_rejected_with_index(self, tmp_path):
        # json.loads accepts NaN; NaN fails every comparison the other checks make.
        doc = minimal_doc([[1.0, 0.0], [float("nan"), 0.4]])
        message = "non-finite attention value nan at index (0, 0, 1, 0)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_trace(write_doc(tmp_path, doc))


class TestRoundTrip:
    def test_full_with_kv_bit_exact(self, tmp_path):
        trace = synth_trace(2, 2, 9, [0.3, 3.0], seed=5, with_kv=True)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        back = load_trace(path)
        assert back.meta == trace.meta
        assert np.array_equal(back.attention, trace.attention)
        assert np.array_equal(back.keys, trace.keys)
        assert np.array_equal(back.values, trace.values)

    def test_shortcut_bit_exact(self, tmp_path):
        trace = shortcut_trace([[0.123456789012345, 1.0, 2.5]])
        path = tmp_path / "s.json"
        save_trace(trace, path)
        back = load_trace(path)
        assert np.array_equal(back.importance, trace.importance)

    def test_save_is_byte_stable(self, tmp_path):
        trace = synth_trace(1, 1, 6, [0.7], seed=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_trace(trace, a)
        save_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()


class TestSynth:
    def test_deterministic(self):
        a = synth_trace(2, 2, 16, [0.1, 2.0], seed=7, with_kv=True)
        b = synth_trace(2, 2, 16, [0.1, 2.0], seed=7, with_kv=True)
        assert np.array_equal(a.attention, b.attention)
        assert np.array_equal(a.keys, b.keys)

    def test_single_token_matrix(self):
        trace = synth_trace(1, 1, 1, [1.0], seed=0)
        assert trace.attention[0, 0].tolist() == [[1.0]]

    def test_concentration_orders_gini(self):
        # Small concentration -> concentrated mass -> larger Gini.
        trace = synth_trace(2, 1, 64, [0.05, 5.0], seed=7)
        stats = layer_stats(priority_sequence(compute_importance(trace)))
        assert stats[0].gini > stats[1].gini

    def test_rejects_bad_concentration(self):
        with pytest.raises(ValueError, match="positive"):
            synth_trace(2, 1, 8, [0.5, 0.0], seed=0)
        with pytest.raises(ValueError, match="length"):
            synth_trace(2, 1, 8, [0.5], seed=0)

    def test_kv_unit_norm(self):
        trace = synth_trace(1, 2, 8, [1.0], seed=3, with_kv=True)
        norms = np.linalg.norm(trace.keys, axis=-1)
        assert np.allclose(norms, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layers=st.integers(1, 4),
        heads=st.integers(1, 3),
        seq_len=st.integers(1, 24),
        log_conc=st.floats(-3.0, 1.7),
    )
    def test_every_synth_trace_validates(self, seed, layers, heads, seq_len, log_conc):
        conc = [float(np.exp(log_conc))] * layers
        trace = synth_trace(layers, heads, seq_len, conc, seed=seed)
        trace.validate()  # raises on any violation


class TestPrefix:
    def test_prefix_is_valid_trace(self):
        trace = synth_trace(2, 2, 12, [0.5, 1.5], seed=2, with_kv=True)
        sub = trace_prefix(trace, 7)
        sub.validate()
        assert sub.meta.seq_len == 7
        assert np.array_equal(sub.attention, trace.attention[:, :, :7, :7])
        assert np.array_equal(sub.keys, trace.keys[:, :, :7])

    def test_full_length_prefix_is_identity(self):
        trace = synth_trace(1, 1, 5, [1.0], seed=0)
        assert trace_prefix(trace, 5) is trace

    def test_shortcut_cannot_be_truncated(self):
        trace = shortcut_trace([[1.0, 2.0, 3.0]])
        with pytest.raises(ValidationError, match="importance-only"):
            trace_prefix(trace, 2)

    def test_bounds(self):
        trace = synth_trace(1, 1, 5, [1.0], seed=0)
        with pytest.raises(ValidationError):
            trace_prefix(trace, 0)
        with pytest.raises(ValidationError):
            trace_prefix(trace, 6)


def test_validate_checks_kv_consistency():
    trace = synth_trace(1, 1, 4, [1.0], seed=0, with_kv=True)
    broken = type(trace)(
        meta=trace.meta,
        attention=trace.attention,
        keys=trace.keys,
        values=trace.values[:, :, :3],
    )
    with pytest.raises(ValidationError, match="values shape"):
        broken.validate()


def test_full_trace_helper_rejects_bad_rows():
    with pytest.raises(ValidationError):
        full_trace([[0.5, 0.5], [0.6, 0.4]])


@pytest.mark.parametrize("field", ["attention", "importance", "keys", "values", "features"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_values(field, bad):
    trace = synth_trace(2, 1, 4, [1.0, 1.0], seed=0, with_kv=True)
    if field == "importance":
        arrays = {"importance": compute_importance(trace).raw}
    else:
        arrays = {"attention": trace.attention.copy(), "keys": trace.keys.copy(),
                  "values": trace.values.copy(), "features": np.zeros((2, 4, 3))}
    index = (1,) + (0,) * (arrays[field].ndim - 2) + (2,)
    arrays[field][index] = bad
    broken = type(trace)(meta=trace.meta, **arrays)
    with pytest.raises(ValidationError,
                       match=re.escape(f"non-finite {field} value {bad} at index {index}")):
        broken.validate()
