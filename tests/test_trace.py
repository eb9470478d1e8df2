import io
import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvbudget import (
    MAX_TRACE_ELEMENTS,
    AttentionTrace,
    ParseError,
    ToyModel,
    TraceMeta,
    TraceTooLargeError,
    UsageError,
    ValidationError,
    compute_importance,
    forward_trace,
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

    @pytest.mark.parametrize("data", [b'{"meta": "caf\xe9"}', b"\xff\xfe{}"],
                             ids=["latin-1", "utf-16-bom"])
    def test_undecodable_bytes(self, tmp_path, data):
        # Used to escape as a UnicodeDecodeError.
        path = tmp_path / "latin.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="invalid JSON in .*'utf-8' codec can't decode"):
            load_trace(path)

    def test_nesting_too_deep_to_parse(self, tmp_path):
        # Used to escape as a RecursionError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="invalid JSON in .*recursion"):
            load_trace(path)

    def test_shortcut_form(self, tmp_path):
        doc = {"meta": {"layers": 1, "heads": 1, "seq_len": 3}, "importance": [[3.0, 2.0, 1.0]]}
        trace = load_trace(write_doc(tmp_path, doc))
        assert trace.is_shortcut
        assert trace.attention is None

    def test_kv_needs_values(self, tmp_path):
        doc = minimal_doc([[1.0]])
        doc["kv"] = {"keys": [[[[0.5]]]]}
        with pytest.raises(ParseError, match="missing field 'values'"):
            load_trace(write_doc(tmp_path, doc))

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

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    @pytest.mark.parametrize("make", [
        lambda: AttentionTrace(meta=TraceMeta(layers=np.int64(1), heads=np.int64(1),
                                              seq_len=np.int64(4), seed=np.int64(3)),
                               importance=np.ones((1, 4))),
        lambda: synth_trace(np.int64(1), np.int64(1), np.int64(4), [1.0], seed=np.int64(3)),
    ], ids=["meta", "synth"])
    def test_numpy_integer_sizes_are_written_as_integers(self, tmp_path, make, suffix):
        # TraceMeta used to keep numpy sizes, so json.dumps failed with
        # "Object of type int64 is not JSON serializable".
        trace = make()
        save_trace(trace, tmp_path / f"t{suffix}")
        back = load_trace(tmp_path / f"t{suffix}")
        assert back.meta == trace.meta
        assert all(type(v) is int for v in (back.meta.layers, back.meta.seq_len, back.meta.seed))


def single_dump_json(trace):
    """The JSON text of a trace built as one document and one ``json.dumps``."""
    meta = {"layers": trace.meta.layers, "heads": trace.meta.heads,
            "seq_len": trace.meta.seq_len, "label": trace.meta.label, "seed": trace.meta.seed}
    doc = {"meta": meta}
    if trace.attention is not None:
        doc["attention"] = trace.attention.tolist()
    else:
        doc["importance"] = trace.importance.tolist()
    if trace.keys is not None:
        doc["kv"] = {"keys": trace.keys.tolist(), "values": trace.values.tolist()}
    else:
        doc["kv"] = None
    doc["features"] = None if trace.features is None else trace.features.tolist()
    return json.dumps(doc)


class TestStreamedJson:
    @pytest.mark.parametrize("make", [
        lambda: forward_trace(ToyModel(layers=2, heads=2, dim=8, vocab=16, seed=3), range(7)),
        lambda: synth_trace(3, 2, 9, [0.05, 1.0, 20.0], seed=4, with_kv=True, label="q\"x"),
        lambda: shortcut_trace([[0.123456789012345, 1e-300, 2.5], [0.0, 7.0, 1e17]]),
    ], ids=["full-kv-features", "full-kv", "shortcut"])
    def test_file_matches_one_document_dump(self, tmp_path, make):
        trace = make()
        save_trace(trace, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == single_dump_json(trace)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_concentration_before_drawing(self, bad, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(UsageError, match="positive and finite"):
            synth_trace(2, 1, 8, [0.5, bad], seed=0)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_rejects_non_integer_seed(self, seed):
        # 1.5 used to fail in numpy's SeedSequence with a TypeError, and
        # True to be recorded as seed 1.
        with pytest.raises(UsageError, match=f"seed must be nonnegative, got {seed}"):
            synth_trace(2, 1, 8, [0.5, 1.0], seed=seed)

    @pytest.mark.parametrize("size", ["layers", "heads", "seq_len"])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_rejects_non_integer_sizes(self, size, value):
        # heads=1.5 and heads=True used to build a 1-head trace through int().
        sizes = {"layers": 1, "heads": 1, "seq_len": 8, size: value}
        with pytest.raises(UsageError, match=f"{size} must be an integer, got {value}"):
            synth_trace(**sizes, concentration=[1.0], seed=0)

    @pytest.mark.parametrize("layers", [0, -3])
    def test_non_positive_layers_are_refused_by_the_meta(self, layers):
        # -3 used to be measured against the concentration first, and
        # raised "concentration must have length -3".
        with pytest.raises(ValidationError,
                           match=f"meta.layers must be a positive integer, got {layers}"):
            synth_trace(layers, 1, 4, [], seed=0)

    def test_rows_that_underflow_attend_to_themselves(self):
        # At this concentration every gamma draw underflows to 0, so each
        # row would sum to 0; the guard puts its whole mass on the diagonal.
        trace = synth_trace(2, 2, 8, [1e-10, 1e-10], seed=0)
        assert np.array_equal(trace.attention, np.broadcast_to(np.eye(8), (2, 2, 8, 8)))

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

    def test_prefix_shares_memory_and_is_read_only(self):
        trace = forward_trace(ToyModel(layers=2, heads=2, dim=8, vocab=16, seed=1), range(9))
        sub = trace_prefix(trace, 6)
        for name in ("attention", "keys", "values", "features"):
            part, whole = getattr(sub, name), getattr(trace, name)
            assert np.shares_memory(part, whole), name
            with pytest.raises(ValueError, match="read-only"):
                part[(0,) * part.ndim] = 0.5
        assert trace.attention.flags.writeable

    def test_bounds(self):
        trace = synth_trace(1, 1, 5, [1.0], seed=0)
        with pytest.raises(ValidationError):
            trace_prefix(trace, 0)
        with pytest.raises(ValidationError):
            trace_prefix(trace, 6)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_length_must_be_an_integer(self, n):
        # True used to give the 1-token prefix, and 2.0 a TypeError from slicing.
        trace = synth_trace(1, 1, 5, [1.0], seed=0)
        with pytest.raises(ValidationError, match=f"prefix length {n} outside"):
            trace_prefix(trace, n)


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


@pytest.mark.parametrize("fields, message", [
    ({"attention": True, "importance": True},
     "trace must carry exactly one of attention or importance"),
    ({}, "trace must carry exactly one of attention or importance"),
    ({"importance": np.ones((2, 3))}, "importance has shape (2, 3), expected (2, 4)"),
    ({"attention": True, "keys": True}, "keys and values must both be present or both absent"),
    ({"attention": True, "keys": np.ones((2, 1, 3, 16)), "values": np.ones((2, 1, 3, 16))},
     "keys have shape (2, 1, 3, 16), expected (L, H, N, d) = (2, 1, 4, d)"),
    ({"attention": True, "features": np.ones((2, 3, 5))},
     "features have shape (2, 3, 5), expected (L, N, f) = (2, 4, f)"),
], ids=["both-payloads", "no-payload", "importance-shape", "keys-without-values",
        "keys-shape", "features-shape"])
def test_validate_refuses_fields_of_the_wrong_form(fields, message):
    trace = synth_trace(2, 1, 4, [1.0, 1.0], seed=0, with_kv=True)
    # True stands for the valid array of that name from the synthetic trace.
    arrays = {"attention": trace.attention, "importance": compute_importance(trace).raw,
              "keys": trace.keys}
    fields = {name: arrays[name] if value is True else value for name, value in fields.items()}
    with pytest.raises(ValidationError) as raised:
        AttentionTrace(meta=trace.meta, **fields).validate()
    assert str(raised.value) == message


def test_full_trace_helper_rejects_bad_rows():
    with pytest.raises(ValidationError):
        full_trace([[0.5, 0.5], [0.6, 0.4]])


@pytest.mark.parametrize("field", ["attention", "importance", "keys", "values", "features"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_values(field, bad):
    trace = synth_trace(2, 1, 4, [1.0, 1.0], seed=0, with_kv=True)
    if field == "importance":
        arrays = {"importance": compute_importance(trace).raw.copy()}
    else:
        arrays = {"attention": trace.attention.copy(), "keys": trace.keys.copy(),
                  "values": trace.values.copy(), "features": np.zeros((2, 4, 3))}
    index = (1,) + (0,) * (arrays[field].ndim - 2) + (2,)
    arrays[field][index] = bad
    broken = type(trace)(meta=trace.meta, **arrays)
    with pytest.raises(ValidationError,
                       match=re.escape(f"non-finite {field} value {bad} at index {index}")):
        broken.validate()


def _whole_array_validate(trace):
    """The whole-array checks ``validate`` ran before it went layer by layer."""
    L, H, N = trace.meta.layers, trace.meta.heads, trace.meta.seq_len

    def check_finite(name, array):
        bad = ~np.isfinite(array)
        if np.any(bad):
            index = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValidationError(f"non-finite {name} value {array[index]} at index {index}")

    att = trace.attention
    check_finite("attention", att)
    if np.any(att < 0):
        l, h, m, n = np.argwhere(att < 0)[0]
        raise ValidationError(f"negative attention score at layer {l} head {h} row {m} col {n}")
    upper = ~np.tri(N, N, k=0, dtype=bool)
    bad = att[:, :, upper]
    if np.any(bad != 0.0):
        rows, cols = np.nonzero(upper)
        l, h, k = np.argwhere(bad != 0.0)[0]
        raise ValidationError(f"causality violated at layer {l} head {h} "
                              f"row {rows[k]} col {cols[k]}: score {bad[l, h, k]:.6g}")
    sums = att.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-6
    if np.any(off):
        l, h, m = np.argwhere(off)[0]
        raise ValidationError(f"row sum {sums[l, h, m]:.6g} at layer {l} head {h} row {m}")
    check_finite("keys", trace.keys)
    check_finite("values", trace.values)


FAULTS = {
    "nan": np.nan,
    "inf": np.inf,
    "negative": -0.25,
    "upper": 0.125,  # written above the diagonal
    "row": 0.5,  # added to an entry on or below the diagonal
}


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(2, 7)),
    seed=st.integers(0, 2**16),
    faults=st.lists(st.tuples(st.sampled_from([*FAULTS, "kv-nan"]),
                              st.integers(0, 3), st.integers(0, 2),
                              st.integers(0, 6), st.integers(0, 6)),
                    max_size=4),
)
def test_layered_validate_reports_what_the_whole_array_check_did(shape, seed, faults):
    L, H, N = shape
    trace = synth_trace(L, H, N, [0.5] * L, seed=seed, with_kv=True)
    att, keys = trace.attention.copy(), trace.keys.copy()
    for kind, l, h, m, n in faults:
        l, h, m = l % L, h % H, m % N
        if kind == "kv-nan":
            keys[l, h, m, n % keys.shape[-1]] = np.nan
        elif kind == "upper":
            att[l, h, min(m, N - 2), max(n % N, min(m, N - 2) + 1)] = FAULTS[kind]
        elif kind == "row":
            att[l, h, m, n % (m + 1)] += FAULTS[kind]
        else:
            att[l, h, m, n % N] = FAULTS[kind]
    broken = type(trace)(meta=trace.meta, attention=att, keys=keys, values=trace.values)

    def outcome(check):
        try:
            check(broken)
        except ValidationError as exc:
            return str(exc)
        return None

    assert outcome(type(trace).validate) == outcome(_whole_array_validate)


class TestNpz:
    def test_full_with_kv_and_features_bit_exact(self, tmp_path):
        trace = forward_trace(ToyModel(layers=2, heads=2, dim=8, vocab=16, seed=3), range(7))
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        assert zipfile.is_zipfile(path)
        back = load_trace(path)
        assert back.meta == trace.meta
        for name in ("attention", "keys", "values", "features"):
            a, b = getattr(trace, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert back.importance is None

    def test_shortcut_bit_exact(self, tmp_path):
        trace = shortcut_trace([[0.123456789012345, 1.0, 2.5]])
        path = tmp_path / "s.npz"
        save_trace(trace, path)
        assert zipfile.is_zipfile(path)
        back = load_trace(path)
        assert back.meta == trace.meta and back.keys is None
        assert np.array_equal(back.importance, trace.importance)


@pytest.mark.parametrize("meta, message", [
    ({}, "missing field 'meta'"),
    ({"meta": np.array(3)}, "member 'meta' must be a JSON string"),
    ({"meta": np.array("{not json")}, "invalid JSON in member 'meta'"),
], ids=["missing", "number", "invalid-json"])
def test_npz_meta_must_be_a_json_string(tmp_path, meta, message):
    path = tmp_path / "t.npz"
    np.savez(path, importance=np.ones((1, 2)), **meta)
    with pytest.raises(ParseError, match=re.escape(message)):
        load_trace(path)


def test_npz_member_of_an_unread_npy_version_is_refused(tmp_path):
    path = tmp_path / "t.npz"
    with zipfile.ZipFile(path, "w") as archive:
        with archive.open("importance.npy", "w") as member:
            np.lib.format.write_array(member, np.ones((1, 2)), version=(3, 0))
    with pytest.raises(ParseError) as raised:
        load_trace(path)
    assert str(raised.value) == "member 'importance.npy' has .npy version (3, 0)"


def test_meta_rejects_bool_counts(tmp_path):
    with pytest.raises(ValidationError, match="meta.layers"):
        TraceMeta(layers=True, heads=1, seq_len=1)
    doc = minimal_doc([[1.0]])
    doc["meta"]["layers"] = True
    with pytest.raises(ParseError, match="'meta.layers' must be int, got bool"):
        load_trace(write_doc(tmp_path, doc))
    doc["meta"]["layers"], doc["meta"]["seed"] = 1, False
    with pytest.raises(ValidationError, match="meta.seed"):
        load_trace(write_doc(tmp_path, doc))


@pytest.mark.parametrize("field, value", [
    ("label", 5), ("label", None), ("seed", "x"), ("seed", 1.5), ("seed", True),
    ("seed", np.bool_(True)),
])
def test_meta_refuses_what_a_trace_file_cannot_hold(field, value):
    # These used to be accepted and written; load_trace then refused the file.
    with pytest.raises(ValidationError, match=f"meta.{field}"):
        TraceMeta(layers=1, heads=1, seq_len=2, **{field: value})


ANY = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
       | st.integers(-2**63, 2**63 - 1).map(np.int64))


@settings(max_examples=60, deadline=None)
@given(label=ANY, seed=ANY)
def test_every_accepted_meta_round_trips(tmp_path_factory, label, seed):
    # A trace the library builds can be loaded back, in either file format.
    try:
        meta = TraceMeta(layers=1, heads=1, seq_len=2, label=label, seed=seed)
    except ValidationError:
        return
    trace = AttentionTrace(meta=meta, importance=np.ones((1, 2)))
    root = tmp_path_factory.mktemp("meta")
    for suffix in (".json", ".npz"):
        path = root / f"t{suffix}"
        save_trace(trace, path)
        assert load_trace(path).meta == meta


class TestSizeGuard:
    def test_limit_admits_the_benchmark_shapes(self):
        assert 16 * 2 * 778 * 778 <= MAX_TRACE_ELEMENTS

    def test_synth_refuses_before_allocating(self):
        # Without the guard, the first allocation (N positions of the causal
        # mask, 8 TB) fails at once, so a broken guard cannot fill memory.
        with pytest.raises(TraceTooLargeError, match="attention of shape"):
            synth_trace(1, 1, 10**12, [1.0], seed=0)

    def test_forward_trace_refuses_before_allocating(self, monkeypatch):
        # The CLI checks its own prompts; a library caller's used to reach
        # the (L, H, N, N) allocation unchecked. A small limit stands in.
        model = ToyModel(layers=1, heads=1, dim=4, vocab=8)
        monkeypatch.setattr("kvbudget.trace.MAX_TRACE_ELEMENTS", 40)
        with pytest.raises(TraceTooLargeError, match=re.escape("attention of shape (1, 1, 7, 7)")):
            forward_trace(model, range(7))

    def test_npz_member_checked_from_its_header(self, tmp_path):
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (1, 1, 10**9, 10**9)})
        path = tmp_path / "huge.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("meta.npy", _npy_bytes(np.array(json.dumps(
                {"layers": 1, "heads": 1, "seq_len": 10**9}))))
            archive.writestr("attention.npy", header.getvalue())  # magic and header, no data
        with pytest.raises(TraceTooLargeError, match="attention.npy"):
            load_trace(path)

    def test_json_file_size_checked_before_parsing(self, tmp_path, monkeypatch):
        path = write_doc(tmp_path, minimal_doc([[1.0, 0.0], [0.6, 0.4]]))
        monkeypatch.setattr("kvbudget.trace.MAX_JSON_BYTES", path.stat().st_size - 1)
        with pytest.raises(TraceTooLargeError, match="store large traces as .npz"):
            load_trace(path)


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()
