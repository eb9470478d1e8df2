"""Attention trace data model: validation, JSON and ``.npz`` serialization,
synthetic generation.

A trace captures one sequence's per-layer, per-head causal attention
probabilities, optionally together with per-head key/value vectors and
per-layer token features. Two content forms exist:

* full form: ``attention`` holds dense ``(L, H, N, N)`` matrices with
  explicit zeros above the diagonal;
* shortcut form: ``importance`` holds raw per-layer token importance
  ``(L, N)`` and no attention matrices. The allocator never needs more
  than importance, so this form avoids the ``O(L H N^2)`` cost.

Either form is stored as JSON or, for a path ending in ``.npz``, as a
numpy archive with one member per array and the meta as a JSON string.
Both parse into the same document and go through the same checks.

Traces are immutable after construction and safe to read concurrently.
A prefix (``trace_prefix``) is a read-only view that shares memory with
its parent rather than a copy.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, TraceTooLargeError, UsageError, ValidationError

# Row sums of serialized attention must match 1 within this tolerance.
ROW_SUM_TOL = 1e-6

# Dimension of key/value vectors emitted by the synthetic generator.
SYNTH_KV_DIM = 16

# Largest number of values one trace array may hold: L*H*N^2 for dense
# attention, 512 MiB as float64. synth_trace checks it before allocating
# and load_trace checks .npz member shapes before reading them.
MAX_TRACE_ELEMENTS = 2**26

# Largest JSON trace file load_trace parses. Parsing costs about four
# times the file size in memory; store larger traces as .npz.
MAX_JSON_BYTES = 8 * MAX_TRACE_ELEMENTS


@dataclass(frozen=True)
class TraceMeta:
    """Shape and provenance of a trace: L layers, H heads, N tokens."""

    layers: int
    heads: int
    seq_len: int
    label: str = ""
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("layers", "heads", "seq_len"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValidationError(f"meta.{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class AttentionTrace:
    """One sequence's attention record.

    Exactly one of ``attention`` (full form) and ``importance``
    (shortcut form) is set. ``keys``/``values`` are per-head vectors of
    shape ``(L, H, N, d)``; ``features`` are per-layer token features of
    shape ``(L, N, f)``.

    A trace is never modified once built: readers may share its arrays,
    and a prefix from ``trace_prefix`` is a read-only view of them.
    """

    meta: TraceMeta
    attention: np.ndarray | None = None
    importance: np.ndarray | None = None
    keys: np.ndarray | None = None
    values: np.ndarray | None = None
    features: np.ndarray | None = None

    @property
    def is_shortcut(self) -> bool:
        return self.attention is None

    def validate(self) -> None:
        """Check structural invariants; raise ValidationError on the first violation."""
        meta = self.meta
        L, H, N = meta.layers, meta.heads, meta.seq_len
        if (self.attention is None) == (self.importance is None):
            raise ValidationError("trace must carry exactly one of attention or importance")

        if self.attention is not None:
            att = self.attention
            if att.shape != (L, H, N, N):
                raise ValidationError(
                    f"attention has shape {att.shape}, expected {(L, H, N, N)}"
                )
            # Every check runs over all layers before the next one starts,
            # one (H, N, N) block at a time, so the first fault reported is
            # the one a whole-array check would find, without temporaries
            # the size of the whole array.
            _check_layers_finite("attention", att)
            for l in range(L):
                negative = att[l] < 0
                if np.any(negative):
                    h, m, n = np.argwhere(negative)[0]
                    raise ValidationError(
                        f"negative attention score at layer {l} head {h} row {m} col {n}"
                    )
            upper = ~np.tri(N, N, k=0, dtype=bool)
            for l in range(L):
                bad = att[l][:, upper]
                if np.any(bad != 0.0):
                    rows, cols = np.nonzero(upper)
                    h, k = np.argwhere(bad != 0.0)[0]
                    raise ValidationError(
                        f"causality violated at layer {l} head {h} "
                        f"row {rows[k]} col {cols[k]}: score {bad[h, k]:.6g}"
                    )
            for l in range(L):
                sums = att[l].sum(axis=-1)
                off = np.abs(sums - 1.0) > ROW_SUM_TOL
                if np.any(off):
                    h, m = np.argwhere(off)[0]
                    raise ValidationError(
                        f"row sum {sums[h, m]:.6g} at layer {l} head {h} row {m}"
                    )
        else:
            imp = self.importance
            if imp.shape != (L, N):
                raise ValidationError(f"importance has shape {imp.shape}, expected {(L, N)}")
            _check_layers_finite("importance", imp)
            if np.any(imp < 0):
                l, n = np.argwhere(imp < 0)[0]
                raise ValidationError(f"negative importance at layer {l} position {n}")

        if (self.keys is None) != (self.values is None):
            raise ValidationError("keys and values must both be present or both absent")
        if self.keys is not None:
            if self.keys.ndim != 4 or self.keys.shape[:3] != (L, H, N):
                raise ValidationError(
                    f"keys have shape {self.keys.shape}, expected (L, H, N, d) = ({L}, {H}, {N}, d)"
                )
            if self.values.shape != self.keys.shape:
                raise ValidationError(
                    f"values shape {self.values.shape} differs from keys shape {self.keys.shape}"
                )
            _check_layers_finite("keys", self.keys)
            _check_layers_finite("values", self.values)
        if self.features is not None:
            if self.features.ndim != 3 or self.features.shape[:2] != (L, N):
                raise ValidationError(
                    f"features have shape {self.features.shape}, expected (L, N, f) = ({L}, {N}, f)"
                )
            _check_layers_finite("features", self.features)


def _check_finite(name: str, block: np.ndarray, prefix: tuple[int, ...]) -> None:
    """Raise ValidationError naming the first NaN or infinite entry of ``block``.

    ``prefix`` is the index of ``block`` within the field it was cut
    from, so the message gives the entry's full index.
    """
    bad = ~np.isfinite(block)
    if np.any(bad):
        within = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValidationError(
            f"non-finite {name} value {block[within]} at index {prefix + within}"
        )


def _check_layers_finite(name: str, array: np.ndarray) -> None:
    """``_check_finite`` one layer (leading-axis block) at a time."""
    for l, block in enumerate(array):
        _check_finite(name, block, (l,))


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` is no layer count)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_size(name: str, shape: tuple[int, ...]) -> None:
    count = math.prod(int(d) for d in shape)
    if count > MAX_TRACE_ELEMENTS:
        raise TraceTooLargeError(
            f"{name} of shape {tuple(shape)} holds {count} values, "
            f"above the limit of {MAX_TRACE_ELEMENTS}"
        )


def _read_only(view: np.ndarray | None) -> np.ndarray | None:
    if view is not None:
        view.flags.writeable = False
    return view


def trace_prefix(trace: AttentionTrace, n: int) -> AttentionTrace:
    """Restrict a full-form trace to its first ``n`` positions.

    Rows of a causal matrix only reference earlier columns, so the
    truncation is again a valid trace. Its arrays are read-only views
    that share memory with ``trace``; nothing is copied.
    """
    N = trace.meta.seq_len
    if not 1 <= n <= N:
        raise ValidationError(f"prefix length {n} outside [1, {N}]")
    if n == N:
        return trace
    if trace.is_shortcut:
        raise ValidationError("importance-only trace cannot be truncated to a prefix")
    meta = dataclasses.replace(trace.meta, seq_len=int(n))
    return AttentionTrace(
        meta=meta,
        attention=_read_only(trace.attention[:, :, :n, :n]),
        keys=_read_only(None if trace.keys is None else trace.keys[:, :, :n]),
        values=_read_only(None if trace.values is None else trace.values[:, :, :n]),
        features=_read_only(None if trace.features is None else trace.features[:, :n]),
    )


def synth_trace(
    layers: int,
    heads: int,
    seq_len: int,
    concentration: Sequence[float],
    seed: int,
    with_kv: bool = False,
    label: str = "dirichlet",
) -> AttentionTrace:
    """Generate a seeded synthetic trace with controllable concentration.

    Each attention row m of layer l is a symmetric Dirichlet draw over
    positions 0..m with parameter ``concentration[l]``: small values give
    concentrated column mass, large values disperse it. Identical
    arguments always produce bit-identical traces.
    """
    conc = np.asarray(concentration, dtype=float)
    if conc.shape != (layers,):
        raise UsageError(f"concentration must have length {layers}, got shape {conc.shape}")
    if np.any(conc <= 0):
        raise UsageError("concentration values must be positive")
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")

    meta = TraceMeta(layers=int(layers), heads=int(heads), seq_len=int(seq_len), label=label, seed=int(seed))
    L, H, N = meta.layers, meta.heads, meta.seq_len
    _check_size("attention", (L, H, N, N))
    rng = np.random.default_rng(seed)
    lower = np.tri(N, N, k=0, dtype=bool)

    attention = np.zeros((L, H, N, N))
    for l in range(L):
        gammas = rng.standard_gamma(conc[l], size=(H, N, N))
        gammas = np.where(lower, gammas, 0.0)
        sums = gammas.sum(axis=-1, keepdims=True)
        # Guard against total underflow of a row at extreme concentrations.
        dead = sums[..., 0] == 0.0
        if np.any(dead):
            for h, m in np.argwhere(dead):
                gammas[h, m, m] = 1.0
            sums = gammas.sum(axis=-1, keepdims=True)
        attention[l] = gammas / sums

    keys = values = None
    if with_kv:
        keys = rng.standard_normal((L, H, N, SYNTH_KV_DIM))
        keys /= np.linalg.norm(keys, axis=-1, keepdims=True)
        values = rng.standard_normal((L, H, N, SYNTH_KV_DIM))
        values /= np.linalg.norm(values, axis=-1, keepdims=True)

    trace = AttentionTrace(meta=meta, attention=attention, keys=keys, values=values)
    trace.validate()
    return trace


def _require(doc: dict, field: str, kind: type, where: str = "") -> object:
    prefix = f"{where}." if where else ""
    if field not in doc:
        raise ParseError(f"missing field '{prefix}{field}'")
    value = doc[field]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"field '{prefix}{field}' must be {kind.__name__}, got {type(value).__name__}")
    return value


def _array_field(doc: dict, field: str, required: bool = False) -> np.ndarray | None:
    if doc.get(field) is None:
        if required:
            raise ParseError(f"missing field '{field}'")
        return None
    try:
        return np.asarray(doc[field], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field '{field}' is not a rectangular numeric array: {exc}") from exc


def _is_npz(path: Path) -> bool:
    return path.suffix == ".npz"


def _read_json(path: Path) -> dict:
    size = path.stat().st_size
    if size > MAX_JSON_BYTES:
        raise TraceTooLargeError(
            f"JSON trace {path} has {size} bytes, above the limit of {MAX_JSON_BYTES}; "
            "store large traces as .npz"
        )
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("trace document must be a JSON object")
    return doc


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_npz(path: Path) -> dict:
    """Read an ``.npz`` trace into the document a JSON trace parses to.

    Every member's shape is checked from its header before any array
    data is read.
    """
    with open(path, "rb") as handle:
        try:
            with zipfile.ZipFile(handle) as archive:
                for info in archive.infolist():
                    with archive.open(info) as member:
                        version = np.lib.format.read_magic(member)
                        if version not in _NPY_HEADER_READERS:
                            raise ParseError(
                                f"member {info.filename!r} has .npy version {version}")
                        shape, _, _ = _NPY_HEADER_READERS[version](member)
                    _check_size(f"member {info.filename!r}", shape)
            handle.seek(0)
            with np.load(handle, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        # What zipfile and numpy raise on a corrupt archive; the file itself
        # is open, so an OSError here comes from its content too.
        except (OSError, EOFError, ValueError, RuntimeError, NotImplementedError,
                zipfile.BadZipFile, zlib.error, tokenize.TokenError) as exc:
            raise ParseError(f"invalid .npz trace {path}: {exc}") from exc

    meta = arrays.pop("meta", None)
    if meta is None:
        raise ParseError("missing field 'meta'")
    if meta.shape != () or meta.dtype.kind != "U":
        raise ParseError("member 'meta' must be a JSON string")
    try:
        doc = {"meta": json.loads(str(meta))}
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in member 'meta' of {path}: {exc}") from exc
    for name, array in arrays.items():
        if array.dtype.kind not in "biuf":
            raise ParseError(f"field '{name}' is not a numeric array: dtype {array.dtype}")
    for name in ("attention", "importance", "features"):
        doc[name] = arrays.get(name)
    if "keys" in arrays or "values" in arrays:
        doc["kv"] = {name: arrays[name] for name in ("keys", "values") if name in arrays}
    return doc


def _from_doc(doc: dict) -> AttentionTrace:
    """Build and validate a trace from a parsed JSON or ``.npz`` document."""
    meta_doc = _require(doc, "meta", dict)
    layers = _require(meta_doc, "layers", int, "meta")
    heads = _require(meta_doc, "heads", int, "meta")
    seq_len = _require(meta_doc, "seq_len", int, "meta")
    label = meta_doc.get("label", "")
    seed = meta_doc.get("seed")
    if not isinstance(label, str):
        raise ParseError("field 'meta.label' must be str")
    if seed is not None and not _is_int(seed):
        raise ParseError("field 'meta.seed' must be int or null")
    meta = TraceMeta(layers=layers, heads=heads, seq_len=seq_len, label=label, seed=seed)

    has_attention = doc.get("attention") is not None
    has_importance = doc.get("importance") is not None
    if has_attention == has_importance:
        raise ParseError("trace must contain exactly one of 'attention' or 'importance'")

    attention = _array_field(doc, "attention")
    importance = _array_field(doc, "importance")

    keys = values = None
    if doc.get("kv") is not None:
        kv = _require(doc, "kv", dict)
        keys = _array_field(kv, "keys", required=True)
        values = _array_field(kv, "values", required=True)
    features = _array_field(doc, "features")

    trace = AttentionTrace(
        meta=meta,
        attention=attention,
        importance=importance,
        keys=keys,
        values=values,
        features=features,
    )
    trace.validate()
    return trace


def load_trace(path: str | Path) -> AttentionTrace:
    """Load and validate a trace (full or shortcut form; ``.npz`` by suffix, else JSON)."""
    path = Path(path)
    return _from_doc(_read_npz(path) if _is_npz(path) else _read_json(path))


def save_trace(trace: AttentionTrace, path: str | Path) -> None:
    """Write a trace as ``.npz`` (by suffix) or JSON.

    ``load_trace(save_trace(t))`` round-trips bit-exactly in either form.
    """
    path = Path(path)
    meta = {
        "layers": trace.meta.layers,
        "heads": trace.meta.heads,
        "seq_len": trace.meta.seq_len,
        "label": trace.meta.label,
        "seed": trace.meta.seed,
    }
    if _is_npz(path):
        arrays = {name: getattr(trace, name) for name in
                  ("attention", "importance", "keys", "values", "features")}
        np.savez(path, meta=np.array(json.dumps(meta)),
                 **{name: array for name, array in arrays.items() if array is not None})
        return
    doc: dict = {"meta": meta}
    if trace.attention is not None:
        doc["attention"] = trace.attention.tolist()
    else:
        doc["importance"] = trace.importance.tolist()
    if trace.keys is not None:
        doc["kv"] = {"keys": trace.keys.tolist(), "values": trace.values.tolist()}
    else:
        doc["kv"] = None
    doc["features"] = None if trace.features is None else trace.features.tolist()
    path.write_text(json.dumps(doc))
