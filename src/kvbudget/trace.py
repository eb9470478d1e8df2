"""Attention trace data model: validation, JSON serialization, synthetic generation.

A trace captures one sequence's per-layer, per-head causal attention
probabilities, optionally together with per-head key/value vectors and
per-layer token features. Two on-disk forms exist:

* full form: ``attention`` holds dense ``(L, H, N, N)`` matrices with
  explicit zeros above the diagonal;
* shortcut form: ``importance`` holds raw per-layer token importance
  ``(L, N)`` and no attention matrices. The allocator never needs more
  than importance, so this form avoids the ``O(L H N^2)`` cost.

Traces are immutable after construction and safe to read concurrently.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, UsageError, ValidationError

# Row sums of serialized attention must match 1 within this tolerance.
ROW_SUM_TOL = 1e-6

# Dimension of key/value vectors emitted by the synthetic generator.
SYNTH_KV_DIM = 16


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
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValidationError(f"meta.{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class AttentionTrace:
    """One sequence's attention record.

    Exactly one of ``attention`` (full form) and ``importance``
    (shortcut form) is set. ``keys``/``values`` are per-head vectors of
    shape ``(L, H, N, d)``; ``features`` are per-layer token features of
    shape ``(L, N, f)``.
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
            _check_finite("attention", att)
            if np.any(att < 0):
                l, h, m, n = np.argwhere(att < 0)[0]
                raise ValidationError(
                    f"negative attention score at layer {l} head {h} row {m} col {n}"
                )
            upper = ~np.tri(N, N, k=0, dtype=bool)
            bad = att[:, :, upper]
            if np.any(bad != 0.0):
                rows, cols = np.nonzero(upper)
                l, h, k = np.argwhere(bad != 0.0)[0]
                raise ValidationError(
                    f"causality violated at layer {l} head {h} "
                    f"row {rows[k]} col {cols[k]}: score {bad[l, h, k]:.6g}"
                )
            sums = att.sum(axis=-1)
            off = np.abs(sums - 1.0) > ROW_SUM_TOL
            if np.any(off):
                l, h, m = np.argwhere(off)[0]
                raise ValidationError(
                    f"row sum {sums[l, h, m]:.6g} at layer {l} head {h} row {m}"
                )
        else:
            imp = self.importance
            if imp.shape != (L, N):
                raise ValidationError(f"importance has shape {imp.shape}, expected {(L, N)}")
            _check_finite("importance", imp)
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
            _check_finite("keys", self.keys)
            _check_finite("values", self.values)
        if self.features is not None:
            if self.features.ndim != 3 or self.features.shape[:2] != (L, N):
                raise ValidationError(
                    f"features have shape {self.features.shape}, expected (L, N, f) = ({L}, {N}, f)"
                )
            _check_finite("features", self.features)


def _check_finite(name: str, array: np.ndarray) -> None:
    """Raise ValidationError naming the first NaN or infinite entry of ``array``."""
    bad = ~np.isfinite(array)
    if np.any(bad):
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValidationError(f"non-finite {name} value {array[index]} at index {index}")


def trace_prefix(trace: AttentionTrace, n: int) -> AttentionTrace:
    """Restrict a full-form trace to its first ``n`` positions.

    Rows of a causal matrix only reference earlier columns, so the
    truncation is again a valid trace.
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
        attention=trace.attention[:, :, :n, :n].copy(),
        keys=None if trace.keys is None else trace.keys[:, :, :n].copy(),
        values=None if trace.values is None else trace.values[:, :, :n].copy(),
        features=None if trace.features is None else trace.features[:, :n].copy(),
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
    rng = np.random.default_rng(seed)
    L, H, N = meta.layers, meta.heads, meta.seq_len
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
    if not isinstance(value, kind):
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


def load_trace(path: str | Path) -> AttentionTrace:
    """Load and validate a trace document (full or shortcut form)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("trace document must be a JSON object")

    meta_doc = _require(doc, "meta", dict)
    layers = _require(meta_doc, "layers", int, "meta")
    heads = _require(meta_doc, "heads", int, "meta")
    seq_len = _require(meta_doc, "seq_len", int, "meta")
    label = meta_doc.get("label", "")
    seed = meta_doc.get("seed")
    if not isinstance(label, str):
        raise ParseError("field 'meta.label' must be str")
    if seed is not None and not isinstance(seed, int):
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


def save_trace(trace: AttentionTrace, path: str | Path) -> None:
    """Serialize a trace to JSON. ``load_trace(save_trace(t))`` round-trips bit-exactly."""
    doc: dict = {
        "meta": {
            "layers": trace.meta.layers,
            "heads": trace.meta.heads,
            "seq_len": trace.meta.seq_len,
            "label": trace.meta.label,
            "seed": trace.meta.seed,
        }
    }
    if trace.attention is not None:
        doc["attention"] = trace.attention.tolist()
    else:
        doc["importance"] = trace.importance.tolist()
    if trace.keys is not None:
        doc["kv"] = {"keys": trace.keys.tolist(), "values": trace.values.tolist()}
    else:
        doc["kv"] = None
    doc["features"] = None if trace.features is None else trace.features.tolist()
    Path(path).write_text(json.dumps(doc))
