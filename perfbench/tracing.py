"""Span recording around kvbudget's public functions, installed from outside.

Wrappers replace each traced function on its defining module and on every
kvbudget module that imported it by name, and replace the traced methods
on their classes, so calls made through module globals (``decode_step``
calling ``merge``) are seen without touching the library. Spans are kept
in memory as (name, start, end, parent, op id, phase) and written out when
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import statistics
import time
from pathlib import Path

import numpy as np

PACKAGE = "kvbudget"
MODULES = ("trace", "importance", "lorenz", "allocator", "cachesim", "toymodel", "cli")

# (module, attribute path) of every traced function. The span name is
# "<module>.<function>".
TRACED = [
    ("trace", "save_trace"),
    ("trace", "load_trace"),
    ("trace", "synth_trace"),
    ("trace", "trace_prefix"),
    ("trace", "AttentionTrace.validate"),
    ("importance", "compute_importance"),
    ("importance", "priority_sequence"),
    ("lorenz", "layer_stats"),
    ("allocator", "plan_online"),
    ("allocator", "binary_search"),
    ("allocator", "finalize_config"),
    ("allocator", "estimate_offline"),
    ("allocator", "baseline_config"),
    ("cachesim", "prefill_compress"),
    ("cachesim", "full_cache_state"),
    ("cachesim", "replay_steps"),
    ("cachesim", "CacheState.decode_step"),
    ("cachesim", "merge"),
    ("cachesim", "retained_info"),
    ("cachesim", "disturbance"),
    ("toymodel", "forward_trace"),
    ("toymodel", "decode"),
    ("cli", "main"),
]

SPAN_NAMES = {f"{module}.{path.split('.')[-1]}" for module, path in TRACED}

# Functions that only run during set-up; their metrics are per set-up.
SETUP_FUNCTIONS = ("trace.synth_trace", "trace.trace_prefix")

NAME, START, END, PARENT, OP, PHASE = range(6)


class SpanRecorder:
    """In-memory spans plus the counters the wrappers take at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.forward_keys: set = set()
        self.phase = "setup"
        self.setups = 0
        self._stack: list[int] = []
        self._op = None
        self._ops = 0

    def begin(self, name: str, root: bool = False, same_op: bool = False) -> int:
        """Open a span; a root span starts a new op unless it continues the last one."""
        if root:
            if not same_op:
                self._ops += 1
            self._op = self._ops
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, self.phase])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()
        if not self._stack:
            self._op = None

    @property
    def current_op(self):
        return self._op

    def count(self, name: str, value: float = 1.0) -> None:
        key = f"{self.phase}:{name}"
        self.counters[key] = self.counters.get(key, 0.0) + value

    def counter(self, name: str, phase: str = "measure") -> float:
        return self.counters.get(f"{phase}:{name}", 0.0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op", "phase"), span))) + "\n")


def _after_search(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("allocator.searches")
    rec.count("allocator.search_evals", result.steps)
    rec.count("allocator.converged", float(result.converged))


def _after_estimate(rec, args, kwargs, result) -> None:
    # The pooled method searches once without going through binary_search.
    method = kwargs.get("method", args[2] if len(args) > 2 else "per-sample-mean")
    if method == "pooled-curve":
        _after_search(rec, args, kwargs, result.threshold)


def _after_save(rec, args, kwargs, result) -> None:
    rec.count("trace.bytes_written", Path(args[1] if len(args) > 1 else kwargs["path"]).stat().st_size)


def _after_load(rec, args, kwargs, result) -> None:
    rec.count("trace.bytes_read", Path(args[0] if args else kwargs["path"]).stat().st_size)


def _after_forward(rec, args, kwargs, result) -> None:
    model = args[0]
    ids = args[1] if len(args) > 1 else kwargs["token_ids"]
    arch = (model.layers, model.heads, model.dim, model.vocab, model.seed)
    if rec.phase == "measure":
        # Keyed by op, so the ratio is distinct pairs per op over calls per op.
        rec.forward_keys.add((rec.current_op, arch, np.asarray(ids, dtype=np.int64).tobytes()))


AFTER = {
    "allocator.binary_search": _after_search,
    "allocator.estimate_offline": _after_estimate,
    "trace.save_trace": _after_save,
    "trace.load_trace": _after_load,
    "toymodel.forward_trace": _after_forward,
}


def _wrap(rec: SpanRecorder, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(rec: SpanRecorder):
    """Install wrappers for every TRACED function; restore the originals on exit."""
    modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    modules.append(importlib.import_module(PACKAGE))
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, path in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                restore.append((cls, attr, original))
                setattr(cls, attr, _wrap(rec, name, original))
                continue
            original = getattr(module, path)
            wrapper = _wrap(rec, name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        yield rec
    finally:
        for holder, attr, original in reversed(restore):
            setattr(holder, attr, original)


def _aggregate(rec: SpanRecorder, phase: str) -> tuple[dict, float, float, int]:
    """Per span name: calls, total and self seconds; plus op totals."""
    child = [0.0] * len(rec.spans)
    for span in rec.spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    table: dict[str, list[float]] = {}
    op_total = op_self = 0.0
    op_ids = set()
    for i, span in enumerate(rec.spans):
        if span[PHASE] != phase:
            continue
        duration = span[END] - span[START]
        if span[NAME] == "op":
            # An op made of several timed segments has one root span per segment.
            op_ids.add(span[OP])
            op_total += duration
            op_self += duration - child[i]
            continue
        if span[NAME] not in SPAN_NAMES:
            continue  # the benchmark's own grouping spans (prefill)
        row = table.setdefault(span[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child[i]
    return table, op_total, op_self, len(op_ids)


# Counts the replay workload takes from its step logs, not from spans.
WORKLOAD_COUNTERS = ("cachesim.evictions", "cachesim.merges", "cachesim.budget_fill",
                     "cachesim.over_capacity_layer_steps")
_LAYER_RE = re.compile(r"^cachesim\.layer\d+\.(live_mean|evictions)$")


def per_layer_metrics(rec: SpanRecorder, traced, untraced, workload, names: list[str]):
    """Values of the requested per-layer metrics, and the full per-function table.

    Times are milliseconds per traced op; calls are calls per op. Spans
    under the per-cell prefill root count towards the op they precede.
    Set-up-only functions are reported per set-up instead.
    """
    measure, op_total, op_self, ops = _aggregate(rec, "measure")
    setup, _, _, _ = _aggregate(rec, "setup")
    ops = max(ops, 1)
    setups = max(rec.setups, 1)

    def per_op(table, divisor):
        return {name: {"calls": row[0] / divisor, "ms": row[1] * 1e3 / divisor,
                       "self_ms": row[2] * 1e3 / divisor} for name, row in sorted(table.items())}

    per_function = {"per_op": per_op(measure, ops), "per_setup": per_op(setup, setups)}
    searches = rec.counter("allocator.searches")
    forward_calls = measure.get("toymodel.forward_trace", [0])[0]
    untraced_p50 = statistics.median(untraced.latencies_ms) if untraced.latencies_ms else 0.0
    traced_p50 = statistics.median(traced.latencies_ms) if traced.latencies_ms else 0.0
    special = {
        "allocator.search_evals": rec.counter("allocator.search_evals") / ops,
        "allocator.converged_share": rec.counter("allocator.converged") / searches if searches else 0.0,
        "trace.bytes_written": rec.counter("trace.bytes_written") / ops,
        "trace.bytes_read": rec.counter("trace.bytes_read") / ops,
        "toymodel.forward_reuse": len(rec.forward_keys) / forward_calls if forward_calls else 0.0,
        "tracing.overhead": traced_p50 / untraced_p50 if untraced_p50 else 0.0,
        "tracing.coverage": 1.0 - op_self / op_total if op_total else 0.0,
    }
    counters = workload.layer_counters()

    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        if name in WORKLOAD_COUNTERS or _LAYER_RE.match(name):
            values[name] = counters.get(name, 0.0)  # 0 where the workload has no such layer
            continue
        function, _, field = name.rpartition(".")
        if field not in ("ms", "self_ms", "calls") or function not in SPAN_NAMES:
            raise KeyError(f"per-layer metric {name!r} has no definition")
        source = per_function["per_setup" if function in SETUP_FUNCTIONS else "per_op"]
        values[name] = source.get(function, {}).get(field, 0.0)
    return values, per_function
