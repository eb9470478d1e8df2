"""The four benchmark workloads and the closed-loop recorder that times them.

Each workload generates its inputs from the workload seed during set-up,
then runs a fixed cycle of operations; the runner repeats whole cycles.
Every operation's output is checked outside the timed region. The first
time a case runs, its output becomes the reference that later cycles must
reproduce exactly, and its quality figures are recorded, so quality does
not depend on how many cycles fit into a run.

Why these four:

* plan-longctx: importance, priority sort, Lorenz stats and the allocator
  at LLM-scale shapes; cachesim, toymodel and trace I/O stay idle.
* replay-decode: cachesim eviction and merging over a Dirichlet trace with
  key/value vectors; planning happens only in set-up.
* toy-sweep: ``kvbudget.cli.main(["compare", ...])`` over a policy grid, so
  toymodel forward/decode and the repeated work of a sweep dominate.
* trace-io: JSON save and load of traces, which nothing else exercises.
"""

from __future__ import annotations

import csv
import math
import time
import traceback
from pathlib import Path

import numpy as np

from kvbudget import allocator, cachesim, cli, importance, lorenz
from kvbudget import trace as ktrace

# The CLI defaults: local-policy sinks and the decode protection window.
SINK = 4
PROTECT = cachesim.DEFAULT_PROTECT_DISTANCE
MIN_PER_LAYER = 1


class CheckFailed(Exception):
    """An operation returned output that violates its invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Recorder:
    """Times operations one at a time and counts the ones that fail.

    ``attempted`` and ``failed`` count every checked operation: the timed
    ones and, for replay-decode, the per-cell prefill.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.side_ms: dict[str, list[float]] = {}
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cycles = 0
        self.wall_s = 0.0

    @property
    def ok(self) -> int:
        return len(self.latencies_ms)

    def op(self, fn, check, work=0.0, kind: str = "op"):
        """Run ``fn`` timed, then ``check(output)`` untimed.

        Returns ``(True, output)``, or ``(False, None)`` when ``fn`` raised
        or the check failed. Only ``kind == "op"`` counts towards the
        latency percentiles and throughput; other kinds are kept apart.
        """
        return self.op_segments([(fn, check)], work, kind)

    def op_segments(self, segments, work=0.0, kind: str = "op"):
        """One operation made of ``(fn, check)`` segments run in turn.

        Each ``fn`` is timed and each ``check`` runs untimed right after
        it, so no intermediate state goes unchecked; the op's latency is
        the summed time of its ``fn`` calls. Returns as :meth:`op` does,
        with the output of the last segment.
        """
        self.attempted += 1
        tracer = self.tracer
        elapsed_ms = 0.0
        out = None
        for i, (fn, check) in enumerate(segments):
            span = tracer.begin(kind, root=True, same_op=i > 0) if tracer is not None else None
            start = time.perf_counter()
            try:
                out = fn()
            except Exception:  # a raising op is a failed op; the run goes on
                self._fail()
                return False, None
            finally:
                elapsed_ms += (time.perf_counter() - start) * 1e3
                if span is not None:
                    tracer.end(span)
            try:
                check(out)
            except Exception:  # CheckFailed, or a check tripping over malformed output
                self._fail()
                return False, None
        if kind == "op":
            self.latencies_ms.append(elapsed_ms)
            self.work += work(out) if callable(work) else work
        else:
            self.side_ms.setdefault(kind, []).append(elapsed_ms)
        return True, out

    def _fail(self) -> None:
        self.failed += 1
        self.errors.append(traceback.format_exc(limit=3).strip().splitlines()[-1])


def _seed_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def importance_trace(rng: np.random.Generator, layers: int, seq_len: int) -> ktrace.AttentionTrace:
    """An importance-only trace whose layers run from dispersed to concentrated.

    Layer l draws token importance from Gamma(k_l) with k_l falling
    geometrically from 4 to 0.05 (small k: a few tokens hold most mass),
    jittered per seed.
    """
    shapes = np.geomspace(4.0, 0.05, layers) * np.exp(0.1 * rng.standard_normal(layers))
    raw = rng.standard_gamma(shapes[:, None], size=(layers, seq_len))
    meta = ktrace.TraceMeta(layers=layers, heads=1, seq_len=seq_len, label="bench")
    trace = ktrace.AttentionTrace(meta=meta, importance=raw)
    trace.validate()
    return trace


def _concentration(rng: np.random.Generator, layers: int) -> np.ndarray:
    """Dirichlet row concentration per layer, dispersed (2) to concentrated (0.05)."""
    return np.geomspace(2.0, 0.05, layers) * np.exp(0.1 * rng.standard_normal(layers))


class Workload:
    NAME = ""
    THROUGHPUT_NAME = ""
    THROUGHPUT_UNIT = ""

    def __init__(self, seed: int, run_dir: Path, smoke: bool = False):
        self.seed = seed
        self.run_dir = run_dir
        self.reference: dict = {}
        self.case_quality: dict[int, dict[str, float]] = {}

    def release(self) -> None:
        """Drop generated inputs so a repeated set-up starts from nothing."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_cycle(self, rec: Recorder) -> None:
        raise NotImplementedError

    def describe(self) -> list:
        return []

    def layer_counters(self) -> dict[str, float]:
        """Per-layer counts measured by the workload itself (not by spans)."""
        return {}

    def quality(self) -> dict[str, tuple[float, str]]:
        """Mean over cases of each quality figure, from each case's first run."""
        names = {name for q in self.case_quality.values() for name in q}
        units = {"quality.min_retained_info": "share", "quality.mae": "abs"}
        out = {}
        for name in sorted(names):
            values = [q[name] for q in self.case_quality.values()]
            out[name] = (float(np.mean(values)), units[name])
        out.setdefault("quality.min_retained_info", (float("nan"), "share"))
        return out

    def _same_as_reference(self, key, value, equal) -> None:
        """Store the first output of a case; later outputs must equal it."""
        if key not in self.reference:
            self.reference[key] = value
        else:
            _require(equal(self.reference[key], value), f"case {key} is not reproducible")


# ---------------------------------------------------------------------------
# plan-longctx
# ---------------------------------------------------------------------------

# (kind, layers, seq_len, r). The mix is sized so the median falls inside
# the medium online class and the 90th percentile inside the large one,
# never on the boundary between two classes.
PLAN_CASES = [
    ("uniform", 32, 4096, 0.05),
    ("online", 48, 8192, 0.25),
    ("pyramid", 40, 4096, 0.5),
    ("online", 64, 16384, 0.3),
    ("local", 32, 6144, 0.2),
    ("online", 56, 8192, 0.4),
    ("online", 32, 4096, 0.1),
    ("offline-mean", 32, 8192, 0.45),
    ("online", 48, 10240, 0.7),
    ("online", 36, 4096, 0.3),
    ("online", 72, 16384, 0.55),
    ("online", 56, 10240, 0.05),
    ("online", 32, 5120, 0.6),
    ("online", 80, 32768, 0.2),
    ("online", 48, 12288, 0.35),
    ("offline-pooled", 32, 8192, 0.2),
    ("online", 40, 5120, 0.15),
    ("online", 64, 20480, 0.12),
    ("online", 64, 8192, 0.8),
    ("online", 32, 6144, 0.9),
]
SMOKE_PLAN_CASES = [
    ("online", 4, 256, 0.3),
    ("offline-mean", 3, 128, 0.4),
    ("offline-pooled", 3, 128, 0.2),
    ("uniform", 4, 128, 0.5),
    ("pyramid", 4, 128, 0.6),
    ("local", 4, 128, 0.25),
]
OFFLINE_SAMPLES = 2


def _plan_retained(config, seqs, traces) -> float:
    """Mean over samples of the minimum per-layer importance share kept at plan time."""
    counts = config.token_counts
    mins = []
    for seq, trace in zip(seqs, traces):
        if config.policy == "local":
            norm = trace.importance / trace.importance.sum(axis=1, keepdims=True)
            n = trace.meta.seq_len
            shares = []
            for l, c in enumerate(counts):
                sinks = min(SINK, int(c))
                shares.append(norm[l, :sinks].sum() + norm[l, n - (int(c) - sinks):].sum())
        else:
            shares = [seq.cumulative[l, int(c) - 1] if c > 0 else 0.0
                      for l, c in enumerate(counts)]
        mins.append(float(np.min(shares)))
    return float(np.mean(mins))


class PlanLongctx(Workload):
    NAME = "plan-longctx"
    THROUGHPUT_NAME = "plan.positions_per_s"
    THROUGHPUT_UNIT = "positions/s"

    def __init__(self, seed, run_dir, smoke=False):
        super().__init__(seed, run_dir, smoke)
        self.cases = SMOKE_PLAN_CASES if smoke else PLAN_CASES
        self.inputs: list[list[ktrace.AttentionTrace]] = []

    def release(self):
        self.inputs = []

    def setup(self):
        rng = _seed_rng(self.seed, 1)
        for kind, layers, seq_len, _ in self.cases:
            samples = OFFLINE_SAMPLES if kind.startswith("offline") else 1
            self.inputs.append([importance_trace(rng, layers, seq_len) for _ in range(samples)])
        smallest = min(range(len(self.cases)), key=lambda i: self.cases[i][1] * self.cases[i][2])
        self._op(smallest)

    def describe(self):
        return [list(c) for c in self.cases]

    def _op(self, index: int):
        kind, _, _, r = self.cases[index]
        traces = self.inputs[index]
        budget = allocator.BudgetSpec(r=r, min_tokens_per_layer=MIN_PER_LAYER)
        seqs, stats = [], []
        for trace in traces:
            seq = importance.priority_sequence(importance.compute_importance(trace))
            stats.append(lorenz.layer_stats(seq))
            seqs.append(seq)
        if kind == "online":
            config = allocator.plan_online(seqs[0], budget)
        elif kind.startswith("offline"):
            method = "per-sample-mean" if kind == "offline-mean" else "pooled-curve"
            config = allocator.estimate_offline(seqs, budget, method=method)
        else:
            config = allocator.baseline_config(kind, budget, traces[0].meta,
                                               sink_count=SINK if kind == "local" else None)
        return config, seqs, stats

    def _check(self, index: int, out) -> None:
        config, seqs, stats = out
        _, layers, seq_len, r = self.cases[index]
        counts = config.token_counts
        _require(len(counts) == layers, f"{len(counts)} layer counts for {layers} layers")
        total = int(round(r * layers * seq_len))
        _require(int(counts.sum()) == total, f"counts sum {int(counts.sum())} != {total}")
        _require(int(counts.min()) >= MIN_PER_LAYER and int(counts.max()) <= seq_len,
                 f"counts outside [{MIN_PER_LAYER}, {seq_len}]")
        for layer_stats in stats:
            ginis = [s.gini for s in layer_stats]
            _require(len(ginis) == layers and all(0.0 <= g <= 1.0 for g in ginis),
                     "Gini coefficients missing or outside [0, 1]")
        self._same_as_reference(index, counts.copy(), np.array_equal)
        if index not in self.case_quality:
            self.case_quality[index] = {
                "quality.min_retained_info": _plan_retained(config, seqs, self.inputs[index])}

    def run_cycle(self, rec):
        for index in range(len(self.cases)):
            positions = sum(t.meta.layers * t.meta.seq_len for t in self.inputs[index])
            rec.op(lambda: self._op(index), lambda out: self._check(index, out), work=positions)


# ---------------------------------------------------------------------------
# replay-decode
# ---------------------------------------------------------------------------

class ReplayDecode(Workload):
    NAME = "replay-decode"
    THROUGHPUT_NAME = "decode.layer_steps_per_s"
    THROUGHPUT_UNIT = "layer-steps/s"

    # Two heads instead of four halve the dense (L, H, N, N) trace; cache
    # sizes, and with them eviction and merge cost, depend on L and N only.
    LAYERS, HEADS, PREFILL, STEPS, STEPS_PER_OP = 16, 2, 768, 10, 2
    # At r=0.02 the deepest pyramid layers hold about 7 tokens; once more
    # steps than that fall inside the protect window of 10, they stay over
    # capacity, so the decode-time overshoot shows next to the undershoot.
    RATIOS = (0.02, 0.1, 0.3, 0.5)

    def __init__(self, seed, run_dir, smoke=False):
        super().__init__(seed, run_dir, smoke)
        if smoke:
            self.LAYERS, self.HEADS, self.PREFILL, self.STEPS = 3, 2, 48, 4
        self.cells = [(policy, mode, r) for r in self.RATIOS
                      for policy in allocator.POLICIES for mode in cachesim.MERGE_POLICIES]
        self.full = self.prefill = None
        self.configs: dict = {}
        self.counters: dict[str, float] = {}
        self.layer_live = np.zeros(self.LAYERS)
        self.layer_evictions = np.zeros(self.LAYERS)
        self.step_records = 0
        self.live_total = self.target_total = 0

    def release(self):
        self.full = self.prefill = None
        self.configs = {}

    def setup(self):
        rng = _seed_rng(self.seed, 2)
        conc = _concentration(rng, self.LAYERS)
        self.full = ktrace.synth_trace(self.LAYERS, self.HEADS, self.PREFILL + self.STEPS, conc,
                                       seed=int(rng.integers(2**31)), with_kv=True)
        self.prefill = ktrace.trace_prefix(self.full, self.PREFILL)
        seq = importance.priority_sequence(importance.compute_importance(self.prefill))
        for policy in allocator.POLICIES:
            for r in self.RATIOS:
                budget = allocator.BudgetSpec(r=r, min_tokens_per_layer=MIN_PER_LAYER)
                if policy == "prefixkv":
                    config = allocator.plan_online(seq, budget)
                else:
                    config = allocator.baseline_config(
                        policy, budget, self.prefill.meta,
                        sink_count=SINK if policy == "local" else None)
                self.configs[(policy, r)] = config
        state = cachesim.prefill_compress(self.prefill, self.configs[("prefixkv", 0.3)],
                                          protect_distance=PROTECT, merge_policy="feature")
        cachesim.replay_steps(self.full, state, 1)

    def describe(self):
        return {"layers": self.LAYERS, "heads": self.HEADS, "prefill": self.PREFILL,
                "steps_per_cell": self.STEPS, "cells": [list(c) for c in self.cells],
                "protect": PROTECT}

    def _check_prefill(self, state, config) -> None:
        for l in range(state.layers):
            _require(len(state.layer_caches[l]) == int(config.token_counts[l]),
                     f"layer {l} keeps {len(state.layer_caches[l])} positions after prefill, "
                     f"config says {int(config.token_counts[l])}")
        self._check_state(state, self.PREFILL, capacity_rule=False)

    def _check_state(self, state, length: int, count_into=None, capacity_rule=True) -> None:
        """Invariants of every layer after a decode step.

        Prefill keeps the configured counts, which may sit one above the
        floored decode-time capacity, so the capacity rule applies after
        steps only.
        """
        _require(state.current_len == length, f"current_len {state.current_len} != {length}")
        newest = length - 1
        local = state.config.policy == "local"
        sinks = (state.config.sink_count or 0) if local else 0
        for l in range(state.layers):
            cache = state.layer_caches[l]
            live = [entry.position for entry in cache]
            _require(len(set(live)) == len(live), f"layer {l} holds a position twice")
            _require(all(0 <= p < length for p in live), f"layer {l} holds a position >= {length}")
            if capacity_rule and len(cache) > state.capacity(l):
                eligible = [p for p in live
                            if newest - p >= state.protect_distance and not (local and p < sinks)]
                _require(not eligible, f"layer {l} over capacity with evictable entries")
                if count_into is not None:
                    count_into["over"] += 1
            merged = [q for entry in cache for q in entry.merged_from]
            seen = live + state.hard_evicted[l] + merged
            _require(len(seen) == length and set(seen) == set(range(length)),
                     f"layer {l}: live, evicted and merged positions do not partition 0..{length - 1}")

    def _record_cell(self, cell: int, r: float, state, over: int) -> None:
        """Counters and quality of a cell's first run, from its step log."""
        records = state.step_log
        for k, record in enumerate(records):
            length = self.PREFILL + k + 1
            sizes = record["layer_sizes"]
            self.layer_live += sizes
            self.live_total += sum(sizes)
            self.target_total += int(round(r * self.LAYERS * length))
            for event in record["evicted"]:
                key = "evictions" if event["merged_into"] is None else "merges"
                self.counters[key] = self.counters.get(key, 0) + 1
                self.layer_evictions[event["layer"]] += 1
        self.step_records += len(records)
        self.counters["over_capacity_layer_steps"] = (
            self.counters.get("over_capacity_layer_steps", 0) + over)
        self.case_quality[cell] = {"quality.min_retained_info": min(records[-1]["retained_info"])}

    def run_cycle(self, rec):
        # One op advances every (merge, r) cell of one policy by two steps,
        # checked after each step. The four policies cost about the same,
        # so every op holds the same mix of cheap and expensive cells; and
        # the capacity of an r=0.5 cell grows every other step, so its
        # steps alternate between a costly eviction and none. Two steps per
        # op hold one of each, so the latency percentiles do not fall
        # between classes of ops.
        for policy in allocator.POLICIES:
            states = {}
            for cell, (p, mode, r) in enumerate(self.cells):
                if p != policy:
                    continue
                config = self.configs[(policy, r)]
                ok, state = rec.op(
                    lambda: cachesim.prefill_compress(self.prefill, config,
                                                      protect_distance=PROTECT, merge_policy=mode),
                    lambda s: self._check_prefill(s, config), kind="prefill")
                if ok:
                    states[cell] = state
            tallies = {cell: {"over": 0} for cell in states if cell not in self.case_quality}

            def step():
                for state in states.values():
                    cachesim.replay_steps(self.full, state, 1)

            def check(k):
                for cell, state in states.items():
                    self._check_state(state, self.PREFILL + k + 1, tallies.get(cell))
                    if k == self.STEPS - 1:
                        live = [state.live_positions(l) for l in range(state.layers)]
                        self._same_as_reference(cell, live, lambda a, b: a == b)

            for k in range(0, self.STEPS, self.STEPS_PER_OP):
                segments = [(step, lambda _, j=j: check(j))
                            for j in range(k, k + self.STEPS_PER_OP)]
                ok, _ = rec.op_segments(segments,
                                        work=len(states) * self.LAYERS * self.STEPS_PER_OP)
                if not ok:
                    break
            if ok:
                for cell, tally in tallies.items():
                    self._record_cell(cell, self.cells[cell][2], states[cell], tally["over"])

    def layer_counters(self):
        out = {
            "cachesim.evictions": self.counters.get("evictions", 0),
            "cachesim.merges": self.counters.get("merges", 0),
            "cachesim.budget_fill": self.live_total / self.target_total if self.target_total else 0.0,
            "cachesim.over_capacity_layer_steps": self.counters.get("over_capacity_layer_steps", 0),
        }
        steps = max(self.step_records, 1)
        for l in range(self.LAYERS):
            out[f"cachesim.layer{l}.live_mean"] = self.layer_live[l] / steps
            out[f"cachesim.layer{l}.evictions"] = self.layer_evictions[l]
        return out


# ---------------------------------------------------------------------------
# toy-sweep
# ---------------------------------------------------------------------------

COMPARE_HEADER = ["budget", "policy", "merge", "min_retained_info", "mean_retained_info",
                  "mean_mae"]


class ToySweep(Workload):
    NAME = "toy-sweep"
    THROUGHPUT_NAME = "sweep.cells_per_s"
    THROUGHPUT_UNIT = "cells/s"

    BUDGETS = (0.1, 0.3, 0.6)
    MERGES = ("none", "feature")
    # Nine toy seeds per cycle average quality over 18 models, so it moves
    # little from one workload seed to the next.
    MODELS, TOY_SEEDS = 2, 9
    PROMPT, DECODE, TOY_LAYERS, TOY_DIM = 12, 3, 2, 32

    def __init__(self, seed, run_dir, smoke=False):
        super().__init__(seed, run_dir, smoke)
        if smoke:
            self.BUDGETS, self.TOY_SEEDS, self.PROMPT, self.DECODE = (0.3, 0.6), 2, 8, 2
        self.toy_seeds: list[int] = []

    def argv(self, index: int) -> list[str]:
        return ["compare", "--toy-seed", str(self.toy_seeds[index]),
                "--budgets", ",".join(repr(b) for b in self.BUDGETS),
                "--policies", ",".join(allocator.POLICIES),
                "--merge", ",".join(self.MERGES), "--runs", str(self.MODELS),
                "--prompt-len", str(self.PROMPT), "--decode-len", str(self.DECODE),
                "--toy-layers", str(self.TOY_LAYERS), "--toy-dim", str(self.TOY_DIM),
                "--out", str(self._csv(index))]

    def _csv(self, index: int) -> Path:
        return self.run_dir / f"compare-{index}.csv"

    @property
    def cells(self) -> int:
        return len(self.BUDGETS) * len(allocator.POLICIES) * len(self.MERGES) * self.MODELS

    def setup(self):
        rng = _seed_rng(self.seed, 3)
        self.toy_seeds = [int(s) for s in rng.integers(0, 2**20, size=self.TOY_SEEDS)]
        _require(cli.main(self.argv(0)) == 0, "warm-up compare failed")

    def describe(self):
        return {"argv": self.argv(0) if self.toy_seeds else None, "toy_seeds": self.toy_seeds,
                "cells_per_op": self.cells}

    def _check(self, index: int, code: int) -> None:
        _require(code == 0, f"compare exited with {code}")
        text = self._csv(index).read_text()
        rows = list(csv.reader(text.splitlines()))
        _require(rows and rows[0] == COMPARE_HEADER, f"unexpected CSV header {rows[:1]}")
        body = rows[1:]
        grid = {(repr(b), p, m) for b in self.BUDGETS for p in allocator.POLICIES
                for m in self.MERGES}
        _require(len(body) == len(grid) and {tuple(row[:3]) for row in body} == grid,
                 "CSV rows do not cover the budget x policy x merge grid")
        mins, maes = [], []
        for row in body:
            _require(len(row) == len(COMPARE_HEADER), f"ragged CSV row {row}")
            lo, mean, mae = (float(v) for v in row[3:])
            _require(all(math.isfinite(v) for v in (lo, mean, mae)), f"non-finite value in {row}")
            _require(mae >= 0.0, f"negative MAE in {row}")
            _require(0.0 <= lo <= mean <= 1.0 + 1e-12, f"retained info out of order in {row}")
            mins.append(lo)
            maes.append(mae)
        self._same_as_reference(index, text, str.__eq__)
        if index not in self.case_quality:
            self.case_quality[index] = {"quality.min_retained_info": float(np.mean(mins)),
                                        "quality.mae": float(np.mean(maes))}

    def run_cycle(self, rec):
        for index in range(len(self.toy_seeds)):
            rec.op(lambda: cli.main(self.argv(index)), lambda code: self._check(index, code),
                   work=self.cells)


# ---------------------------------------------------------------------------
# trace-io
# ---------------------------------------------------------------------------

# ("full", layers, heads, seq_len) traces carry attention plus key/value
# vectors; ("importance", layers, seq_len) traces are the shortcut form.
# Shapes run from L=80 to N=8192, but every file is about 0.7 MB of JSON,
# so all ops cost about the same and the latency percentiles do not fall
# between size classes.
IO_CASES = [
    ("importance", 4, 8192),
    ("full", 2, 2, 96),
    ("importance", 16, 2048),
    ("importance", 80, 410),
    ("full", 3, 2, 72),
    ("importance", 8, 4096),
    ("full", 4, 1, 96),
    ("importance", 64, 512),
    ("importance", 32, 1024),
    ("full", 3, 1, 112),
]
SMOKE_IO_CASES = [("importance", 4, 64), ("full", 2, 1, 16), ("importance", 8, 32)]


def _raw_importance(trace: ktrace.AttentionTrace) -> np.ndarray:
    if trace.is_shortcut:
        return trace.importance
    return trace.attention.sum(axis=2).mean(axis=1)


class TraceIO(Workload):
    NAME = "trace-io"
    THROUGHPUT_NAME = "trace.mb_per_s"
    THROUGHPUT_UNIT = "MB/s"

    FIELDS = ("attention", "importance", "keys", "values", "features")

    def __init__(self, seed, run_dir, smoke=False):
        super().__init__(seed, run_dir, smoke)
        self.cases = SMOKE_IO_CASES if smoke else IO_CASES
        self.traces: list[ktrace.AttentionTrace] = []
        self.path = run_dir / "trace.json"

    def release(self):
        self.traces = []

    def setup(self):
        rng = _seed_rng(self.seed, 4)
        for case in self.cases:
            if case[0] == "full":
                _, layers, heads, seq_len = case
                self.traces.append(ktrace.synth_trace(
                    layers, heads, seq_len, _concentration(rng, layers),
                    seed=int(rng.integers(2**31)), with_kv=True))
            else:
                self.traces.append(importance_trace(rng, case[1], case[2]))
        smallest = min(self.traces, key=lambda t: t.meta.layers * t.meta.seq_len)
        ktrace.save_trace(smallest, self.path)
        ktrace.load_trace(self.path)

    def describe(self):
        return [list(c) for c in self.cases]

    def _op(self, index: int):
        ktrace.save_trace(self.traces[index], self.path)
        return ktrace.load_trace(self.path)

    def _check(self, index: int, loaded) -> None:
        original = self.traces[index]
        _require(loaded.meta == original.meta, "meta changed in the round trip")
        for name in self.FIELDS:
            a, b = getattr(original, name), getattr(loaded, name)
            _require((a is None) == (b is None), f"field {name} appeared or vanished")
            _require(a is None or (a.dtype == b.dtype and np.array_equal(a, b)),
                     f"field {name} is not bit-exact after the round trip")
        if index not in self.case_quality:
            raw, back = _raw_importance(original), _raw_importance(loaded)
            norm = raw / raw.sum(axis=1, keepdims=True)
            kept = np.where(back == raw, norm, 0.0).sum(axis=1)
            self.case_quality[index] = {"quality.min_retained_info": float(kept.min())}

    def run_cycle(self, rec):
        for index in range(len(self.traces)):
            rec.op(lambda: self._op(index), lambda out: self._check(index, out),
                   work=lambda _: 2 * self.path.stat().st_size / 1e6)


WORKLOADS = {cls.NAME: cls for cls in (PlanLongctx, ReplayDecode, ToySweep, TraceIO)}
