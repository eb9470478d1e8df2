"""Seeded benchmark of kvbudget: one workload per process, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan-longctx --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs the same loop untraced and then traced, and reports the
per-layer metrics. Every operation's output is checked. Human-readable
lines and one JSON detail line come first; the last line of standard
output is the result object ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` shrinks every shape so the harness can be exercised in seconds.
"""

from __future__ import annotations

import os

# Set before numpy is imported anywhere: the benchmark must stay one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# Every run holds at least this many timed operations, so at least ten
# lie beyond the 90th percentile.
MIN_OPS = 100
SMOKE_MIN_OPS = 4
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and its median reported, so neither one slow repetition
# nor a short slow spell of the host decides setup_s.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without starting a process."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _os_threads() -> int:
    task = Path("/proc/self/task")
    return len(list(task.iterdir())) if task.is_dir() else threading.active_count()


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile of values (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


class Runner:
    """Drives one workload: set-up, closed-loop measurement, checks, metrics."""

    def __init__(self, workload, seconds: float, min_ops: int):
        self.workload = workload
        self.seconds = seconds
        self.min_ops = min_ops

    def setup(self, tracer=None) -> list[float]:
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            self.workload.release()
            if tracer is not None:
                tracer.setups += 1
            start = time.perf_counter()
            self.workload.setup()
            times.append(time.perf_counter() - start)
        return times

    def measure(self, recorder) -> None:
        """Run whole cycles until both the time and the op floor are reached."""
        start = time.perf_counter()
        while True:
            self.workload.run_cycle(recorder)
            recorder.cycles += 1
            if time.perf_counter() - start >= self.seconds and recorder.ok >= self.min_ops:
                break
        recorder.wall_s = time.perf_counter() - start


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, no timing value")
    args = parser.parse_args(argv)

    if not (SRC / "kvbudget" / "__init__.py").is_file():
        print(f"error: kvbudget sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _load_spec()

    run_dir = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, smoke=args.smoke)
        runner = Runner(workload, args.seconds, SMOKE_MIN_OPS if args.smoke else MIN_OPS)
        tracer = None
        if args.trace:
            tracer = tracing.SpanRecorder()
            with tracing.installed(tracer):
                setup_times = runner.setup(tracer)
            untraced = workloads.Recorder()
            runner.measure(untraced)
            recorder = workloads.Recorder(tracer)
            tracer.phase = "measure"
            with tracing.installed(tracer):
                runner.measure(recorder)
        else:
            setup_times = runner.setup()
            recorder = workloads.Recorder()
            runner.measure(recorder)
        threads = _os_threads()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = recorder.latencies_ms
    p50 = statistics.median(lat) if lat else float("nan")
    p90 = _quantile(lat, 9) if len(lat) >= 2 else float("nan")
    busy_s = sum(lat) / 1000.0
    throughput = recorder.work / busy_s if busy_s > 0 else float("nan")
    quality = workload.quality()
    failed = recorder.failed
    # A thread or process left behind breaks the single-thread run condition.
    conditions_ok = threads == 1

    named = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "error_rate": (failed / recorder.attempted if recorder.attempted else float("nan"), "ratio"),
        workload.THROUGHPUT_NAME: (throughput, workload.THROUGHPUT_UNIT),
    }
    for name, (value, unit) in quality.items():
        named[name] = (value, unit)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "op_count": len(lat),
        "cycles": recorder.cycles,
        "measured_s": recorder.wall_s,
        "setup_runs_s": setup_times,
        "side_p50_ms": {kind: statistics.median(v) for kind, v in recorder.side_ms.items()},
        "threads_at_end": threads,
        "errors": recorder.errors[:5],
        "shapes": workload.describe(),
        "counters": workload.layer_counters(),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(ROOT),
        },
    }

    if args.trace:
        wanted = spec["per_layer"]
        values, detail["per_function"] = tracing.per_layer_metrics(
            tracer, recorder, untraced, workload, [m["name"] for m in wanted])
        spans_path = WORK_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        wanted = spec["end_to_end"]
        # The throughput has one generic name here, as every workload reports it.
        values = {name: value for name, (value, _) in named.items()}
        values["throughput"] = throughput

    for name, (value, unit) in named.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'op_count':32s} {len(lat)}")
    print(json.dumps({"detail": detail}, default=float))
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and conditions_ok,
        "attempted": recorder.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
