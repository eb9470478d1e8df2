"""Smoke tests of the benchmark harness at tiny shapes; not a timing gate.

The file name keeps it out of the default test collection. Run it from
the repository root with:

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120)


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = _run(ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_spec(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["tracing.coverage"]["value"] > 0.5


def test_quality_repeats_for_a_seed():
    first = _result("replay-decode", 0, seed=5)["metrics"]["quality.min_retained_info"]
    second = _result("replay-decode", 0, seed=5)["metrics"]["quality.min_retained_info"]
    assert first == second


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
