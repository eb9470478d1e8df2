import csv
import hashlib
import json
import zipfile

import numpy as np
import pytest

from kvbudget import load_config, load_trace
from kvbudget.cli import main, parse_budget


def run(args, cwd):
    import os

    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


@pytest.fixture
def dirichlet_trace(tmp_path):
    code = run(
        ["synth", "--mode", "dirichlet", "--layers", "2", "--heads", "1",
         "--seq", "40", "--concentration", "0.05,5.0", "--kv", "--seed", "7",
         "--out", "t.json"],
        tmp_path,
    )
    assert code == 0
    return tmp_path / "t.json"


class TestSynth:
    def test_dirichlet_trace_is_valid(self, dirichlet_trace):
        trace = load_trace(dirichlet_trace)
        assert trace.meta.layers == 2
        assert trace.keys is not None
        assert (dirichlet_trace.parent / "t.json.manifest.json").exists()

    def test_toy_trace_is_valid(self, tmp_path):
        assert run(["synth", "--mode", "toy", "--layers", "4", "--heads", "2",
                    "--dim", "32", "--seq", "24", "--seed", "3", "--out", "toy.json"],
                   tmp_path) == 0
        trace = load_trace(tmp_path / "toy.json")
        assert trace.meta.layers == 4
        assert trace.features is not None

    def test_missing_out_is_usage_error(self, tmp_path):
        assert run(["synth", "--mode", "dirichlet"], tmp_path) == 1

    def test_bad_concentration_count(self, tmp_path):
        assert run(["synth", "--layers", "3", "--concentration", "1.0,2.0",
                    "--out", "x.json"], tmp_path) == 1

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KVBUDGET_SEED", "99")
        run(["synth", "--layers", "1", "--seq", "8", "--out", "a.json"], tmp_path)
        monkeypatch.delenv("KVBUDGET_SEED")
        run(["synth", "--layers", "1", "--seq", "8", "--seed", "99", "--out", "b.json"],
            tmp_path)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KVBUDGET_SEED", "abc")
        assert run(["synth", "--layers", "1", "--seq", "8", "--out", "a.json"], tmp_path) == 1
        assert "usage error: KVBUDGET_SEED" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestAnalyze:
    def test_uniform_importance_gives_zero_gini(self, tmp_path):
        doc = {"meta": {"layers": 2, "heads": 1, "seq_len": 6},
               "importance": [[1.0] * 6, [1.0] * 6]}
        (tmp_path / "u.json").write_text(json.dumps(doc))
        assert run(["analyze", "u.json"], tmp_path) == 0
        rows = read_csv(tmp_path / "gini.csv")
        assert len(rows) == 2
        assert all(abs(float(r["gini"])) < 1e-9 for r in rows)

    def test_gini_in_range_and_layer_filter(self, tmp_path, dirichlet_trace):
        assert run(["analyze", "t.json"], tmp_path) == 0
        rows = read_csv(tmp_path / "gini.csv")
        assert len(rows) == 2
        assert all(0.0 <= float(r["gini"]) < 1.0 for r in rows)
        assert run(["analyze", "t.json", "--layer", "1",
                    "--out-curves", "c1.csv", "--out-stats", "g1.csv"], tmp_path) == 0
        assert [r["layer"] for r in read_csv(tmp_path / "g1.csv")] == ["1"]
        curves = read_csv(tmp_path / "c1.csv")
        assert {r["layer"] for r in curves} == {"1"}
        assert len(curves) == 40

    def test_validation_error_exit_code(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({
            "meta": {"layers": 1, "heads": 1, "seq_len": 2},
            "attention": [[[[0.5, 0.6], [0.5, 0.5]]]],
        }))
        assert run(["analyze", "bad.json"], tmp_path) == 2


class TestPlan:
    def test_online_plan_budget_exact(self, tmp_path, dirichlet_trace):
        assert run(["plan", "--budget", "0.5", "--delta-tol", "0.025",
                    "--out", "c.json", "t.json"], tmp_path) == 0
        config = load_config(tmp_path / "c.json")
        assert config.token_counts.sum() == round(0.5 * 2 * 40)
        assert config.source == "online"
        assert config.policy == "prefixkv"

    def test_percentage_budget(self, tmp_path, dirichlet_trace):
        run(["plan", "--budget", "50%", "--out", "p.json", "t.json"], tmp_path)
        run(["plan", "--budget", "0.5", "--out", "f.json", "t.json"], tmp_path)
        assert (tmp_path / "p.json").read_text() == (tmp_path / "f.json").read_text()

    def test_offline_plan_records_samples(self, tmp_path):
        for i in range(3):
            run(["synth", "--layers", "2", "--seq", "24", "--concentration",
                 "0.1,2.0", "--seed", str(i), "--out", f"s{i}.json"], tmp_path)
        assert run(["plan", "--offline", "--budget", "0.5", "--out", "off.json",
                    "s0.json", "s1.json", "s2.json"], tmp_path) == 0
        config = load_config(tmp_path / "off.json")
        assert config.source == "offline"
        assert config.samples == 3

    def test_multiple_traces_without_offline_is_usage_error(self, tmp_path):
        for i in range(2):
            run(["synth", "--layers", "1", "--seq", "8", "--seed", str(i),
                 "--out", f"m{i}.json"], tmp_path)
        assert run(["plan", "--budget", "0.5", "--out", "x.json",
                    "m0.json", "m1.json"], tmp_path) == 1

    def test_infeasible_budget_exit_code(self, tmp_path, dirichlet_trace):
        assert run(["plan", "--budget", "0.001", "--layers-min", "1",
                    "--out", "x.json", "t.json"], tmp_path) == 3

    def test_baseline_policies(self, tmp_path, dirichlet_trace):
        assert run(["plan", "--budget", "0.5", "--policy", "pyramid",
                    "--out", "py.json", "t.json"], tmp_path) == 0
        config = load_config(tmp_path / "py.json")
        assert config.policy == "pyramid"
        assert config.threshold is None
        assert run(["plan", "--budget", "0.5", "--policy", "local", "--sink", "2",
                    "--out", "lo.json", "t.json"], tmp_path) == 0
        assert load_config(tmp_path / "lo.json").sink_count == 2


class TestSimulate:
    def test_replay_with_config(self, tmp_path, dirichlet_trace):
        run(["plan", "--budget", "0.5", "--prefill", "32", "--out", "c.json",
             "t.json"], tmp_path)
        assert run(["simulate", "--config", "c.json", "--trace", "t.json",
                    "--steps", "8", "--protect", "4"], tmp_path) == 0
        records = [json.loads(line) for line in
                   (tmp_path / "sim.jsonl").read_text().splitlines()]
        assert len(records) == 8
        config = load_config(tmp_path / "c.json")
        for rec in records:
            t = 32 + rec["step"]
            for l, size in enumerate(rec["layer_sizes"]):
                assert size <= max(1, int(config.ratios[l] * t)) + 1
        info = read_csv(tmp_path / "retained_info.csv")
        assert {r["step"] for r in info} == {str(i) for i in range(9)}

    def test_merge_feature_logs_targets(self, tmp_path, dirichlet_trace):
        run(["plan", "--budget", "0.3", "--prefill", "32", "--out", "c.json",
             "t.json"], tmp_path)
        assert run(["simulate", "--config", "c.json", "--trace", "t.json",
                    "--steps", "8", "--merge", "feature", "--protect", "2",
                    "--out-log", "m.jsonl"], tmp_path) == 0
        records = [json.loads(line) for line in
                   (tmp_path / "m.jsonl").read_text().splitlines()]
        events = [ev for rec in records for ev in rec["evicted"]]
        assert events
        assert all(ev["merged_into"] is not None for ev in events)

    def test_full_budget_disturb_is_zero(self, tmp_path):
        assert run(["simulate", "--budget", "1.0", "--toy-seed", "5",
                    "--toy-layers", "4", "--toy-dim", "32", "--prompt-len", "24",
                    "--steps", "4", "--disturb"], tmp_path) == 0
        rows = read_csv(tmp_path / "disturbance.csv")
        assert len(rows) == 4 * 4
        assert all(float(r["mae"]) == 0.0 for r in rows)

    def test_disturb_requires_toy_mode(self, tmp_path, dirichlet_trace):
        assert run(["simulate", "--budget", "0.5", "--trace", "t.json",
                    "--steps", "4", "--disturb"], tmp_path) == 1

    def test_config_trace_length_mismatch(self, tmp_path, dirichlet_trace):
        run(["plan", "--budget", "0.5", "--out", "c.json", "t.json"], tmp_path)
        assert run(["simulate", "--config", "c.json", "--trace", "t.json",
                    "--steps", "8"], tmp_path) == 2

    @pytest.mark.parametrize("steps", ["0", "4"])
    def test_config_prompt_length_mismatch(self, tmp_path, steps):
        run(["synth", "--mode", "toy", "--layers", "4", "--heads", "2", "--dim", "32",
             "--seq", "20", "--seed", "5", "--out", "toy.json"], tmp_path)
        assert run(["plan", "--budget", "0.5", "--out", "c20.json", "toy.json"], tmp_path) == 0
        assert run(["simulate", "--config", "c20.json", "--toy-seed", "5",
                    "--toy-layers", "4", "--toy-heads", "2", "--toy-dim", "32",
                    "--prompt-len", "24", "--steps", steps], tmp_path) == 2


class TestGoldenOutputs:
    """Trace-mode ``simulate`` output pinned byte for byte.

    The digests were recorded from the per-entry cache implementation
    that the array-backed one replaced; any drift in eviction order,
    merge targets or retained shares changes them.
    """

    LOG = {
        "none": "b029cbf22acca7103f7d90f819dccf166e098a359831f626a4cb95cd10fe9f01",
        "position": "4056e3c332d3fc2d78c1797156dd9bfd1e2f6fa817ba53bd71866cf0bbe93474",
        "feature": "6bac7d4cf61033a74591d98cbead40dbdb43833749b1522d03c40227d76fb465",
    }
    INFO = "1b5a835c167f0ae39e8e86304962c3e0fce7a8f21f1911e0d982682b67ce606a"

    @pytest.mark.parametrize("mode", ["none", "position", "feature"])
    def test_simulate_digests(self, tmp_path, mode):
        assert run(["synth", "--layers", "3", "--heads", "2", "--seq", "72",
                    "--concentration", "0.1,1.0,4.0", "--kv", "--seed", "13",
                    "--out", "t.json"], tmp_path) == 0
        assert run(["simulate", "--trace", "t.json", "--budget", "0.3", "--steps", "16",
                    "--merge", mode, "--protect", "4"], tmp_path) == 0

        def digest(name):
            return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

        assert digest("sim.jsonl") == self.LOG[mode]
        assert digest("retained_info.csv") == self.INFO


class TestCompare:
    def test_policy_grid(self, tmp_path, dirichlet_trace):
        assert run(["compare", "--budgets", "0.3,0.6",
                    "--policies", "prefixkv,uniform,pyramid,local",
                    "--sink", "2", "--out", "grid.csv", "t.json"], tmp_path) == 0
        rows = read_csv(tmp_path / "grid.csv")
        assert len(rows) == 8
        by_key = {(r["budget"], r["policy"]): float(r["min_retained_info"]) for r in rows}
        for budget in ("0.3", "0.6"):
            assert by_key[(budget, "prefixkv")] >= by_key[(budget, "uniform")] - 0.05

    def test_single_cell(self, tmp_path, dirichlet_trace):
        assert run(["compare", "--budgets", "0.5", "--policies", "prefixkv",
                    "--out", "one.csv", "t.json"], tmp_path) == 0
        assert len(read_csv(tmp_path / "one.csv")) == 1

    def test_empty_budget_list_is_usage_error(self, tmp_path, dirichlet_trace):
        assert run(["compare", "--budgets", ",", "--out", "x.csv", "t.json"],
                   tmp_path) == 1

    def test_toy_mode_reports_mae(self, tmp_path):
        assert run(["compare", "--budgets", "0.5", "--policies", "prefixkv,uniform",
                    "--toy-seed", "2", "--runs", "2", "--toy-layers", "4",
                    "--toy-dim", "32", "--prompt-len", "24", "--decode-len", "4",
                    "--out", "toy.csv"], tmp_path) == 0
        rows = read_csv(tmp_path / "toy.csv")
        assert len(rows) == 2
        assert all("mean_mae" in r for r in rows)


class TestManifests:
    def test_replay_reproduces_bit_exactly(self, tmp_path, dirichlet_trace):
        run(["plan", "--budget", "0.4", "--prefill", "32", "--out", "c.json",
             "t.json"], tmp_path)
        run(["simulate", "--config", "c.json", "--trace", "t.json", "--steps", "6",
             "--merge", "position", "--protect", "4"], tmp_path)
        log_bytes = (tmp_path / "sim.jsonl").read_bytes()
        info_bytes = (tmp_path / "retained_info.csv").read_bytes()
        assert run(["replay", "sim.jsonl.manifest.json"], tmp_path) == 0
        assert (tmp_path / "sim.jsonl").read_bytes() == log_bytes
        assert (tmp_path / "retained_info.csv").read_bytes() == info_bytes

    def test_toy_simulate_replay_reproduces_bit_exactly(self, tmp_path):
        assert run(["simulate", "--budget", "0.4", "--toy-seed", "3", "--toy-layers", "4",
                    "--toy-dim", "32", "--prompt-len", "24", "--steps", "6",
                    "--merge", "position", "--protect", "3", "--disturb"], tmp_path) == 0
        names = ["sim.jsonl", "retained_info.csv", "disturbance.csv"]
        before = [(tmp_path / name).read_bytes() for name in names]
        assert run(["replay", "sim.jsonl.manifest.json"], tmp_path) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == before

    def test_toy_compare_replay_reproduces_bit_exactly(self, tmp_path):
        assert run(["compare", "--budgets", "0.3,0.6", "--policies", "prefixkv,local",
                    "--merge", "none,feature", "--toy-seed", "4", "--runs", "2",
                    "--toy-layers", "3", "--toy-dim", "32", "--prompt-len", "20",
                    "--decode-len", "4", "--out", "toy.csv"], tmp_path) == 0
        before = (tmp_path / "toy.csv").read_bytes()
        assert run(["replay", "toy.csv.manifest.json"], tmp_path) == 0
        assert (tmp_path / "toy.csv").read_bytes() == before

    def test_manifest_lists_outputs_and_version(self, tmp_path, dirichlet_trace):
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == ["t.json"]
        assert manifest["seed"] == 7
        assert manifest["tool_version"]

    def test_rerun_is_byte_stable(self, tmp_path, dirichlet_trace):
        run(["analyze", "t.json"], tmp_path)
        first = (tmp_path / "lorenz.csv").read_bytes()
        run(["analyze", "t.json"], tmp_path)
        assert (tmp_path / "lorenz.csv").read_bytes() == first

    def test_synth_replay_reproduces_trace(self, tmp_path, dirichlet_trace):
        original = dirichlet_trace.read_bytes()
        assert run(["replay", "t.json.manifest.json"], tmp_path) == 0
        assert dirichlet_trace.read_bytes() == original

    def test_replay_rejects_bad_manifest(self, tmp_path):
        (tmp_path / "bad.manifest.json").write_text("{}")
        assert run(["replay", "bad.manifest.json"], tmp_path) == 2


@pytest.fixture(scope="module")
def input_trace(tmp_path_factory):
    """A small trace kept outside the directory the refused commands run in."""
    path = tmp_path_factory.mktemp("input") / "t.json"
    assert run(["synth", "--layers", "2", "--seq", "24", "--kv", "--seed", "1",
                "--out", str(path)], path.parent) == 0
    return str(path)


@pytest.mark.parametrize("argv", [
    ["simulate", "--toy-seed", "1", "--toy-dim", "30", "--budget", "0.3"],
    ["simulate", "--toy-seed", "1", "--prompt-len", "0", "--budget", "0.3"],
    ["simulate", "--toy-seed", "1", "--protect", "0", "--budget", "0.3"],
    ["compare", "--toy-seed", "1", "--decode-len", "0", "--budgets", "0.3"],
    ["simulate", "--toy-seed", "1", "--steps", "-1", "--budget", "0.3"],
    ["compare", "--budgets", "0.3", "--policies", "foo", "TRACE"],
    ["compare", "--budgets", "0.3", "--merge", "bogus", "TRACE"],
    ["plan", "--budget", "0.3", "--policy", "local", "--sink", "-1", "TRACE"],
    ["simulate", "--trace", "TRACE", "--steps", "4", "--budget", "0.3",
     "--policy", "local", "--sink", "-1"],
    ["compare", "--budgets", "0.3", "--policies", "local", "--sink", "-1", "TRACE"],
    ["synth", "--concentration", "0", "--out", "t.json"],
    ["synth", "--mode", "toy", "--heads", "0", "--out", "t.json"],
    ["synth", "--mode", "toy", "--vocab", "0", "--out", "t.json"],
    ["synth", "--mode", "toy", "--dim", "0", "--out", "t.json"],
    ["synth", "--mode", "toy", "--dim", "8", "--heads", "3", "--out", "t.json"],
    ["synth", "--concentration", "abc", "--out", "t.json"],
    ["synth", "--mode", "toy", "--seq", "-1", "--out", "t.json"],
    ["synth", "--seed", "-1", "--out", "t.json"],
    ["simulate", "--toy-seed", "-1", "--budget", "0.3"],
], ids=["toy-dim", "prompt-len", "protect", "decode-len", "steps",
        "compare-policy", "compare-merge", "plan-sink", "simulate-sink", "compare-sink",
        "synth-concentration", "toy-heads", "toy-vocab", "toy-dim-zero", "toy-divisibility",
        "concentration-text", "toy-seq", "synth-seed", "toy-seed"])
def test_bad_run_values_are_usage_errors(tmp_path, capsys, input_trace, argv):
    argv = [input_trace if arg == "TRACE" else arg for arg in argv]
    assert run(argv, tmp_path) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def nan_trace(tmp_path_factory):
    """A two-layer trace with one NaN attention entry on the diagonal."""
    attention = [[[[1.0, 0.0], [0.6, 0.4]]], [[[1.0, 0.0], [0.5, float("nan")]]]]
    path = tmp_path_factory.mktemp("input") / "nan.json"
    path.write_text(json.dumps({"meta": {"layers": 2, "heads": 1, "seq_len": 2},
                                "attention": attention}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["plan", "--budget", "0.5", "TRACE"],
    ["analyze", "TRACE"],
], ids=["plan", "analyze"])
def test_non_finite_trace_is_validation_error(tmp_path, capsys, nan_trace, argv):
    argv = [nan_trace if arg == "TRACE" else arg for arg in argv]
    assert run(argv, tmp_path) == 2
    assert "error: non-finite attention value nan at index (1, 0, 1, 1)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["plan", "--budget", "0.5", "missing.json"],
    ["analyze", "missing.json"],
    ["plan", "--budget", "0.5", "--out", "missing/config.json", "TRACE"],
], ids=["plan-input", "analyze-input", "plan-output"])
def test_unreadable_or_unwritable_paths_exit_2(tmp_path, capsys, input_trace, argv):
    argv = [input_trace if arg == "TRACE" else arg for arg in argv]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert not list(tmp_path.iterdir())


def test_parse_budget_forms():
    assert parse_budget("0.5") == 0.5
    assert parse_budget("50%") == 0.5
    assert parse_budget(0.25) == 0.25
    with pytest.raises(Exception):
        parse_budget("half")


class TestAllOrNothingOutputs:
    def test_analyze_leaves_nothing_when_a_later_output_fails(self, tmp_path, capsys,
                                                             input_trace):
        argv = ["analyze", input_trace, "--out-curves", "c.csv", "--out-stats", "nodir/g.csv"]
        assert run(argv, tmp_path) == 2
        assert "nodir/g.csv" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("extra", [
        ["--trace", "TRACE", "--out-info", "nodir/i.csv"],
        ["--toy-seed", "2", "--toy-layers", "2", "--toy-heads", "2", "--toy-dim", "16",
         "--prompt-len", "12", "--disturb", "--out-disturb", "nodir/d.csv"],
    ], ids=["info", "disturb"])
    def test_simulate_leaves_nothing_when_a_later_output_fails(self, tmp_path, capsys,
                                                              input_trace, extra):
        argv = ["simulate", "--budget", "0.5", "--steps", "4",
                *(input_trace if arg == "TRACE" else arg for arg in extra)]
        assert run(argv, tmp_path) == 2
        assert "nodir/" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def _count_importance_passes(monkeypatch):
    """Count compute_importance calls made through the CLI and the cache simulator."""
    import kvbudget.cachesim
    import kvbudget.cli

    calls = []
    original = kvbudget.cli.compute_importance

    def counted(trace):
        calls.append(trace.meta)
        return original(trace)

    for module in (kvbudget.cli, kvbudget.cachesim):
        monkeypatch.setattr(module, "compute_importance", counted)
    return calls


class TestOneImportancePass:
    def test_trace_compare(self, tmp_path, monkeypatch):
        for seed in ("1", "2"):
            assert run(["synth", "--layers", "2", "--heads", "2", "--seq", "30", "--kv",
                        "--seed", seed, "--out", f"t{seed}.json"], tmp_path) == 0
        calls = _count_importance_passes(monkeypatch)
        assert run(["compare", "--budgets", "0.3,0.6", "--merge", "none,feature",
                    "--steps", "4", "t1.json", "t2.json"], tmp_path) == 0
        assert len(calls) == 2

    def test_toy_compare(self, tmp_path, monkeypatch):
        calls = _count_importance_passes(monkeypatch)
        assert run(["compare", "--budgets", "0.3,0.6", "--toy-seed", "4", "--toy-layers", "2",
                    "--toy-heads", "2", "--toy-dim", "16", "--prompt-len", "12",
                    "--decode-len", "3", "--runs", "2"], tmp_path) == 0
        assert len(calls) == 2


class TestNpzTraces:
    def test_compare_over_json_and_npz_twins_is_identical(self, tmp_path):
        for name in ("t.json", "t.npz"):
            assert run(["synth", "--layers", "3", "--heads", "2", "--seq", "40", "--kv",
                        "--concentration", "0.1,1.0,4.0", "--seed", "9", "--out", name],
                       tmp_path) == 0
        assert zipfile.is_zipfile(tmp_path / "t.npz")
        for name in ("t.json", "t.npz"):
            assert run(["compare", "--budgets", "0.2,0.5", "--merge", "none,feature",
                        "--steps", "6", "--out", f"{name}.csv", name], tmp_path) == 0
        assert (tmp_path / "t.json.csv").read_bytes() == (tmp_path / "t.npz.csv").read_bytes()

    @staticmethod
    def _twins(tmp_path, name, doc):
        """The same trace document as JSON and as .npz."""
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        arrays = {"meta": np.array(json.dumps(doc["meta"]))}
        arrays.update({k: np.asarray(v) for k, v in doc.items() if k != "meta"})
        np.savez(tmp_path / f"{name}.npz", **arrays)
        return [tmp_path / f"{name}.json", tmp_path / f"{name}.npz"]

    def test_corrupt_twins_fail_alike(self, tmp_path, capsys):
        meta = {"layers": 1, "heads": 1, "seq_len": 2, "label": "", "seed": None}
        good = [[[[1.0, 0.0], [0.6, 0.4]]]]
        cases = {
            "nan": {"meta": meta, "attention": [[[[1.0, 0.0], [float("nan"), 0.4]]]]},
            "type-swapped": {"meta": meta, "attention": "not an array"},
            "wrong-shape": {"meta": meta, "attention": [[[[1.0, 0.0, 0.0]] * 2]]},
            "bool-meta": {"meta": {**meta, "layers": True}, "attention": good},
        }
        paths = [p for name, doc in cases.items() for p in self._twins(tmp_path, name, doc)]
        self._twins(tmp_path, "good", {"meta": meta, "attention": good})
        for good_path in (tmp_path / "good.json", tmp_path / "good.npz"):
            truncated = tmp_path / f"truncated{good_path.suffix}"
            data = good_path.read_bytes()
            truncated.write_bytes(data[:len(data) // 2])
            paths.append(truncated)
        out = tmp_path / "out"
        out.mkdir()
        for path in paths:
            assert run(["analyze", str(path)], out) == 2, path.name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert not list(out.iterdir())
        for name in ("good.json", "good.npz"):
            assert run(["analyze", str(tmp_path / name)], out) == 0


def test_oversized_synth_is_refused_before_allocating(tmp_path, capsys):
    # 10^12 positions: without the guard the first allocation fails at once.
    assert run(["synth", "--seq", str(10**12), "--out", "t.npz"], tmp_path) == 2
    assert "above the limit" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
