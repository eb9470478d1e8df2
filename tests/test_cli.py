import csv
import hashlib
import json
import shlex
import zipfile
from pathlib import Path

import numpy as np
import pytest

from kvbudget import (
    AttentionTrace,
    BudgetSpec,
    TraceMeta,
    compute_importance,
    finalize_config,
    layer_stats,
    load_config,
    load_trace,
    priority_sequence,
    save_trace,
)
from kvbudget.allocator import _search
from kvbudget.cli import _recorded_args, build_parser, main, parse_budget


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


def test_readme_walkthrough_runs(tmp_path):
    # Every command of the README's CLI walkthrough, in order, after the
    # sample traces its offline example reads.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("kvbudget ")]
    assert {argv[1] for argv in commands} == {"synth", "analyze", "plan", "simulate", "compare"}
    for i in (1, 2, 3):
        assert run(["synth", "--layers", "2", "--seq", "64", "--seed", str(i),
                    "--out", f"s{i}.json"], tmp_path) == 0
    for argv in commands:
        assert run(argv[1:], tmp_path) == 0, argv


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

    def test_streamed_curve_rows_match_per_point_rows(self, tmp_path, dirichlet_trace):
        assert run(["analyze", str(dirichlet_trace)], tmp_path) == 0
        stats = layer_stats(priority_sequence(compute_importance(load_trace(dirichlet_trace))))
        rows = [f"{s.layer},{float(x)!r},{float(y)!r}"
                for s in stats for x, y in zip(s.curve.x, s.curve.y)]
        assert (tmp_path / "lorenz.csv").read_text() == "\n".join(["layer,x,y", *rows]) + "\n"

    def test_validation_error_exit_code(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({
            "meta": {"layers": 1, "heads": 1, "seq_len": 2},
            "attention": [[[[0.5, 0.6], [0.5, 0.5]]]],
        }))
        assert run(["analyze", "bad.json"], tmp_path) == 2


class TestPlan:
    def test_online_plan_budget_exact(self, tmp_path, dirichlet_trace):
        assert run(["plan", "--budget", "0.5", "--out", "c.json", "t.json"], tmp_path) == 0
        config = load_config(tmp_path / "c.json")
        assert config.token_counts.sum() == round(0.5 * 2 * 40)
        assert config.samples is None
        assert config.policy == "prefixkv"

    def test_counts_do_not_depend_on_the_search_tolerance(self, tmp_path):
        # Eight layers from dispersed to concentrated importance, as the
        # plan benchmark draws them. The search stops at a different
        # threshold for each tolerance; the plan is the global prefix anyway,
        # so the command line has no tolerance to set.
        rng = np.random.default_rng([7, 1])
        shapes = np.geomspace(4.0, 0.05, 8) * np.exp(0.1 * rng.standard_normal(8))
        raw = rng.standard_gamma(shapes[:, None], size=(8, 512))
        trace = AttentionTrace(meta=TraceMeta(layers=8, heads=1, seq_len=512), importance=raw)
        save_trace(trace, tmp_path / "t.npz")
        assert run(["plan", "--budget", "0.3", "--out", "c.json", "t.npz"], tmp_path) == 0
        counts = load_config(tmp_path / "c.json").token_counts.tolist()
        seq = priority_sequence(compute_importance(trace))
        budget = BudgetSpec(r=0.3)
        for tol in (0.0, 0.025, 0.1):
            config = finalize_config(seq, _search(seq.cumulative, budget, delta_tol=tol), budget)
            assert config.token_counts.tolist() == counts
        assert sum(counts) == round(0.3 * 8 * 512)

    @pytest.mark.parametrize("command", [
        ["plan", "--budget", "0.5", "t.json"],
        ["simulate", "--budget", "0.5", "--trace", "t.json", "--steps", "2"],
        ["compare", "--budgets", "0.5", "t.json"],
    ], ids=["plan", "simulate", "compare"])
    @pytest.mark.parametrize("flag", ["--delta-tol=0.01", "--max-steps=4"])
    def test_search_settings_are_not_flags(self, tmp_path, capsys, dirichlet_trace, command,
                                           flag):
        assert run([*command, flag], tmp_path) == 1
        assert capsys.readouterr().err == f"usage error: unrecognized arguments: {flag}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json", "t.json.manifest.json"]

    def test_documents_that_record_search_settings(self, tmp_path, capsys, dirichlet_trace):
        # Configurations and manifests written while the budget carried the
        # search tolerance and step limit. The configuration's extra keys
        # never changed a count, so it simulates as before; a manifest
        # records flags, and these flags are gone.
        assert run(["plan", "--budget", "0.5", "--prefill", "32", "--out", "c.json", "t.json"],
                   tmp_path) == 0
        config = json.loads((tmp_path / "c.json").read_text())
        config["budget"] = {"r": 0.5, "delta_tol": 0.025, "max_steps": 32,
                            "min_tokens_per_layer": 1}
        (tmp_path / "old.json").write_text(json.dumps(config))
        outputs = {}
        for name in ("c.json", "old.json"):
            assert run(["simulate", "--config", name, "--trace", "t.json", "--steps", "8",
                        "--out-log", f"{name}.jsonl", "--out-info", f"{name}.csv"],
                       tmp_path) == 0
            outputs[name] = [(tmp_path / f"{name}{suffix}").read_bytes()
                             for suffix in (".jsonl", ".csv")]
        assert outputs["c.json"] == outputs["old.json"]

        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        manifest["params"].update(delta_tol=0.025, max_steps=32)
        (tmp_path / "old.manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "c.json").unlink()
        assert run(["replay", "old.manifest.json"], tmp_path) == 2
        assert capsys.readouterr().err == ("error: manifest parameters ['delta_tol', "
                                           "'max_steps'] do not belong to command 'plan'\n")
        assert not (tmp_path / "c.json").exists()

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
        assert config.samples == 3

    def test_multiple_traces_without_offline_is_usage_error(self, tmp_path):
        for i in range(2):
            run(["synth", "--layers", "1", "--seq", "8", "--seed", str(i),
                 "--out", f"m{i}.json"], tmp_path)
        assert run(["plan", "--budget", "0.5", "--out", "x.json",
                    "m0.json", "m1.json"], tmp_path) == 1

    def test_infeasible_budget_exit_code(self, tmp_path, dirichlet_trace):
        assert run(["plan", "--budget", "0.001", "--min-per-layer", "1",
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
                assert size <= max(1, int(config.token_counts[l]) * t // 32) + 1
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

    def test_config_and_budget_together_are_a_usage_error(self, tmp_path, capsys,
                                                          dirichlet_trace):
        # The budget used to be ignored, yet recorded in the manifest.
        assert run(["plan", "--budget", "0.25", "--out", "c.json", "t.json"], tmp_path) == 0
        assert run(["simulate", "--config", "c.json", "--budget", "0.9", "--trace", "t.json",
                    "--steps", "0"], tmp_path) == 1
        assert capsys.readouterr().err == "usage error: pass exactly one of --config or --budget\n"
        assert not (tmp_path / "sim.jsonl").exists()

    @pytest.mark.parametrize("steps", ["40", "41"])
    def test_steps_leaving_no_prefill_exit_2(self, tmp_path, capsys, dirichlet_trace, steps):
        assert run(["simulate", "--budget", "0.5", "--trace", "t.json",
                    "--steps", steps], tmp_path) == 2
        assert f"trace of length 40 too short for {steps} steps" in capsys.readouterr().err
        assert not (tmp_path / "sim.jsonl").exists()

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

    NO_THRESHOLD = dict.fromkeys(["p", "steps", "delta_final", "converged"])

    @pytest.mark.parametrize("patch, message", [
        ({"token_counts": [3, 3]}, "token_counts sum to 6, not the budget's 20 tokens"),
        ({"token_counts": [0, 40]}, "token_counts must lie in [1, 40], got [0, 40]"),
        ({"token_counts": [-1, 21]}, "token_counts must lie in [1, 40], got [-1, 21]"),
        ({"token_counts": [10**20, 1]}, "malformed configuration document"),
        ({"seq_len": 0}, "seq_len must be at least 1, got 0"),
        ({"token_counts": []}, "at least one layer"),
        ({"token_counts": 20}, "a list of token counts"),
        ({"policy": "local"}, "this local plan lacks one"),
        ({"sink_count": 2}, "this prefixkv plan has one"),
        ({"policy": "local", "sink_count": -1, **NO_THRESHOLD},
         "field 'sink_count' must lie in [0, inf], got -1"),
        ({"policy": "uniform"}, "this uniform plan has them"),
        ({"converged": None}, "malformed configuration document: 'converged'"),
        ({"converged": "no"}, "field 'converged' must be true or false, got 'no'"),
        ({"p": 7.0}, "field 'p' must lie in [0.0, 1.0], got 7.0"),
        ({"steps": -1}, "field 'steps' must lie in [0, inf], got -1"),
        ({"policy": "pyramid", "samples": 2, **NO_THRESHOLD},
         "samples belong to offline prefixkv plans only, not to a pyramid plan"),
        ({"samples": 0}, "field 'samples' must lie in [1, inf], got 0"),
    ], ids=["off-budget", "below-floor", "negative", "huge", "zero-len", "no-layers",
            "counts-number", "local-without-sink", "sink-on-prefixkv", "negative-sink",
            "threshold-on-baseline", "partial-threshold", "converged-text", "p-range",
            "negative-steps", "samples-on-baseline", "zero-samples"])
    def test_config_breaking_an_invariant_exits_2(self, tmp_path, capsys, dirichlet_trace,
                                                  patch, message):
        # Counts off the budget or below the floor used to simulate and
        # exit 0, as did a local plan without sink_count, threshold fields
        # out of range and fields on plans they do not belong to; a count
        # too large for int64 ended in an OverflowError traceback. A None
        # in the patch removes that field.
        assert run(["plan", "--budget", "0.25", "--out", "c.json", "t.json"], tmp_path) == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        bad = {k: v for k, v in {**doc, **patch}.items() if v is not None}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        assert run(["simulate", "--config", "bad.json", "--trace", "t.json", "--steps", "0"],
                   tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "sim.jsonl").exists()
        assert not (tmp_path / "retained_info.csv").exists()


@pytest.mark.parametrize("patch, message", [
    ({"seq_len": None}, "malformed configuration document: 'seq_len'"),
    ({"p": None}, "malformed configuration document: 'p'"),
    ({"steps": None}, "malformed configuration document: 'steps'"),
    ({"delta_final": None}, "malformed configuration document: 'delta_final'"),
    ({"policy": "foo"}, "unknown policy 'foo'"),
], ids=["null-seq-len", "null-p", "null-steps", "null-delta-final", "unknown-policy"])
def test_config_with_a_null_or_unknown_value_exits_2(tmp_path, capsys, dirichlet_trace, patch,
                                                     message):
    # A null is written as such: it reads as an absent field. The seq_len
    # one used to end in a TypeError traceback, and the threshold ones to
    # simulate and exit 0.
    assert run(["plan", "--budget", "0.25", "--out", "c.json", "t.json"], tmp_path) == 0
    doc = json.loads((tmp_path / "c.json").read_text())
    (tmp_path / "bad.json").write_text(json.dumps({**doc, **patch}))
    assert run(["simulate", "--config", "bad.json", "--trace", "t.json", "--steps", "0"],
               tmp_path) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sim.jsonl").exists()


def test_capacity_comes_from_the_counts_alone(tmp_path):
    # A document whose ratios contradict its counts: prefill kept 36
    # positions in layer 0, and the first step cut it to floor(0.1 * 41) = 4.
    assert run(["synth", "--layers", "2", "--seq", "41", "--seed", "3", "--out", "t.json"],
               tmp_path) == 0
    (tmp_path / "c.json").write_text(json.dumps({
        "budget": {"r": 0.5, "min_tokens_per_layer": 1}, "seq_len": 40, "p": 0.5, "steps": 3,
        "delta_final": 0.0, "converged": True, "ratios": [0.1, 0.9], "token_counts": [36, 4],
        "source": "online", "policy": "prefixkv"}))
    assert run(["simulate", "--config", "c.json", "--trace", "t.json", "--steps", "1"],
               tmp_path) == 0
    records = [json.loads(line) for line in (tmp_path / "sim.jsonl").read_text().splitlines()]
    assert [record["layer_sizes"] for record in records] == [[36, 4]]


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    """Every kind of CLI output pinned byte for byte.

    The prefixkv ``simulate`` and disturbance digests were recorded when
    prefixkv counts became the exact global prefix; any drift in eviction
    order, merge targets or retained shares changes them. The ``plan`` and
    trace ``compare`` digests were recorded when a configuration became its
    token counts and decode capacity became ``max(floor, count * t // N)``,
    which moves the baseline cells of ``compare``. The others were
    recorded before the ranking, the CSV writer and the replay path each
    got a single implementation. The 8-head toy digests were recorded
    before toy decode moved onto the shared decode kernel.
    """

    LOG = {
        "none": "f9977b7df9304713ced88468e9c6462395e018cc6cd748d9a5d67a4109a5247f",
        "position": "39a26a9e31850342a3625f8d8ac23259bed7f1d90aaef86e66e46eedd8c71f8e",
        "feature": "42b04a24260821d111666f98d6d21218e75b5418bd996b7b7a619b2fb3d8bc62",
    }
    INFO = "d39fec4a57b12bf4ab8e3dd28970720ea04f21e453fdeeb9438b67458f9bbd1b"
    ANALYZE = {
        "lorenz.csv": "cb951c380a263002f41331936e2167b66fdb9dc54bfd486aa34488a16c698add",
        "gini.csv": "e479be0b9752d31fb910823be17447d839a37cff6467645836cb6bd2c8859297",
    }
    PLAN = {
        ("--policy", "prefixkv"):
            "9b9984857515964835f600ad9e2221ff157406fb63ccc4f75f7bfaa41e40b13a",
        ("--policy", "uniform"):
            "d1953d5073ab9f81fe9cb3b500e3fc6cc501ae4a637504d586c6a77a23af320b",
        ("--policy", "pyramid"):
            "bd461ad6d95a0beb84e3efac696f1c353122e0d2bcfe6c6544de4aaf27d64e61",
        ("--policy", "local"):
            "67d8a5fe8cc0969fa360f4cc4387436484b89058e4ab936818b8aea669ba2b78",
        ("--offline", "--method=per-sample-mean"):
            "65b856ef17ddbbd8415aa68815359eb1aa6052add3952f936ff4abb4b2a249ea",
        ("--offline", "--method=pooled-curve"):
            "a056b5b8a646a3f1727df84ec9159e006928cf2741d50e28d2c501651da24223",
    }
    COMPARE = {
        "trace": "b8f82d042ba92acad40f86805606bab72d4f49558982f9dbe6c570d8fd0ae38b",
        "toy": "b47257b64ccc12967428f63b30cf3c92f9523361c901a61025b22e1be3e9edb2",
        "toy-heads-8": "9be2d557877cc6b3b1e75af9c922b0ee0ec2d1868a02a3dfd2210757f5373323",
    }
    DISTURBANCE = "99b8ef1ffa9097867489cf67f30bc342a3000d9b2586636e88b44cd967b8a3f8"
    DISTURBANCE_HEADS_8 = "5677ce45afe4b7bfb1a727bfb2716c9acf9342bce33d34e7eedecc489744de2c"
    TOY = ["--toy-seed", "4", "--toy-layers", "2", "--toy-heads", "2", "--toy-dim", "8",
           "--toy-vocab", "32", "--prompt-len", "16"]
    # From 8 heads on, a head sum taken pairwise and one taken head after
    # head (numpy picks by memory order) can differ in the last bit; 2 heads
    # never get there. Outputs see those bits only through eviction ties,
    # so tests/test_decode_kernel.py compares the accumulators themselves.
    TOY_HEADS_8 = [*TOY[:4], "--toy-heads", "8", "--toy-dim", "16", *TOY[8:]]

    @pytest.fixture
    def trace(self, tmp_path):
        assert run(["synth", "--layers", "3", "--heads", "2", "--seq", "72",
                    "--concentration", "0.1,1.0,4.0", "--kv", "--seed", "13",
                    "--out", "t.json"], tmp_path) == 0
        return tmp_path / "t.json"

    @pytest.mark.parametrize("mode", ["none", "position", "feature"])
    def test_simulate_digests(self, tmp_path, trace, mode):
        assert run(["simulate", "--trace", "t.json", "--budget", "0.3", "--steps", "16",
                    "--merge", mode, "--protect", "4"], tmp_path) == 0
        assert _digest(tmp_path / "sim.jsonl") == self.LOG[mode]
        assert _digest(tmp_path / "retained_info.csv") == self.INFO

    def test_analyze_digests(self, tmp_path, trace):
        assert run(["analyze", "t.json"], tmp_path) == 0
        assert {name: _digest(tmp_path / name) for name in self.ANALYZE} == self.ANALYZE

    @pytest.mark.parametrize("flags", list(PLAN), ids=lambda flags: flags[-1].split("=")[-1])
    def test_plan_digests(self, tmp_path, trace, flags):
        assert run(["synth", "--layers", "3", "--heads", "1", "--seq", "48",
                    "--concentration", "0.5", "--seed", "14", "--out", "t2.json"],
                   tmp_path) == 0
        traces = ["t.json", "t2.json"] if flags[0] == "--offline" else ["t.json"]
        assert run(["plan", "--budget", "0.3", *flags, *traces], tmp_path) == 0
        assert _digest(tmp_path / "config.json") == self.PLAN[flags]

    @pytest.mark.parametrize("kind", ["trace", "toy", "toy-heads-8"])
    def test_compare_digests(self, tmp_path, trace, kind):
        toy = self.TOY_HEADS_8 if kind == "toy-heads-8" else self.TOY
        source = (["--steps", "4", "t.json"] if kind == "trace"
                  else [*toy, "--decode-len", "3", "--runs", "2"])
        assert run(["compare", "--budgets", "0.2,50%", "--merge", "none,position",
                    *source], tmp_path) == 0
        assert _digest(tmp_path / "compare.csv") == self.COMPARE[kind]

    def test_disturbance_digest(self, tmp_path):
        assert run(["simulate", *self.TOY, "--budget", "0.4", "--steps", "4", "--disturb",
                    "--merge", "feature"], tmp_path) == 0
        assert _digest(tmp_path / "disturbance.csv") == self.DISTURBANCE

    def test_disturbance_digest_at_8_heads(self, tmp_path):
        assert run(["simulate", *self.TOY_HEADS_8, "--budget", "0.4", "--steps", "4",
                    "--disturb", "--merge", "feature"], tmp_path) == 0
        assert _digest(tmp_path / "disturbance.csv") == self.DISTURBANCE_HEADS_8


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

    def test_a_run_after_another_command_writes_what_a_fresh_run_writes(self, tmp_path):
        # The parser is built once per process and shared by every run in it.
        toy = TestGoldenOutputs.TOY
        compare = ["compare", "--budgets", "0.2", "--policies", "prefixkv,local", *toy,
                   "--decode-len", "2", "--runs", "1"]
        fresh, after = tmp_path / "fresh", tmp_path / "after"
        fresh.mkdir()
        after.mkdir()
        build_parser.cache_clear()
        assert run(compare, fresh) == 0
        assert run(["simulate", *toy, "--budget", "0.4", "--steps", "2", "--policy", "local",
                    "--sink", "1", "--merge", "feature", "--protect", "2"], after) == 0
        assert run(compare, after) == 0
        assert build_parser.cache_info().misses == 1
        for name in ("compare.csv", "compare.csv.manifest.json"):
            assert (after / name).read_bytes() == (fresh / name).read_bytes()

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

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: [doc], "manifest must be a JSON object"),
        (lambda doc: {**doc, "params": {k: v for k, v in doc["params"].items()
                                        if k != "budget"}}, "required: --budget"),
        (lambda doc: {**doc, "params": {**doc["params"], "min_per_layer": "x"}},
         "invalid int value: 'x'"),
        (lambda doc: {**doc, "params": {**doc["params"], "offline": "yes"}},
         "parameter 'offline' cannot be 'yes'"),
        (lambda doc: {**doc, "params": {**doc["params"], "traces": "t.json"}},
         "parameter 'traces' must hold paths"),
        (lambda doc: {**doc, "params": {**doc["params"], "bogus": 1}},
         "['bogus'] do not belong to command 'plan'"),
        (lambda doc: {**doc, "command": ["plan"]}, "unknown command ['plan']"),
        (lambda doc: {**doc, "command": "replay"}, "unknown command 'replay'"),
        (lambda doc: {**doc, "params": {**doc["params"], "command": "synth"}},
         "parameter 'command' disagrees with command 'plan'"),
    ], ids=["list", "missing-param", "mistyped-param", "bool-flag", "paths", "unknown-param",
            "command-list", "replay-command", "params-command"])
    def test_replay_parses_recorded_params_like_a_command_line(self, tmp_path, capsys,
                                                               dirichlet_trace, corrupt, message):
        # Each of these used to end in a traceback (or, for an unknown
        # parameter, to be ignored).
        assert run(["plan", "--budget", "0.5", "--out", "c.json", "t.json"], tmp_path) == 0
        doc = json.loads((tmp_path / "c.json.manifest.json").read_text())
        (tmp_path / "c.json").unlink()
        (tmp_path / "bad.json").write_text(json.dumps(corrupt(doc)))
        assert run(["replay", "bad.json"], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "c.json").exists()

    def test_replayed_params_parse_to_the_recorded_namespace(self, tmp_path, dirichlet_trace):
        assert run(["compare", "--budgets", "0.3,60%", "--min-per-layer", "2",
                    "--policies", "prefixkv,local", "t.json"], tmp_path) == 0
        params = json.loads((tmp_path / "compare.csv.manifest.json").read_text())["params"]
        args = _recorded_args("compare", params)
        assert {k: v for k, v in vars(args).items() if k != "func"} == params


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
    ["compare", "--budgets", "0.3", "--policies", ",", "TRACE"],
], ids=["toy-dim", "prompt-len", "protect", "decode-len", "steps",
        "compare-policy", "compare-merge", "plan-sink", "simulate-sink", "compare-sink",
        "synth-concentration", "toy-heads", "toy-vocab", "toy-dim-zero", "toy-divisibility",
        "concentration-text", "toy-seq", "synth-seed", "toy-seed", "compare-no-policies"])
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
    ["replay", "missing.json"],
], ids=["plan-input", "analyze-input", "plan-output", "replay-manifest"])
def test_unreadable_or_unwritable_paths_exit_2(tmp_path, capsys, input_trace, argv):
    argv = [input_trace if arg == "TRACE" else arg for arg in argv]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def undecodable(tmp_path_factory):
    """A JSON object in Latin-1 bytes, which are not UTF-8."""
    path = tmp_path_factory.mktemp("input") / "latin.json"
    path.write_bytes('{"meta": {"label": "café"}}'.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["analyze", "BAD"],
    ["plan", "--budget", "0.5", "BAD"],
    ["simulate", "--trace", "TRACE", "--config", "BAD", "--steps", "2"],
    ["replay", "BAD"],
], ids=["analyze-trace", "plan-trace", "simulate-config", "replay-manifest"])
def test_undecodable_input_files_are_parse_errors(tmp_path, capsys, input_trace, undecodable,
                                                  argv):
    # Each used to end in a UnicodeDecodeError traceback and exit 1.
    argv = [{"TRACE": input_trace, "BAD": undecodable}.get(arg, arg) for arg in argv]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON in {undecodable}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("layer", ["2", "-1"])
def test_analyze_layer_outside_the_trace_is_usage_error(tmp_path, capsys, input_trace, layer):
    # Used to be a validation error (exit 2).
    assert run(["analyze", input_trace, "--layer", layer], tmp_path) == 1
    assert capsys.readouterr().err == f"usage error: layer {layer} outside [0, 2)\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("policy", ["uniform", "pyramid", "local"])
def test_offline_plan_refuses_baseline_policies(tmp_path, capsys, input_trace, policy):
    # Used to exit 0 with the baseline configuration, ignoring --offline.
    assert run(["plan", "--budget", "0.3", "--policy", policy, "--offline", input_trace],
               tmp_path) == 1
    message = f"usage error: --offline estimates prefixkv configurations, not {policy}\n"
    assert capsys.readouterr().err == message
    assert not list(tmp_path.iterdir())


# The search tolerance is no flag, so a non-finite one is refused as an
# unknown argument; it used to be refused as an infeasible budget (exit 3).
@pytest.mark.parametrize("argv, code", [
    (["plan", "--budget", "0.5", "--delta-tol", "nan", "TRACE"], 1),
    (["plan", "--budget", "0.5", "--delta-tol", "inf", "--policy", "uniform", "TRACE"], 1),
    (["simulate", "--trace", "TRACE", "--budget", "0.5", "--steps", "2",
      "--delta-tol", "nan"], 1),
    (["synth", "--concentration", "nan", "--out", "t.json"], 1),
    (["synth", "--concentration", "1.0,inf", "--out", "t.json"], 1),
], ids=["plan-nan-tol", "plan-inf-tol", "simulate-nan-tol", "synth-nan", "synth-inf"])
def test_non_finite_knobs_fail_with_a_named_error(tmp_path, capsys, input_trace, argv, code):
    # Warnings are errors under pytest, so a numpy RuntimeWarning would fail
    # this test instead of reaching stderr.
    argv = [input_trace if arg == "TRACE" else arg for arg in argv]
    assert run(argv, tmp_path) == code
    err = capsys.readouterr().err
    assert err.startswith(("usage error: ", "budget error: ")) and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out", [".", "sub"])
def test_output_path_naming_a_directory_exits_2(tmp_path, capsys, out):
    # "." used to raise a ValueError traceback from the temporary file name.
    (tmp_path / "sub").mkdir()
    assert run(["synth", "--seq", "4", "--out", out], tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert not list((tmp_path / "sub").iterdir())


def test_parse_budget_forms():
    assert parse_budget("0.5") == 0.5
    assert parse_budget("50%") == 0.5
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


def _record_plans(monkeypatch) -> list:
    """Each plan a compare makes, as its input and all that a cell reads of it."""
    import kvbudget.cli

    plans = []
    original = kvbudget.cli._Run.plan

    def recorded(self, policy, budget, sink):
        config = original(self, policy, budget, sink)
        plans.append((id(self), config.budget, config.sink_count, config.token_counts.tobytes()))
        return config

    monkeypatch.setattr(kvbudget.cli._Run, "plan", recorded)
    return plans


@pytest.mark.parametrize("inputs", [
    ["--budgets", "0.3,0.6", "--merge", "none,position", "--steps", "6", "t1.json"],
    ["--budgets", "0.2,0.4,0.6", "--merge", "none,feature", "--toy-seed", "4",
     "--toy-layers", "2", "--toy-heads", "2", "--toy-dim", "16", "--prompt-len", "12",
     "--decode-len", "3", "--runs", "2"],
], ids=["trace", "toy"])
def test_compare_computes_one_retained_info_per_cell(tmp_path, monkeypatch, inputs):
    # A distinct cell reads its retained info once; steps it replays or
    # decodes, and the toy full-cache references, log none that nothing would read.
    import kvbudget.cachesim
    import kvbudget.cli

    assert run(["synth", "--layers", "2", "--heads", "2", "--seq", "30", "--kv",
                "--seed", "1", "--out", "t1.json"], tmp_path) == 0
    counted = []
    original = kvbudget.cachesim.retained_info

    def counting(state, profile):
        counted.append(profile)
        return original(state, profile)

    for module in (kvbudget.cli, kvbudget.cachesim):
        monkeypatch.setattr(module, "retained_info", counting)
    plans = _record_plans(monkeypatch)
    assert run(["compare", *inputs], tmp_path) == 0
    # Distinct plans of an input, each under 2 merge modes.
    assert len(counted) == 2 * len(set(plans))


@pytest.mark.parametrize("inputs", [["--steps", "4", "t1.json", "t2.json"],
                                    ["--toy-seed", "4", "--toy-layers", "2", "--toy-heads", "2",
                                     "--toy-dim", "16", "--prompt-len", "12", "--decode-len", "3",
                                     "--runs", "2"]], ids=["trace", "toy"])
def test_compare_runs_each_distinct_cell_once(tmp_path, monkeypatch, inputs):
    # uniform is listed twice, and at r=1.0 uniform and prefixkv keep everything.
    import kvbudget.cli

    for seed in ("1", "2"):
        assert run(["synth", "--layers", "2", "--heads", "2", "--seq", "30", "--kv",
                    "--seed", seed, "--out", f"t{seed}.json"], tmp_path) == 0
    compressed = []
    original = kvbudget.cli.prefill_compress

    def counting(prefill, config, **kwargs):
        compressed.append(config)
        return original(prefill, config, **kwargs)

    monkeypatch.setattr(kvbudget.cli, "prefill_compress", counting)
    plans = _record_plans(monkeypatch)
    merges = ["none", "feature"]
    assert run(["compare", "--budgets", "0.3,1.0", "--policies", "uniform,uniform,prefixkv",
                "--merge", ",".join(merges), *inputs], tmp_path) == 0
    assert len(compressed) == len(merges) * len(set(plans))

    rows = read_csv(tmp_path / "compare.csv")
    # Plans are made per budget, then policy, then input; rows per budget, policy, mode.
    grid = [tuple(plans[i:i + 2]) for i in range(0, len(plans), 2)]
    assert len(rows) == len(merges) * len(grid) == 12
    first = {}
    for i, row in enumerate(rows):
        key = (grid[i // len(merges)], row["merge"])
        values = {k: v for k, v in row.items() if k not in ("budget", "policy")}
        assert first.setdefault(key, values) == values
    assert len(first) < len(rows)
    full = [{k: v for k, v in row.items() if k != "policy"} for row in rows[6:]]
    assert full[0::2] == [full[0]] * 3 and full[1::2] == [full[1]] * 3


def test_compare_refuses_zero_toy_runs(tmp_path, capsys):
    assert run(["compare", "--toy-seed", "1", "--runs", "0", "--budgets", "0.3"], tmp_path) == 1
    assert capsys.readouterr().err == "usage error: --runs must be at least 1\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("inputs", [["--steps", "4", "t1.json", "t2.json"],
                                    ["--toy-seed", "4", "--toy-layers", "2", "--toy-heads", "2",
                                     "--toy-dim", "16", "--prompt-len", "12", "--decode-len", "3",
                                     "--runs", "2"]], ids=["trace", "toy"])
def test_compare_plans_once_per_input_budget_and_policy(tmp_path, monkeypatch, inputs):
    import kvbudget.cli

    for seed in ("1", "2"):
        assert run(["synth", "--layers", "2", "--heads", "2", "--seq", "30", "--kv",
                    "--seed", seed, "--out", f"t{seed}.json"], tmp_path) == 0
    plans = []
    original = kvbudget.cli._Run.plan

    def counted(self, policy, budget, sink):
        plans.append((id(self), policy, budget.r))
        return original(self, policy, budget, sink)

    monkeypatch.setattr(kvbudget.cli._Run, "plan", counted)
    assert run(["compare", "--budgets", "0.3,0.6", "--merge", "none,position,feature",
                *inputs], tmp_path) == 0
    # 2 inputs x 2 budgets x 4 policies, each shared by the 3 merge modes.
    assert len(plans) == len(set(plans)) == 16


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


def test_oversized_synth_is_refused_before_one_concentration_per_layer(tmp_path, capsys):
    # The single --concentration used to be copied once per layer first:
    # a MemoryError traceback and exit 1 under a 2 GB address-space limit.
    assert run(["synth", "--layers", str(10**12), "--seq", "1", "--out", "t.json"], tmp_path) == 2
    assert f"error: attention of shape ({10**12}, 1, 1, 1) holds" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sizes, refused", [
    (["--layers", "-3"], "meta.layers must be a positive integer, got -3"),
    (["--layers", "-1000000", "--heads", "-1000000"],
     "meta.layers must be a positive integer, got -1000000"),
    (["--heads", "-2"], "meta.heads must be a positive integer, got -2"),
    (["--seq", "-5"], "meta.seq_len must be a positive integer, got -5"),
], ids=["layers", "layers-and-heads", "heads", "seq"])
def test_non_positive_synth_size_is_refused_as_the_meta_refuses_it(tmp_path, capsys, sizes,
                                                                  refused):
    # -3 layers used to fail the concentration length (exit 1), and two
    # negative sizes the size guard, on their positive product.
    assert run(["synth", *sizes, "--out", "t.json"], tmp_path) == 2
    assert capsys.readouterr().err == f"error: {refused}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, refused", [
    (["synth", "--mode", "toy", "--layers", "1", "--heads", "1", "--dim", "4",
      "--vocab", "64", "--seq", "2", "--out", "t.json"], "toy embedding of shape (64, 4)"),
    (["synth", "--mode", "toy", "--layers", "3", "--heads", "1", "--dim", "4",
      "--vocab", "8", "--seq", "2", "--out", "t.json"], "toy layer weights of shape (3, 4, 4)"),
    (["compare", "--budgets", "0.5", "--toy-seed", "1", "--toy-layers", "1", "--toy-heads", "1",
      "--toy-dim", "1", "--toy-vocab", "8", "--prompt-len", "8", "--runs", "1"],
     "attention of shape (1, 1, 8, 8)"),
    (["simulate", "--toy-seed", "1", "--toy-layers", "1", "--toy-heads", "1", "--toy-dim", "4",
      "--toy-vocab", "8", "--prompt-len", "2", "--budget", "0.5", "--steps", "11"],
     "decode features of shape (11, 1, 4)"),
    (["synth", "--layers", "1", "--seq", "3", "--kv", "--out", "t.json"],
     "keys of shape (1, 1, 3, 16)"),
], ids=["vocab", "layers", "prompt", "decode", "synth-kv"])
def test_oversized_toy_model_or_prompt_is_refused_before_allocating(tmp_path, capsys,
                                                                    monkeypatch, argv, refused):
    # A vocabulary of 2^40, a prompt of 10^9 tokens, 10^9 decode steps or
    # 2^26 layers of keys used to end in a MemoryError traceback or an
    # out-of-memory kill; a small limit stands in.
    monkeypatch.setattr("kvbudget.trace.MAX_TRACE_ELEMENTS", 40)
    assert run(argv, tmp_path) == 2
    assert f"error: {refused} holds" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
