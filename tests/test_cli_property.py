"""One property over the whole command line.

Arguments are drawn from the parser's own subcommands and flags, with
random values, over good and corrupted trace, configuration and
manifest files: truncations, type swaps, NaN, negative sizes and bytes
that are not UTF-8.
Whatever the draw, a command ends with a documented exit code, prints
no traceback, and leaves no output behind when it fails.
"""

import contextlib
import io
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvbudget.cli import _subcommands, build_parser, main

SUBPARSERS = _subcommands(build_parser())

# Every draw starts from these small sizes, where a command takes them,
# so that no single draw costs more than a fraction of a second.
SMALL = {"--toy-layers": "2", "--toy-heads": "2", "--toy-dim": "8", "--prompt-len": "8",
         "--decode-len": "2", "--runs": "1", "--steps": "2", "--seq": "8", "--dim": "8"}

# Alternatives the parser cannot express: the input of simulate and
# compare, and where simulate's budget comes from. One flag of each
# group is drawn (or none).
SOURCES = {"simulate": [("--trace", "--toy-seed"), ("--budget", "--config")],
           "compare": [("--toy-seed",)]}

# Values by what a flag holds, as (valid, invalid); most draws are valid
# so that commands get past parsing.
INTS = (["0", "1", "2", "3", "4"], ["-1", "x", "1.5", "nan"])
FLOATS = (["0", "0.01", "0.025", "0.3"], ["nan", "inf", "-inf", "-0.5", "x"])
TEXT = {
    "budget": (["0.3", "50%", "1", "0.05", "0.9"], ["0", "1.5", "-0.2", "nan", "inf", "x", "%"]),
    "budgets": (["0.3", "0.2,0.6", "1,0.5", "10%,0.4"], ["0.3,nan", "", ",", "x,0.3", "0"]),
    "concentration": (["1.0", "0.5,2.0", "0.05", "30"],
                      ["nan", "inf", "1.0,inf", "0", "-1", "a", "1,2,3", ""]),
    "policies": (["prefixkv", "uniform,local", "prefixkv,pyramid,local"], ["foo", ""]),
    "merge": (["none", "position,feature", "feature"], ["bogus", ""]),
    "label": (["", "bench", "q\"x"], ["-x"]),
    "out": (["o.json", "o.npz", "o.csv"], ["missing/o.csv", "."]),
}


@contextlib.contextmanager
def _inside(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _mostly(values):
    valid, invalid = values
    return st.integers(0, 4).flatmap(lambda k: st.sampled_from(invalid if k == 0 else valid))


def _good_trace_doc():
    rng = np.random.default_rng(0)
    L, H, N = 2, 1, 6
    attention = np.zeros((L, H, N, N))
    for m in range(N):
        row = rng.random((L, H, m + 1))
        attention[:, :, m, :m + 1] = row / row.sum(axis=-1, keepdims=True)
    kv = rng.standard_normal((L, H, N, 4))
    return {"meta": {"layers": L, "heads": H, "seq_len": N, "label": "", "seed": None},
            "attention": attention.tolist(), "kv": {"keys": kv.tolist(), "values": kv.tolist()},
            "features": None}


def _corrupt_traces(good):
    shortcut = {"meta": good["meta"], "importance": [[1.0, 0.0, 2.0, 0.5, 0.1, 3.0]] * 2}
    nan_attention = json.loads(json.dumps(good))
    nan_attention["attention"][1][0][3][2] = float("nan")
    return {
        "shortcut": shortcut,
        "zero-layer": {**shortcut, "importance": [[1.0] * 6, [0.0] * 6]},
        "nan-importance": {**shortcut, "importance": [[1.0] * 6, [float("nan")] * 6]},
        "nan-attention": nan_attention,
        "negative-len": {**shortcut, "meta": {**good["meta"], "seq_len": -6}},
        "zero-layers": {**shortcut, "meta": {**good["meta"], "layers": 0}},
        "string-layers": {**shortcut, "meta": {**good["meta"], "layers": "2"}},
        "bool-heads": {**good, "meta": {**good["meta"], "heads": True}},
        "attention-text": {**good, "attention": "x"},
        "kv-list": {**good, "kv": [1, 2]},
        "kv-short": {**good, "kv": {"keys": good["kv"]["keys"]}},
        "features-text": {**good, "features": "x"},
        "meta-list": {**good, "meta": [2, 1, 6]},
        "negative-importance": {**shortcut, "importance": [[1.0, -1.0, 2.0, 0.5, 0.1, 3.0]] * 2},
        "top-list": [good["meta"]],
    }


def _corrupt_configs(good):
    unsearched = {k: v for k, v in good.items()
                  if k not in ("p", "steps", "delta_final", "converged")}
    return {
        "r-text": {**good, "budget": {**good["budget"], "r": "0.5"}},
        "r-nan": {**good, "budget": {**good["budget"], "r": float("nan")}},
        "floor-inf": {**good, "budget": {**good["budget"], "min_tokens_per_layer": float("inf")}},
        "counts-nan": {**good, "token_counts": [float("nan")] * len(good["token_counts"])},
        "negative-len": {**good, "seq_len": -6},
        "zero-len": {**good, "seq_len": 0},
        "short-counts": {**good, "token_counts": good["token_counts"][:1]},
        "policy": {**good, "policy": "foo"},
        "budget-list": {**good, "budget": [0.5]},
        "no-budget": {k: v for k, v in good.items() if k != "budget"},
        "counts-text": {**good, "token_counts": "x"},
        "big-counts": {**good, "token_counts": [10**6] * len(good["token_counts"])},
        "huge-counts": {**good, "token_counts": [10**20] * len(good["token_counts"])},
        "negative-counts": {**good, "token_counts": [-1] * len(good["token_counts"])},
        "off-budget": {**good, "token_counts": [1] * len(good["token_counts"])},
        "below-floor": {**good, "token_counts": [0, sum(good["token_counts"])]},
        "counts-number": {**good, "token_counts": 5},
        "no-layers": {**good, "token_counts": []},
        "local-without-sink": {**good, "policy": "local"},
        "sink-on-prefixkv": {**good, "sink_count": 2},
        "negative-sink": {**unsearched, "policy": "local", "sink_count": -1},
        "threshold-on-baseline": {**good, "policy": "uniform"},
        "partial-threshold": {k: v for k, v in good.items() if k != "converged"},
        "converged-text": {**good, "converged": "no"},
        "p-range": {**good, "p": 7.0},
        "negative-steps": {**good, "steps": -1},
        "samples-on-baseline": {**unsearched, "policy": "pyramid", "samples": 2},
        "zero-samples": {**good, "samples": 0},
        "top-list": [good],
    }


def _corrupt_manifests(good):
    params = good["params"]
    return {
        "top-list": [good],
        "command": {**good, "command": "bogus"},
        "params-list": {**good, "params": list(params)},
        "missing-budget": {**good, "params": {k: v for k, v in params.items() if k != "budget"}},
        "floor-text": {**good, "params": {**params, "min_per_layer": "x"}},
        "floor-nan": {**good, "params": {**params, "min_per_layer": float("nan")}},
        "bool-sink": {**good, "params": {**params, "sink": True}},
        "null-floor": {**good, "params": {**params, "min_per_layer": None}},
        "search-settings": {**good, "params": {**params, "delta_tol": 0.025, "max_steps": 32}},
        "traces-text": {**good, "params": {**params, "traces": params["traces"][0]}},
        "extra": {**good, "params": {**params, "bogus": 1}},
        "other-command": {**good, "params": {**params, "command": "synth"}},
        "policy": {**good, "params": {**params, "policy": "foo"}},
        "dash-out": {**good, "params": {**params, "out": "-o.json"}},
    }


class Inputs:
    """Input paths by kind, each as (good files, corrupted and missing files)."""

    GOOD = ("good.json", "good.npz", "shortcut.json", "config.json", "plan.manifest.json")

    def __init__(self, root):
        files = sorted(p.name for p in root.iterdir()) + ["missing.json"]

        def split(names):
            return ([str(root / n) for n in names if n in self.GOOD],
                    [str(root / n) for n in names if n not in self.GOOD])

        self.manifests = split([n for n in files if "manifest" in n or n == "missing.json"])
        self.configs = split([n for n in files if "config" in n or n == "missing.json"])
        self.traces = split([n for n in files if "config" not in n and "manifest" not in n])

    def __repr__(self):
        return "Inputs()"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    good = _good_trace_doc()
    traces = {"good.json": good, **{f"{k}.json": v for k, v in _corrupt_traces(good).items()}}
    for name, doc in traces.items():
        (root / name).write_text(json.dumps(doc))
    npz = {"meta": np.array(json.dumps(good["meta"])), "attention": np.array(good["attention"])}
    np.savez(root / "good.npz", **npz)
    np.savez(root / "nan.npz", meta=npz["meta"], attention=np.full((2, 1, 6, 6), np.nan))
    np.savez(root / "negative-len.npz",
             meta=np.array(json.dumps({**good["meta"], "seq_len": -6})),
             attention=npz["attention"])
    # A recorded plan: absolute input, output relative to the replaying directory.
    record = tmp_path_factory.mktemp("record")
    with _inside(record):
        assert main(["plan", "--budget", "0.4", "--out", "config.json",
                     str(root / "good.json")]) == 0
    (record / "config.json").rename(root / "config.json")
    manifest = json.loads((record / "config.json.manifest.json").read_text())
    (root / "plan.manifest.json").write_text(json.dumps(manifest))
    for name, doc in _corrupt_manifests(manifest).items():
        (root / f"{name}.manifest.json").write_text(json.dumps(doc))
    config = json.loads((root / "config.json").read_text())
    for name, doc in _corrupt_configs(config).items():
        (root / f"config-{name}.json").write_text(json.dumps(doc))
    for path in [*root.glob("*.json"), *root.glob("*.npz")]:
        data = path.read_bytes()
        (root / f"truncated-{path.name}").write_bytes(data[:len(data) // 2])
    # Good files of each kind with an extra field in Latin-1, not UTF-8.
    for name in ("good.json", "config.json", "plan.manifest.json"):
        text = '{"note": "café", ' + (root / name).read_text()[1:]
        (root / f"latin1-{name}").write_bytes(text.encode("latin-1"))
    return Inputs(root)


def _values(action, inputs):
    """Strategy for one flag's value, by what the flag holds."""
    if action.dest in ("trace", "traces"):
        return _mostly(inputs.traces)
    if action.dest == "config":
        return _mostly(inputs.configs)
    if action.dest == "manifest":
        return _mostly(inputs.manifests)
    if action.dest.startswith("out"):
        return _mostly(TEXT["out"])
    if action.choices is not None:
        return _mostly((list(action.choices), ["bogus"]))
    if action.type is int:
        return _mostly(INTS)
    if action.type is float:
        return _mostly(FLOATS)
    return _mostly(TEXT.get(action.dest, (["x"], [""])))


@st.composite
def argvs(draw, inputs):
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    parser = SUBPARSERS[command]
    options = {a.option_strings[0]: a for a in parser._actions
               if a.option_strings and a.dest != "help"}
    argv = [command]
    for flag, value in SMALL.items():
        argv += [flag, value] if flag in options else []
    chosen = [options[flag] for flag, action in options.items() if action.required]
    for group in SOURCES.get(command, []):
        flag = draw(st.sampled_from([*group, None]))
        chosen += [options[flag]] if flag else []
    if options:
        chosen += draw(st.lists(st.sampled_from(list(options.values())), max_size=4))
    for action in chosen:
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(_values(action, inputs)))
    for action in (a for a in parser._actions if not a.option_strings):
        low, high = {None: (1, 1), "+": (1, 2), "*": (0, 2)}[action.nargs]
        argv += [draw(_values(action, inputs)) for _ in range(draw(st.integers(low, high)))]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_command_line_ends_in_a_documented_exit_code(inputs, workdir, data):
    argv = data.draw(argvs(inputs), label="argv")
    shutil.rmtree(workdir)
    workdir.mkdir()
    stderr = io.StringIO()
    with (_inside(workdir), contextlib.redirect_stderr(stderr),
          contextlib.redirect_stdout(io.StringIO())):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert err.startswith(("usage error: ", "error: ", "budget error: ")), err
        assert not list(workdir.iterdir())
