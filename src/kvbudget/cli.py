"""Command-line surface tying the pipeline together.

Subcommands: ``synth`` (trace generation), ``analyze`` (Lorenz/Gini
export), ``plan`` (budget configuration), ``simulate`` (decode
simulation), ``compare`` (policy sweeps) and ``replay`` (re-run a
recorded manifest). Every command writes a RunManifest next to its first
output; replaying the manifest reproduces all outputs bit-exactly. A
command writes all of its outputs and the manifest, or none of them.

Exit codes: 0 success, 1 usage error, 2 validation/parse error,
3 infeasible budget.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import (
    OFFLINE_METHODS,
    POLICIES,
    BudgetSpec,
    baseline_config,
    estimate_offline,
    load_config,
    plan_online,
    save_config,
)
from .cachesim import (
    DEFAULT_PROTECT_DISTANCE,
    MERGE_POLICIES,
    disturbance,
    full_cache_state,
    prefill_compress,
    replay_steps,
    retained_info,
)
from .errors import BudgetError, KVBudgetError, ParseError, UsageError, ValidationError
from .importance import compute_importance, priority_sequence
from .lorenz import layer_stats
from .toymodel import ToyModel, decode, forward_trace
from .trace import (AttentionTrace, TraceMeta, _check_layer, _check_size, _read_json_object,
                    load_trace, save_trace, synth_trace, trace_prefix)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _default_seed() -> int:
    env = os.environ.get("KVBUDGET_SEED")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise UsageError(f"KVBUDGET_SEED must be an integer, got {env!r}") from exc


def parse_budget(value: str) -> float:
    """Accept fractions ("0.5") or percentages ("50%")."""
    text = value.strip()
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        return float(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse budget {value!r}") from exc


def _parse_budget_list(value: str) -> list[float]:
    items = [item for item in value.split(",") if item.strip()]
    if not items:
        raise UsageError("budget list is empty")
    return [parse_budget(item) for item in items]


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write text lines, each ending in its own newline, as they are generated."""
    with open(path, "w") as handle:
        handle.writelines(lines)


def _csv(header: list[str], rows: Iterable[list]) -> Iterator[str]:
    """CSV lines with floats as ``repr``. No cell needs quoting: every
    string cell is a name from a fixed choice list."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def _write_manifest(path: str, command: str, args: argparse.Namespace,
                    inputs: list[str], outputs: list[str]) -> None:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    seed = params.get("seed")
    if seed is None:
        seed = params.get("toy_seed")
    manifest = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "params": params,
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "tool_version": __version__,
    }
    Path(path).write_text(json.dumps(manifest, sort_keys=True))


def _commit(command: str, args: argparse.Namespace, inputs: list[str],
            writes: list[tuple[str, Callable[[str], None]]]) -> list[str]:
    """Write every output and the run manifest, or none of them.

    ``writes`` pairs each output path with a function writing that
    output to a path it is given. Each one writes a temporary file beside
    its target (same suffix, so the format stays the same); the files are
    renamed into place only when all were written, and a failure removes
    whatever this call wrote. Returns the output paths.
    """
    outputs = [str(target) for target, _ in writes]
    for target in outputs:
        if Path(target).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    manifest = outputs[0] + ".manifest.json"
    writes = [*writes, (manifest, lambda path: _write_manifest(path, command, args,
                                                                inputs, outputs))]
    temps, placed = [], []
    try:
        for i, (target, write) in enumerate(writes):
            target = Path(target)
            temp = str(target.with_name(f".{target.name}.{os.getpid()}-{i}.tmp{target.suffix}"))
            temps.append(temp)
            try:
                write(temp)
            except OSError as exc:
                if exc.filename == temp:
                    exc.filename = str(target)
                raise
        for temp, (target, _) in zip(temps, writes):
            os.replace(temp, target)
            placed.append(target)
    except BaseException:
        for path in temps + placed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return outputs


BUDGET_HELP = "compression ratio, fraction or percentage (0.5 or 50%%)"


def _budget_from_args(args: argparse.Namespace, r: float) -> BudgetSpec:
    return BudgetSpec(r=r, min_tokens_per_layer=args.min_per_layer)


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """The layer floor of a BudgetSpec; the ratio flags differ per command."""
    parser.add_argument("--min-per-layer", type=int, default=BudgetSpec.min_tokens_per_layer,
                        help="minimum retained tokens per layer")


def _add_toy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--toy-seed", type=int, default=None)
    parser.add_argument("--toy-layers", type=int, default=8)
    parser.add_argument("--toy-heads", type=int, default=4)
    parser.add_argument("--toy-dim", type=int, default=64)
    parser.add_argument("--toy-vocab", type=int, default=256)
    parser.add_argument("--prompt-len", type=int, default=64)


def _check_run_flags(args: argparse.Namespace) -> None:
    """Reject run settings the library never receives; it refuses bad sizes itself."""
    if args.steps < 0:
        raise UsageError("--steps must not be negative")


def _prompt_trace(model: ToyModel, prompt_len: int) -> AttentionTrace:
    """Forward trace of the seeded prompt a toy model is measured on."""
    if prompt_len < 1:
        raise UsageError(f"prompt length must be at least 1, got {prompt_len}")
    _check_size("attention", (model.layers, model.heads, prompt_len, prompt_len))
    prompt = np.random.default_rng(model.seed).integers(0, model.vocab, size=prompt_len)
    return forward_trace(model, prompt)


class _Run:
    """One simulate/compare input, prepared once and shared by every cell.

    Plans are made on ``prefill`` and compression starts from it. A
    recorded trace then replays its remaining rows; a toy model (``model``
    set) decodes on from its prompt's forward trace, which is then both
    ``trace`` and ``prefill``.
    """

    def __init__(self, trace: AttentionTrace, prefill_len: int, model: ToyModel | None):
        self.trace = trace
        self.prefill = trace_prefix(trace, prefill_len)
        self.model = model

    @functools.cached_property
    def profile(self):
        """The prefill's importance: computed once, shared by every plan and cell."""
        return compute_importance(self.prefill)

    @functools.cached_property
    def seq(self):
        return priority_sequence(self.profile)

    def plan(self, policy: str, budget: BudgetSpec, sink: int):
        if policy == "prefixkv":
            return plan_online(self.seq, budget)
        return baseline_config(policy, budget, self.prefill.meta, sink_count=sink)

    def compress(self, config, protect: int, merge: str):
        """A compressed prefill whose decode steps log no retained info."""
        state = prefill_compress(self.prefill, config, protect_distance=protect,
                                 merge_policy=merge, profile=self.profile)
        state.report_profile = None
        return state

    def advance(self, state, steps: int) -> None:
        if self.model is None:
            replay_steps(self.trace, state, steps)
        else:
            decode(self.model, self.trace, steps, state)

    def reference(self, steps: int):
        """Full-cache toy decode: the ``(tokens, features)`` disturbance compares against."""
        state = full_cache_state(self.trace, profile=self.profile)
        state.report_profile = None
        return decode(self.model, self.trace, steps, state)


def _trace_run(trace: AttentionTrace, steps: int) -> _Run:
    """Plan on all but the last ``steps`` positions and replay those."""
    n0 = trace.meta.seq_len - steps
    if n0 < 1:
        raise ValidationError(f"trace of length {trace.meta.seq_len} too short for {steps} steps")
    return _Run(trace, n0, None)


def _toy_runs(args: argparse.Namespace, count: int) -> list[_Run]:
    runs = []
    for i in range(count):
        model = ToyModel(layers=args.toy_layers, heads=args.toy_heads, dim=args.toy_dim,
                         vocab=args.toy_vocab, seed=args.toy_seed + i)
        runs.append(_Run(_prompt_trace(model, args.prompt_len), args.prompt_len, model))
    return runs


# --------------------------------------------------------------------------
# synth
# --------------------------------------------------------------------------

def run_synth(args: argparse.Namespace) -> list[str]:
    if args.seed is None:
        args.seed = _default_seed()
    if args.mode == "dirichlet":
        # Refuse a non-positive size as the trace meta does, before any size is multiplied.
        TraceMeta(layers=args.layers, heads=args.heads, seq_len=args.seq)
        try:
            values = [float(v) for v in args.concentration.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError(f"cannot parse --concentration {args.concentration!r}") from exc
        if len(values) == 1:
            # Refuse an oversized trace before making one value per layer.
            _check_size("attention", (args.layers, args.heads, args.seq, args.seq))
            values = values * args.layers
        trace = synth_trace(args.layers, args.heads, args.seq, values,
                            seed=args.seed, with_kv=args.kv, label=args.label)
        # Recorded once the sizes passed synth_trace's checks: one string per layer.
        args.concentration = ",".join(repr(v) for v in values)
    else:
        model = ToyModel(layers=args.layers, heads=args.heads, dim=args.dim,
                         vocab=args.vocab, seed=args.seed)
        trace = _prompt_trace(model, args.seq)
    return _commit("synth", args, [], [(args.out, functools.partial(save_trace, trace))])


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def run_analyze(args: argparse.Namespace) -> list[str]:
    trace = load_trace(args.trace)
    seq = priority_sequence(compute_importance(trace))
    stats = layer_stats(seq)
    if args.layer is not None:
        _check_layer(args.layer, trace.meta.layers)
        stats = [stats[args.layer]]
    # Curve lines are made one layer's block at a time, while the file is written.
    curves = ("".join(f"{s.layer},{x!r},{y!r}\n"
                      for x, y in zip(s.curve.x.tolist(), s.curve.y.tolist()))
              for s in stats)
    return _commit("analyze", args, [args.trace], [
        (args.out_curves, functools.partial(
            _write_lines, lines=itertools.chain(["layer,x,y\n"], curves))),
        (args.out_stats, functools.partial(
            _write_lines, lines=_csv(["layer", "gini"], [[s.layer, s.gini] for s in stats]))),
    ])


# --------------------------------------------------------------------------
# plan
# --------------------------------------------------------------------------

def run_plan(args: argparse.Namespace) -> list[str]:
    budget = _budget_from_args(args, parse_budget(args.budget))
    traces = [load_trace(p) for p in args.traces]
    if args.prefill is not None:
        traces = [trace_prefix(t, args.prefill) for t in traces]
    if args.offline and args.policy != "prefixkv":
        raise UsageError(f"--offline estimates prefixkv configurations, not {args.policy}")
    if args.offline:
        seqs = [priority_sequence(compute_importance(t)) for t in traces]
        config = estimate_offline(seqs, budget, method=args.method)
    elif len(traces) != 1:
        raise UsageError("baseline and online planning take exactly one trace; "
                         "pass --offline with prefixkv for several")
    else:
        run = _Run(traces[0], traces[0].meta.seq_len, None)
        config = run.plan(args.policy, budget, args.sink)
    return _commit("plan", args, list(args.traces),
                   [(args.out, functools.partial(save_config, config))])


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _sim_writes(args, state, prefill_info) -> list[tuple[str, Callable[[str], None]]]:
    info_rows = [[0, l, float(v)] for l, v in enumerate(prefill_info)]
    for record in state.step_log:
        for l, v in enumerate(record["retained_info"]):
            info_rows.append([record["step"], l, float(v)])
    log = (json.dumps(record, sort_keys=True) + "\n" for record in state.step_log)
    return [
        (args.out_log, functools.partial(_write_lines, lines=log)),
        (args.out_info, functools.partial(
            _write_lines, lines=_csv(["step", "layer", "retained_info"], info_rows))),
    ]


def run_simulate(args: argparse.Namespace) -> list[str]:
    if (args.trace is None) == (args.toy_seed is None):
        raise UsageError("pass exactly one of --trace or --toy-seed")
    if args.disturb and args.toy_seed is None:
        raise UsageError("--disturb requires the toy-model input")
    if (args.config is None) == (args.budget is None):
        raise UsageError("pass exactly one of --config or --budget")
    _check_run_flags(args)

    inputs = [p for p in (args.trace, args.config) if p is not None]
    config = None if args.config is None else load_config(args.config)
    if args.trace is None:
        run = _toy_runs(args, 1)[0]
    elif config is None:
        run = _trace_run(load_trace(args.trace), args.steps)
    else:
        run = _Run(load_trace(args.trace), config.seq_len, None)
    if config is None:
        config = run.plan(args.policy, _budget_from_args(args, parse_budget(args.budget)),
                          args.sink)
    state = run.compress(config, args.protect, args.merge)
    # Only this run's steps are logged; sim.jsonl and the info CSV read them.
    state.report_profile = run.profile
    prefill_info = retained_info(state, run.profile)
    if args.steps > 0:
        run.advance(state, args.steps)

    writes = _sim_writes(args, state, prefill_info)
    if args.disturb:
        # The logged run decoded its own tokens; disturbance teacher-forces
        # the reference's, so it starts from a fresh compressed prefill.
        mae = disturbance(run.model, run.trace, run.reference(args.steps),
                          run.compress(config, args.protect, args.merge))
        rows = [[l, t, float(v)] for (l, t), v in np.ndenumerate(mae)]
        writes.append((args.out_disturb, functools.partial(
            _write_lines, lines=_csv(["layer", "token_index", "mae"], rows))))
    return _commit("simulate", args, inputs, writes)


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def _compare_cell(run: _Run, reference, config, args: argparse.Namespace,
                  mode: str) -> list[float]:
    """Retained info after prefill (and any trace replay); toy runs add their MAE."""
    state = run.compress(config, args.protect, mode)
    if reference is None and args.steps:
        run.advance(state, args.steps)
    info = retained_info(state, run.profile)
    cell = [float(info.min()), float(info.mean())]
    if reference is not None:
        cell.append(float(disturbance(run.model, run.trace, reference, state).mean()))
    return cell


def run_compare(args: argparse.Namespace) -> list[str]:
    budgets = _parse_budget_list(args.budgets)
    args.budgets = ",".join(repr(b) for b in budgets)
    policies = [p for p in args.policies.split(",") if p]
    merges = [m for m in args.merge.split(",") if m]
    if not policies or not merges:
        raise UsageError("policies and merge modes must be non-empty")
    if (args.traces is None or not args.traces) == (args.toy_seed is None):
        raise UsageError("pass trace files or --toy-seed, not both")
    _check_run_flags(args)
    if args.toy_seed is not None and args.runs < 1:
        raise UsageError("--runs must be at least 1")

    header = ["budget", "policy", "merge", "min_retained_info", "mean_retained_info"]
    if args.toy_seed is not None:
        inputs = []
        runs = _toy_runs(args, args.runs)
        references = [run.reference(args.decode_len) for run in runs]
        header.append("mean_mae")
    else:
        inputs = list(args.traces)
        runs = [_trace_run(load_trace(p), args.steps) for p in args.traces]
        references = [None] * len(runs)

    rows, done = [], {}
    for r in budgets:
        budget = _budget_from_args(args, r)
        for policy in policies:
            # A plan does not depend on the merge mode, so every mode shares it.
            configs = [run.plan(policy, budget, args.sink) for run in runs]
            for mode in merges:
                cells = []
                for i, (run, reference, config) in enumerate(zip(runs, references, configs)):
                    # All that a cell reads of its plan: cells that agree on it are equal.
                    key = (i, mode, config.budget, config.sink_count,
                           config.token_counts.tobytes())
                    if key not in done:
                        done[key] = _compare_cell(run, reference, config, args, mode)
                    cells.append(done[key])
                rows.append([r, policy, mode,
                             *(float(np.mean(column)) for column in zip(*cells))])

    return _commit("compare", args, inputs,
                   [(args.out, functools.partial(_write_lines, lines=_csv(header, rows)))])


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------

def run_replay(args: argparse.Namespace) -> list[str]:
    try:
        manifest = _read_json_object(args.manifest, "manifest")
    except OSError as exc:
        raise ParseError(f"cannot read manifest {args.manifest}: {exc}") from exc
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise ParseError("manifest field 'params' must be an object")
    recorded = _recorded_args(manifest.get("command"), params)
    return recorded.func(recorded)


def _recorded_args(command, params: dict) -> argparse.Namespace:
    """Parse a manifest's recorded parameters again, as the command line they stand for.

    Every value goes back through its own flag, so a manifest meets the
    same type, choice and presence checks as a typed command; a recorded
    run parses to the namespace it was recorded from.
    """
    parser = build_parser()
    commands = _subcommands(parser)
    # A list, not the dict: a recorded command may be any JSON value.
    if command not in [name for name in commands if name != "replay"]:
        raise ParseError(f"manifest names unknown command {command!r}")
    options, positionals, known = [], [], {"command"}
    for action in commands[command]._actions:
        if action.dest == "help":
            continue
        known.add(action.dest)
        if action.dest not in params:
            continue
        value = params[action.dest]
        if not action.option_strings:
            items = value if action.nargs in ("+", "*") else [value]
            if not isinstance(items, list) or not all(isinstance(v, str) for v in items):
                raise ParseError(f"manifest parameter {action.dest!r} must hold paths")
            positionals += items
        elif value is None and action.default is None:
            continue
        elif action.nargs == 0 and isinstance(value, bool):
            options += [action.option_strings[0]] if value else []
        elif (action.nargs != 0 and isinstance(value, (str, int, float))
              and not isinstance(value, bool)):
            options.append(f"{action.option_strings[0]}={value}")
        else:
            raise ParseError(f"manifest parameter {action.dest!r} cannot be {value!r}")
    unknown = sorted(set(params) - known)
    if unknown:
        raise ParseError(f"manifest parameters {unknown} do not belong to command {command!r}")
    if params.get("command", command) != command:
        raise ParseError(f"manifest parameter 'command' disagrees with command {command!r}")
    # After "--", a recorded path that starts with "-" is still a path.
    argv = [command, *options, *(["--", *positionals] if positionals else [])]
    try:
        return parser.parse_args(argv)
    except UsageError as exc:
        raise ParseError(f"manifest parameters do not form a valid command: {exc}") from exc


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="kvbudget",
                     description="Layer-adaptive KV cache retention budgets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic or toy-model trace")
    p.add_argument("--mode", choices=["dirichlet", "toy"], default="dirichlet")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--seq", type=int, default=64)
    p.add_argument("--concentration", default="1.0",
                   help="per-layer Dirichlet parameters, comma separated; each sets how "
                        "peaked that layer's attention rows are (smaller is more peaked)")
    p.add_argument("--kv", action="store_true", help="emit unit-norm key/value vectors")
    p.add_argument("--dim", type=int, default=64, help="toy model width")
    p.add_argument("--vocab", type=int, default=256, help="toy model vocabulary")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--label", default="dirichlet")
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_synth)

    p = sub.add_parser("analyze", help="export Lorenz curves and Gini coefficients")
    p.add_argument("trace")
    p.add_argument("--layer", type=int, default=None, help="restrict output to one layer")
    p.add_argument("--out-curves", default="lorenz.csv")
    p.add_argument("--out-stats", default="gini.csv")
    p.set_defaults(func=run_analyze)

    p = sub.add_parser("plan", help="derive a prefix configuration for a budget")
    p.add_argument("--budget", required=True, help=BUDGET_HELP)
    _add_budget_flags(p)
    p.add_argument("--policy", choices=POLICIES, default="prefixkv")
    p.add_argument("--sink", type=int, default=4, help="sink positions for the local policy")
    p.add_argument("--offline", action="store_true",
                   help="estimate one configuration from several sample traces")
    p.add_argument("--method", choices=OFFLINE_METHODS, default=OFFLINE_METHODS[0])
    p.add_argument("--prefill", type=int, default=None,
                   help="plan on the first K positions only")
    p.add_argument("--out", default="config.json")
    p.add_argument("traces", nargs="+")
    p.set_defaults(func=run_plan)

    p = sub.add_parser("simulate", help="run prefill compression plus decode maintenance")
    p.add_argument("--config", default=None)
    p.add_argument("--budget", default=None, help=BUDGET_HELP)
    _add_budget_flags(p)
    p.add_argument("--policy", choices=POLICIES, default="prefixkv")
    p.add_argument("--sink", type=int, default=4)
    p.add_argument("--trace", default=None)
    _add_toy_flags(p)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--merge", choices=MERGE_POLICIES, default="none")
    p.add_argument("--protect", type=int, default=DEFAULT_PROTECT_DISTANCE)
    p.add_argument("--disturb", action="store_true",
                   help="also measure feature disturbance (toy mode)")
    p.add_argument("--out-log", default="sim.jsonl")
    p.add_argument("--out-info", default="retained_info.csv")
    p.add_argument("--out-disturb", default="disturbance.csv")
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("compare", help="sweep budgets x policies x merge modes")
    p.add_argument("--budgets", required=True, help="comma-separated budget list")
    p.add_argument("--policies", default=",".join(POLICIES))
    p.add_argument("--merge", default="none")
    _add_budget_flags(p)
    p.add_argument("--sink", type=int, default=4)
    p.add_argument("--protect", type=int, default=DEFAULT_PROTECT_DISTANCE)
    p.add_argument("--steps", type=int, default=0,
                   help="replayed decode steps per trace")
    _add_toy_flags(p)
    p.add_argument("--decode-len", type=int, default=16)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out", default="compare.csv")
    p.add_argument("traces", nargs="*")
    p.set_defaults(func=run_compare)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.set_defaults(func=run_replay)

    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The parser of every subcommand, by name."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (KVBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
