"""The library surface the benchmark harness wraps, calls and reads.

``perfbench/tracing.py`` replaces the functions it lists in ``TRACED``
by name and reads the search results they return, the workloads call
library functions with keyword arguments, and they read a few
``CacheState`` and configuration members. A rename or a signature change in the library
would break benchmark runs without failing any other test, so this
checks every name, every call and every field from here.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from kvbudget import (BudgetSpec, PrefixConfiguration, binary_search, compute_importance,
                      estimate_offline, full_cache_state, priority_sequence, synth_trace)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("module_name, path", TRACED,
                         ids=[f"{m}.{p}" for m, p in TRACED])
def test_traced_function_resolves(module_name, path):
    module = importlib.import_module(f"kvbudget.{module_name}")
    if "." in path:
        # Methods are wrapped through the class dict, as the harness does.
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(module, cls_name))[attr])
    else:
        assert callable(getattr(module, path))


@pytest.mark.parametrize("member", ["layer_caches", "capacity", "live_positions",
                                    "hard_evicted", "step_log", "current_len",
                                    "protect_distance", "config", "layers"])
def test_cache_state_members_the_workloads_read(member):
    state = full_cache_state(synth_trace(2, 1, 6, [1.0, 1.0], seed=0))
    assert hasattr(state, member)


def configuration_members():
    """Every member read from a configuration by the workloads or the tracer.

    The workloads hold configurations as ``config`` or ``state.config``;
    the tracer reads the configuration ``estimate_offline`` returns as
    ``result`` in ``_after_estimate``.
    """
    members = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "config"
                or isinstance(node.value, ast.Attribute) and node.value.attr == "config"):
            members.add(node.attr)
    for function in ast.parse(TRACING.read_text()).body:
        if isinstance(function, ast.FunctionDef) and function.name == "_after_estimate":
            members |= {node.attr for node in ast.walk(function)
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "result"}
    return sorted(members)


CONFIGURATION_MEMBERS = configuration_members()


def test_configuration_members_are_found():
    assert CONFIGURATION_MEMBERS == ["policy", "sink_count", "threshold", "token_counts"]


@pytest.mark.parametrize("member", CONFIGURATION_MEMBERS)
def test_configuration_members_the_workloads_read(member):
    assert member in {field.name for field in dataclasses.fields(PrefixConfiguration)}


def workload_calls():
    """Every ``<module>.<function>(...)`` call of a kvbudget module in the workloads.

    Returns (name, number of positional arguments, keyword names) per
    distinct call shape; the workloads import ``trace`` as ``ktrace``.
    """
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {"allocator", "cachesim", "cli", "importance", "lorenz", "ktrace"}
    calls = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            module = "trace" if node.func.value.id == "ktrace" else node.func.value.id
            calls.add((f"{module}.{node.func.attr}", len(node.args),
                       tuple(k.arg for k in node.keywords)))
    return sorted(calls)


WORKLOAD_CALLS = workload_calls()


def test_workload_calls_include_the_keyword_calls():
    assert {("allocator.BudgetSpec", 0, ("r", "min_tokens_per_layer")),
            ("allocator.estimate_offline", 2, ("method",)),
            ("allocator.baseline_config", 3, ("sink_count",)),
            ("cachesim.prefill_compress", 2, ("protect_distance", "merge_policy"))
            } <= set(WORKLOAD_CALLS)


@pytest.mark.parametrize("name, positional, keywords", WORKLOAD_CALLS,
                         ids=[f"{name}-{'-'.join(kw) or positional}"
                              for name, positional, kw in WORKLOAD_CALLS])
def test_workload_call_binds(name, positional, keywords):
    module_name, attr = name.split(".")
    function = getattr(importlib.import_module(f"kvbudget.{module_name}"), attr)
    inspect.signature(function).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_search_results_carry_what_the_tracer_reads():
    seqs = [priority_sequence(compute_importance(synth_trace(2, 1, 12, [0.3, 3.0], seed=s)))
            for s in (0, 1)]
    budget = BudgetSpec(r=0.4, min_tokens_per_layer=1)
    pooled = estimate_offline(seqs, budget, method="pooled-curve").threshold
    for result in (binary_search(seqs[0], budget), pooled):
        assert isinstance(result.steps, int) and isinstance(result.converged, bool)
