"""The library surface the benchmark harness wraps and reads.

``perfbench/tracing.py`` replaces the functions it lists in ``TRACED``
by name, and the workloads read a few ``CacheState`` members. A rename
in the library would break traced benchmark runs without failing any
other test, so this checks every name from here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from kvbudget import full_cache_state, synth_trace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
