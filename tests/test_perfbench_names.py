"""The benchmark's traced names must exist in the package.

``perfbench/trace_run.py`` looks functions up by name and records 0 for any
name it cannot find, so a rename would silently empty a per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"


def _load_trace_run():
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", TRACE_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; main() runs under __main__
    return module


def _traced_names():
    trace_run = _load_trace_run()
    names = [(layer, name) for layer, fns in trace_run.TRACED.items() for name in fns]
    return names + [tuple(trace_run.AGGREGATED), tuple(trace_run.CONTEXT)]


@pytest.mark.parametrize("layer, name", _traced_names())
def test_traced_name_is_a_package_function(layer, name):
    module = importlib.import_module(f"echochain.{layer}")
    assert callable(getattr(module, name, None)), f"echochain.{layer}.{name}"
