"""The benchmark's traced names must exist in the package, and its probe must run.

``perfbench/trace_run.py`` looks functions up by name and records 0 for any
name it cannot find, so a rename would silently empty a per-layer metric.
"""

import importlib
import importlib.util
import io
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import CHILD_ENV

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACE_RUN = PERFBENCH / "trace_run.py"


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


def test_sweep_context_pickles():
    # trace_run.py sizes the value that CONTEXT returns with pickle.dumps (sweep.ctx_bytes).
    from echochain.chain import Coupling
    from echochain.config import RunConfig
    from echochain.sweep import _prepare_context

    config = RunConfig(
        n_qubits=6, b_perp=0.9, b_par=1.4, epsilon=0.1, coupling=Coupling.VJ, t_cut=10,
        theta_min=0.5, theta_max=0.5, theta_step=1.0, phi_min=0.5, phi_max=0.5, phi_step=1.0,
    )
    for sample in range(config.gue_samples):
        assert pickle.loads(pickle.dumps(_prepare_context(config, sample)))


def test_vgue_sweep_context_holds_no_dense_factor():
    # The context holds the dense U+- that a VGUE sweep steps in and no operator beside
    # them. Pickling visits every object it holds.
    from echochain.chain import Coupling, FloquetOperator
    from echochain.config import RunConfig
    from echochain.sweep import _prepare_context

    config = RunConfig(
        n_qubits=6, b_perp=0.9, b_par=1.4, epsilon=0.1, coupling=Coupling.VGUE, t_cut=10,
        theta_min=0.5, theta_max=0.5, theta_step=1.0, phi_min=0.5, phi_max=0.5, phi_step=1.0,
        seed=3, gue_samples=2,
    )
    held = []

    class Visitor(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, FloquetOperator):
                held.append(obj)
            return None

    for sample in range(config.gue_samples):
        context = _prepare_context(config, sample)
        Visitor(io.BytesIO()).dump(context)
        assert held == []
        assert pickle.loads(pickle.dumps(context))


def test_trace_run_sizes_a_multi_sample_sweep(tmp_path):
    # The tracer end to end: every traced name found, and each sample's context sized.
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "n_qubits = 6\nb_perp = 0.9\nb_par = 1.4\nepsilon = 0.1\ncoupling = VGUE\n"
        "t_cut = 20\ngue_samples = 2\ntheta_min = 0.5\ntheta_max = 0.5\n"
        "phi_min = 0.5\nphi_max = 0.5\n",
        encoding="utf-8",
    )
    trace = tmp_path / "trace.json"
    result = subprocess.run(
        [sys.executable, str(TRACE_RUN), str(trace), "sweep", str(config),
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    recorded = json.loads(trace.read_text(encoding="utf-8"))
    assert recorded["missing"] == []
    assert recorded["ctx_bytes"] > 0


@pytest.mark.parametrize("coupling", ["VJ", "VGUE"])
def test_setup_probe_runs(tmp_path, coupling):
    # setup_probe.py calls RunConfig.chain_params and build_floquet_pair(params, rng) by
    # name and signature; the traced-name check above would not see either change.
    path = tmp_path / "spectral.cfg"
    path.write_text(
        f"n_qubits = 6\nb_perp = 1.0\nb_par = 1.4\nepsilon = 0.1\ncoupling = {coupling}\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(path)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
