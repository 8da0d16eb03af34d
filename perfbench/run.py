"""echochain benchmark: times the real CLI end to end, or traces it layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-vj --seed 1 --seconds 15 --trace 0

Each timed command runs in a fresh process on config files generated from
the seed; every output is checked against the independent reference in
``oracle.py``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced serial run together with its overhead
against an untraced serial run of the same config. The last stdout line is
the result object; the line before it records the environment and the raw
samples. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
from workloads import NAMES, Workload, make_workload  # noqa: E402

PROCESS_TIMEOUT_S = 100.0
# Set-up runs interleaved with the timed commands: at least this many, and
# more while they take under a quarter of the timed commands' time, so a
# cheap set-up gets a sample per command and an expensive one three.
SETUP_MIN_SAMPLES = 3
SETUP_TIME_SHARE = 0.25
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ECHOCHAIN_WORKERS")
# Every command runs with one BLAS thread. With OpenBLAS's default of one
# thread per core, its threads spin-wait on each other, so a single busy core
# elsewhere on a 2-core host slowed a 1.3 s series command to 37 s; with one
# thread the same command took 1.5 s. The worker count stays at the user's
# setting (default: one pool worker per core), so the pool's cost stays in.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "config.parse_config.s": "s",
    "chain.build_floquet_pair.s": "s",
    "chain.assemble_dense.s": "s",
    "chain.apply_floquet.calls": "count",
    "chain.apply_floquet.s": "s",
    "chain.apply_floquet.col_steps": "count",
    "chain.amp_ops": "count",
    "chain.bytes_moved": "B",
    "chain.ops_per_byte": "1/B",
    "coherent.build_coherent_state.s": "s",
    "linalg.unitary_eig.calls": "count",
    "linalg.unitary_eig.s": "s",
    "linalg.unitary_eig.max_dim": "count",
    "linalg.sample_gue.s": "s",
    "linalg.hermitian_expm.s": "s",
    "symmetry.build_sector.s": "s",
    "symmetry.sector_basis_matrix.s": "s",
    "symmetry.sector_matrix.s": "s",
    "symmetry.spacing_statistics.s": "s",
    "symmetry.brody_fit.s": "s",
    "symmetry.ipr.calls": "count",
    "symmetry.ipr.s": "s",
    "dynamics.fidelity_series.calls": "count",
    "dynamics.fidelity_series.s": "s",
    "dynamics.asymptotic_fidelity.s": "s",
    "dynamics.write_series.s": "s",
    "measures.compute_report.calls": "count",
    "measures.compute_report.s": "s",
    "sweep.run_sweep.s": "s",
    "sweep.write_sweep_csv.s": "s",
    "sweep.ctx_bytes": "B",
    "trace.serial_wall_s": "s",
    "trace.overhead_share": "ratio",
}

# Seconds of these spans exclude their traced children; every other `.s`
# metric is inclusive wall time summed over calls.
SELF_TIMED = ("dynamics.fidelity_series", "sweep.run_sweep")


@dataclass(frozen=True)
class ProcessRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_process(args: list[str], env: dict, work: Path) -> ProcessRun:
    """Runs one command in ``work`` through the launcher; wall, CPU and peak RSS."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    launcher = [sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(out_path), str(err_path)]
    # Its own session, so a timeout or an interrupt can stop the launcher, the
    # command and any pool workers together.
    proc = subprocess.Popen(launcher + args, cwd=work, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        report, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed with status {proc.returncode}")
    measured = json.loads(report)
    return ProcessRun(
        measured["wall_s"], measured["cpu_s"], measured["rss_mb"], measured["returncode"],
        out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Harness:
    """Runs one workload's commands in a work directory and tallies their outputs."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int) -> None:
        self.work = work
        self.workload = workload
        self.tally = oracle.Tally()
        self.env = {**os.environ, **PINNED_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.main_check, self.setup_check = _checks(workload, seed)

    def run(self, workload: Workload | None, check, prefix: list[str], extra_env=None):
        """One command: ``prefix`` + the CLI arguments (or the set-up probe).

        It runs inside the work directory with relative config and output
        paths, so the config the program holds (and ships to its workers) is
        the same size wherever the checkout lives.
        """
        output = self.work / "run.out"
        output.unlink(missing_ok=True)
        spec = workload or self.workload
        (self.work / "run.cfg").write_text(spec.config_text("run.out"), encoding="utf-8")
        if workload is None:
            args = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "run.cfg"]
        else:
            args = [sys.executable, *prefix, *workload.cli_args("run.cfg")]
        env = {**self.env, **(extra_env or {})}
        result = run_process(args, env, self.work)
        if result.returncode != 0:
            last = result.stderr.strip().splitlines()[-1:] or ["no stderr"]
            for _ in range(check.outputs):
                self.tally.add(False, f"exit {result.returncode}: {last[0]}")
        else:
            check.check(str(output), result.stdout, self.tally)
        return result

    def main_command(self, prefix=("-m", "echochain"), extra_env=None):
        return self.run(self.workload, self.main_check, list(prefix), extra_env)

    def setup_command(self):
        return self.run(self.workload.setup(), self.setup_check, ["-m", "echochain"])


def _checks(workload: Workload, seed: int):
    """(main check with reference values, set-up check with invariants only)."""
    rng = random.Random(f"oracle:{workload.name}:{seed}")
    config = workload.config
    if workload.command == "sweep":
        points = len(oracle.sweep_grid(config))
        rows = sorted(rng.sample(range(points), min(oracle.ORACLE_ROWS, points)))
        return oracle.SweepCheck(config, rows), oracle.SweepCheck(workload.setup().config, [])
    if workload.command == "series":
        t_cut = config["t_cut"]
        times = sorted({1, t_cut} | {rng.randint(1, t_cut) for _ in range(oracle.ORACLE_TIMES)})
        return (oracle.SeriesCheck(config, workload.angles, times),
                oracle.SeriesCheck(workload.setup().config, workload.angles, []))
    return oracle.SpectralCheck(config), oracle.ProbeCheck()


def measure_end_to_end(h: Harness, seconds: float) -> tuple[dict, dict]:
    """Repeats the timed command until ``seconds`` pass, with set-up runs in between."""
    runs, setups = [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(h.main_command())
        setup_time = sum(r.wall_s for r in setups)
        if (len(setups) < SETUP_MIN_SAMPLES
                or setup_time < SETUP_TIME_SHARE * sum(r.wall_s for r in runs)):
            setups.append(h.setup_command())
    samples = dict(
        wall_s=[r.wall_s for r in runs],
        setup_s=[r.wall_s for r in setups],
        cpu_s=[r.cpu_s for r in runs],
        peak_rss_mb=[r.rss_mb for r in runs],
    )
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def measure_layers(h: Harness, seconds: float) -> tuple[dict, dict]:
    """Alternates a traced serial run with an untraced serial run until ``seconds`` pass."""
    serial = {"ECHOCHAIN_WORKERS": "1"}
    trace_path = h.work / "trace.json"
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        trace_path.unlink(missing_ok=True)
        traced = h.main_command([str(BENCH_DIR / "trace_run.py"), str(trace_path)], serial)
        plain = h.main_command(extra_env=serial)
        if not trace_path.exists():
            raise RuntimeError(f"traced run wrote no trace: {traced.stderr.strip()[-500:]}")
        trace = json.loads(trace_path.read_text())
        for name in trace["missing"]:
            print(f"traced function {name} not found; its metrics read 0", file=sys.stderr)
        layers = layer_metrics(trace)
        layers["trace.serial_wall_s"] = plain.wall_s
        layers["trace.overhead_share"] = traced.wall_s / plain.wall_s - 1.0
        for name, value in layers.items():
            samples[name].append(value)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, dict(samples)


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers from one traced run's spans and aggregates."""
    spans = trace["spans"]
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    inclusive, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, (name, start, end, _, aggregated) in enumerate(spans):
        inclusive[name] += end - start
        own[name] += end - start - children[i] - aggregated
        calls[name] += 1
    floquet = trace["floquet"]
    values = {
        "cli.import_s": trace["import_s"],
        "chain.apply_floquet.calls": floquet["calls"],
        "chain.apply_floquet.s": floquet["s"],
        "chain.apply_floquet.col_steps": floquet["col_steps"],
        "chain.amp_ops": floquet["amp_ops"],
        "chain.bytes_moved": floquet["bytes_moved"],
        "chain.ops_per_byte": floquet["amp_ops"] / floquet["bytes_moved"]
        if floquet["bytes_moved"] else 0.0,
        "linalg.unitary_eig.max_dim": trace["eig_max_dim"],
        "sweep.ctx_bytes": trace["ctx_bytes"],
    }
    for metric in PER_LAYER_UNITS:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            values.setdefault(metric, calls[span])
        elif kind == "s":
            values.setdefault(metric, own[span] if span in SELF_TIMED else inclusive[span])
    return values


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        thread_env={name: os.environ.get(name) for name in THREAD_ENV},
        command_thread_env=PINNED_ENV,
        blas=f"{blas.get('name')} {blas.get('version')}",
        blas_openblas_config=blas.get("openblas configuration"),
        numpy=np.__version__,
        scipy=scipy.__version__,
        python=platform.python_version(),
        git_commit=git_commit(root),
    )


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from root/.git alone; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def benchmark(root: Path, workload_name: str, seed: int, seconds: float, trace: bool,
              smoke: bool = False) -> tuple[dict, dict]:
    """(result object, record of environment and samples) for one run."""
    workload = make_workload(workload_name, seed, smoke)
    work = BENCH_DIR / ".work" / f"{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        h = Harness(root, work, workload, seed)
        measure = measure_layers if trace else measure_end_to_end
        values, samples = measure(h, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    result = dict(
        correct=h.tally.failed == 0,
        attempted=h.tally.attempted,
        failed=h.tally.failed,
        metrics={name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    )
    record = dict(
        workload=workload_name, seed=seed, trace=trace, config=workload.config,
        angles=workload.angles, problems=h.tally.problems, samples=samples,
        env=environment(root),
    )
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the running command's process group
    # is killed and waited for before the harness exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "echochain" / "cli.py").is_file():
        print(f"error: no echochain sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    result, record = benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"failed output: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
