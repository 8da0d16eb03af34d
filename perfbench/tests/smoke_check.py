"""Self-check of the benchmark on tiny-N versions of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/tests/smoke_check.py

The file name does not match test_*.py, so the repository's own test run
does not collect it. It checks that every metric named in BENCHMARK.json is
emitted with its unit, that correct outputs pass, that a corrupted output
is counted as failed, and that the harness refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import NAMES, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result, record = run.benchmark(ROOT, name, SEED, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and v == v for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    json.dumps(result)


def _rewrite_sweep(text: str, row: int, column: str, scale: float) -> str:
    lines = text.splitlines()
    cells = lines[1 + row].split(",")
    i = oracle.SWEEP_COLUMNS.index(column)
    cells[i] = "%.10g" % (float(cells[i]) * scale)
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _corruptions(name: str, check, text: str, stdout: str):
    """(label, corrupted file text, corrupted stdout) that a check must reject."""
    if name.startswith("sweep"):
        row = sorted(check.expected)[0]
        yield "blp off by 1e-5", _rewrite_sweep(text, row, "blp", 1 + 1e-5), stdout
        yield "rhp != ng_max", _rewrite_sweep(text, row, "rhp", 1.5), stdout
        yield "ipr above 1", _rewrite_sweep(text, row, "ipr", 1e3), stdout
        yield "row dropped", "\n".join(text.splitlines()[:-1]) + "\n", stdout
    elif name == "spectral":
        lines = text.splitlines()
        n = int(stdout.split("],")[1].split()[0])
        counts = [round(float(line.split()[1]) * n * oracle.HIST_BIN) for line in lines]
        src = max(range(len(counts)), key=counts.__getitem__)
        counts[src] -= 1
        counts[src + 1] += 1
        moved = [
            f"{line.split()[0]} {c / (n * oracle.HIST_BIN):.10g}" for line, c in zip(lines, counts)
        ]
        yield "one spacing moved a bin", "\n".join(moved) + "\n", stdout
        q = stdout.split("brody_q = ")[1].split()[0]
        wrong_q = f"{float(q) + 0.01:.4f}"
        yield "brody_q off", text, stdout.replace(f"brody_q = {q}", f"brody_q = {wrong_q}")
    else:
        lines = text.splitlines()
        t = sorted(check.expected)[1]
        step, re_f, im_f = lines[t].split()
        lines[t] = f"{step} {float(re_f) * (1 - 1e-6):.12g} {im_f}"
        yield "f(t) off by 1e-6", "\n".join(lines) + "\n", stdout
        yield "series truncated", "\n".join(text.splitlines()[:-1]) + "\n", stdout


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_counts_as_failed(name, tmp_path):
    harness = run.Harness(ROOT, tmp_path, make_workload(name, SEED, smoke=True), SEED)
    result = harness.main_command()
    assert harness.tally.failed == 0, harness.tally.problems
    output = tmp_path / "run.out"
    text = output.read_text()
    for label, bad_text, bad_stdout in _corruptions(name, harness.main_check, text, result.stdout):
        output.write_text(bad_text)
        tally = oracle.Tally()
        harness.main_check.check(str(output), bad_stdout, tally)
        assert tally.failed >= 1, label


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
