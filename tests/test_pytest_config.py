"""The suite's warning filters must let a failing property test fail on its own.

``pyproject.toml`` turns DeprecationWarning into an error; a warning that the
Hypothesis plugin raises while reporting a failing example must not turn the
failure into an INTERNALERROR that stops the remaining tests.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
"""


def test_failing_property_test_exits_one(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path),
        ],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
