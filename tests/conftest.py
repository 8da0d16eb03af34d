from pathlib import Path

import pytest

import echochain
from echochain.chain import ChainParams, Coupling, build_floquet_pair
from echochain.symmetry import spacing_statistics

ACCEPTANCE_RESULTS: list[tuple[int, str]] = []


def record_acceptance(number: int, label: str, ok: bool) -> None:
    """Logs one criterion verdict and raises on failure."""
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {label}"
    ACCEPTANCE_RESULTS.append((number, line))
    assert ok, line


@pytest.fixture(scope="session")
def chain12_spectra():
    """Spacing statistics of the bare 12-qubit chain in all three regimes.

    Shared between the spectral acceptance checks and the module tests; the
    ten sector diagonalizations per regime take a few seconds each.
    """
    reports = {}
    for b_perp in (0.1, 1.0, 1.4):
        params = ChainParams(12, b_perp, 1.4, 0.0, Coupling.VJ)
        pair = build_floquet_pair(params)
        reports[b_perp] = spacing_statistics(pair.plus)
    return reports


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)
    # For information only: the size of the package the suite imported.
    package = Path(echochain.__file__).parent
    modules = sorted(package.glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    terminalreporter.write_line(
        f"{package.parent.name}/{package.name}: {lines:,} lines in {len(modules)} modules"
    )
