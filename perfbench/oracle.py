"""Independent reference values and output checks for the benchmark.

Nothing here imports echochain. The reference builds U+ and U- from the
model's definition (Kronecker-ordered kick gates after the Ising phase, or
after the VGUE factor exp(-i (H_I +- eps V)) taken with scipy's expm),
diagonalizes them with numpy.linalg.eig (the program uses a Schur form),
and evaluates f(t), the measures, the IPR and the sector spacings from
their definitions. It is computed once per seed, outside the timed runs.

Tolerances admit an engine change of the accuracy already measured for the
k=0 sector path (4.7e-13 off the gate path in f) with ample headroom, and
nothing near a real defect: f must agree to 1e-9, a measure to 1e-7 of its
size (plus 1e-9), the IPR to 1e-7 of its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

F_TOL = 1e-9
MEASURE_RTOL = 1e-7
MEASURE_ATOL = 1e-9
IPR_RTOL = 1e-7
AMPLITUDE_SLACK = 1e-10
F_FLOOR = 1e-12  # the model's floor on F inside logarithms
SPACING_FLOOR = 1e-15  # floor on spacings inside the Brody log-likelihood
HIST_BIN, HIST_MAX = 0.1, 5.0
ORACLE_ROWS = 6
ORACLE_TIMES = 24

SWEEP_COLUMNS = (
    "theta", "phi", "hemisphere", "ipr", "blp", "rhp", "nd_max", "nd_avg",
    "ng_max", "ng_avg", "f_asym", "f_amp_asym", "clamp_events",
)
MEASURE_COLUMNS = SWEEP_COLUMNS[4:12]

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# -- the model ---------------------------------------------------------------


@dataclass(frozen=True)
class Side:
    """One propagator: per-qubit kick gates after a diagonal phase or a dense factor."""

    n: int
    gates: tuple
    phases: np.ndarray | None
    dense: np.ndarray | None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x for a (2^n, m) array of columns."""
        y = self.dense @ x if self.dense is not None else self.phases[:, None] * x
        m = y.shape[1]
        t = y.reshape((2,) * self.n + (m,))
        for q, gate in enumerate(self.gates):
            axis = self.n - 1 - q  # qubit q is bit q, the (n-1-q)-th tensor axis
            t = np.moveaxis(np.tensordot(gate, t, axes=([1], [axis])), 0, axis)
        return t.reshape(1 << self.n, m)


def _ising_angles(n: int, bonds) -> np.ndarray:
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    s = 1.0 - 2.0 * bits
    return (s * np.roll(s, -1, axis=1)) @ np.asarray(bonds, dtype=float)


def _gate(bx: float, bz: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * (bx * _X + bz * _Z))


def gue_matrix(dim: int, seed: int) -> np.ndarray:
    """The VGUE draw for (seed, stream 0), rescaled to spectral norm log2(dim)."""
    g = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    a = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / math.sqrt(2.0)
    h = (a + a.conj().T) / 2.0
    return h * (math.log2(dim) / np.max(np.abs(np.linalg.eigvalsh(h))))


def propagators(config: dict) -> tuple[Side, Side]:
    """(U+, U-) of the config's chain; the perturbation placed by its coupling."""
    n, bx, bz = config["n_qubits"], config["b_perp"], config["b_par"]
    eps, coupling = config["epsilon"], config["coupling"]
    sides = []
    for sign in (1.0, -1.0):
        fields_ = [(bx, bz)] * n
        bonds = [1.0] * n
        dense = None
        if coupling == "VJ":
            bonds = [1.0 + sign * eps] * n
        elif coupling == "V01":
            bonds[0] = 1.0 + sign * eps
        elif coupling == "VB":
            fields_ = [(bx + sign * eps, bz)] * n
        elif coupling == "V0":
            fields_[0] = (bx + sign * eps, bz)
        elif coupling == "VGUE":
            v = gue_matrix(1 << n, config["seed"])
            dense = scipy.linalg.expm(-1j * (np.diag(_ising_angles(n, bonds)) + sign * eps * v))
        else:
            raise ValueError(f"unknown coupling {coupling}")
        phases = None if dense is not None else np.exp(-1j * _ising_angles(n, bonds))
        sides.append(Side(n, tuple(_gate(*f) for f in fields_), phases, dense))
    return sides[0], sides[1]


def coherent_state(theta: float, phi: float, n: int) -> np.ndarray:
    one = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
    psi = np.ones(1)
    for _ in range(n):
        psi = np.kron(one, psi)
    return psi


def momentum_basis(n: int, k: int) -> np.ndarray:
    """Orthonormal columns spanning the momentum-k sector of cyclic translation."""
    dim = 1 << n
    shifts = [np.arange(dim)]
    for _ in range(n - 1):
        b = shifts[-1]
        shifts.append(((b << 1) | (b >> (n - 1))) & (dim - 1))
    shifts = np.array(shifts)
    reps = np.unique(shifts.min(axis=0))
    basis = np.zeros((dim, reps.size), dtype=complex)
    cols = np.arange(reps.size)
    for j in range(n):
        np.add.at(basis, (shifts[j, reps], cols), np.exp(-2j * np.pi * k * j / n))
    norms = np.linalg.norm(basis, axis=0)
    keep = norms > 1e-9
    return basis[:, keep] / norms[keep]


# -- reference values ----------------------------------------------------------


def _eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = np.linalg.eig(u)
    return np.angle(values), vectors


class Echo:
    """f(t) = <x| (U-^t)^dag U+^t |x> from the eigenphases of dense U+ and U-."""

    def __init__(self, u_plus: np.ndarray, u_minus: np.ndarray) -> None:
        self.plus = _eig(u_plus)
        self.minus = _eig(u_minus)
        self.cross = self.minus[1].conj().T @ self.plus[1]

    def f(self, x: np.ndarray, times: np.ndarray) -> np.ndarray:
        (ph_p, v_p), (ph_m, v_m) = self.plus, self.minus
        a = np.linalg.solve(v_p, x)[:, None] * np.exp(1j * np.outer(ph_p, times))
        b = np.linalg.solve(v_m, x)[:, None] * np.exp(1j * np.outer(ph_m, times))
        return np.einsum("jt,jt->t", b.conj(), self.cross @ a)

    def ipr(self, x: np.ndarray) -> float:
        vectors = self.plus[1] / np.linalg.norm(self.plus[1], axis=0)
        return float(np.sum(np.abs(vectors.conj().T @ x) ** 4))


def measures(f: np.ndarray, tail_fraction: float = 0.5) -> dict:
    """The six non-Markovianity measures and the tail averages, by definition."""
    amp = np.abs(f)
    rises = np.diff(amp)
    log_rises = np.diff(np.log(np.maximum(amp, F_FLOOR)))
    g = np.concatenate([[0.0], np.cumsum(np.where(log_rises > 0, log_rises, 0.0))])

    def rise_above_min(k):
        return max(0.0, float(np.max(k - np.minimum.accumulate(k))))

    def rise_above_mean(k):
        earlier_mean = np.cumsum(k)[:-1] / np.arange(1, k.size)
        return max(0.0, float(np.max(k[1:] - earlier_mean)))

    tail = amp[math.ceil((amp.size - 1) * (1.0 - tail_fraction)):]
    return dict(
        blp=float(np.sum(rises[rises > 0])),
        rhp=float(np.sum(log_rises[log_rises > 0])),
        nd_max=rise_above_min(amp),
        nd_avg=rise_above_mean(amp),
        ng_max=rise_above_min(g),
        ng_avg=rise_above_mean(g),
        f_asym=float(np.mean(tail**2)),
        f_amp_asym=float(np.mean(tail)),
        clamp_events=float(np.count_nonzero(amp < F_FLOOR)),
    )


def axis_values(lo: float, hi: float, step: float) -> list[float]:
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return [lo + i * step for i in range(count)]


def sweep_grid(config: dict) -> list[tuple[float, float]]:
    thetas = axis_values(config["theta_min"], math.pi, config["theta_step"])
    phis = [p for p in axis_values(config["phi_min"], 2 * math.pi, config["phi_step"])
            if p < 2 * math.pi]
    return [(t, p) for t in thetas for p in phis]


def brody_cdf(s: np.ndarray, q: float) -> np.ndarray:
    alpha = math.gamma((q + 2.0) / (q + 1.0)) ** (q + 1.0)
    return 1.0 - np.exp(-alpha * np.maximum(s, 0.0) ** (q + 1.0))


def brody_loglik(s: np.ndarray, q: float) -> float:
    alpha = math.gamma((q + 2.0) / (q + 1.0)) ** (q + 1.0)
    s = np.maximum(s, SPACING_FLOOR)
    return float(np.sum(np.log((q + 1.0) * alpha * s**q) - alpha * s ** (q + 1.0)))


def ks_distance(s: np.ndarray, q: float) -> float:
    s = np.sort(s)
    cdf = brody_cdf(s, q)
    i = np.arange(1, s.size + 1)
    return float(max(np.max(i / s.size - cdf), np.max(cdf - (i - 1) / s.size)))


# -- checks --------------------------------------------------------------------


def _close(value: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - expected) <= atol + rtol * abs(expected)


@dataclass
class Tally:
    """Outputs attempted and failed, with the first few reasons kept."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


class SweepCheck:
    """Every row: shape, finiteness and the measure invariants; sampled rows: the reference."""

    def __init__(self, config: dict, sample_rows: list[int]) -> None:
        self.grid = sweep_grid(config)
        self.expected: dict[int, dict] = {}
        n = config["n_qubits"]
        if config.get("ipr_basis") == "FULL":
            basis = None
            self.ipr_dim = 1 << n
        else:
            basis = momentum_basis(n, 0)
            self.ipr_dim = basis.shape[1]
        if not sample_rows:
            return
        plus, minus = propagators(config)
        if basis is None:
            eye = np.eye(1 << n, dtype=complex)
            echo = Echo(plus.apply(eye), minus.apply(eye))
        else:
            echo = Echo(basis.conj().T @ plus.apply(basis), basis.conj().T @ minus.apply(basis))
        times = np.arange(config["t_cut"] + 1)
        for i in sample_rows:
            psi = coherent_state(*self.grid[i], n)
            x = psi if basis is None else basis.conj().T @ psi
            expected = measures(echo.f(x, times))
            expected["ipr"] = echo.ipr(x)
            self.expected[i] = expected

    @property
    def outputs(self) -> int:
        return len(self.grid)

    def check(self, out_path: str, stdout: str, tally: Tally) -> None:
        try:
            with open(out_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            for _ in self.grid:
                tally.add(False, f"sweep output unreadable: {exc}")
            return
        if not lines or tuple(lines[0].split(",")) != SWEEP_COLUMNS:
            lines = [""]
        rows = lines[1:]
        for i, (theta, phi) in enumerate(self.grid):
            cells = rows[i].split(",") if i < len(rows) else []
            ok, why = self._row_ok(i, theta, phi, cells)
            tally.add(ok, f"row {i}: {why}")
        for extra in range(len(self.grid), len(rows)):
            tally.add(False, f"row {extra}: beyond the grid")

    def _row_ok(self, i: int, theta: float, phi: float, cells: list[str]) -> tuple[bool, str]:
        if len(cells) != len(SWEEP_COLUMNS):
            return False, "missing or malformed"
        try:
            row = {k: float(v) for k, v in zip(SWEEP_COLUMNS, cells) if k != "hemisphere"}
        except ValueError:
            return False, "non-numeric cell"
        if not all(math.isfinite(v) for v in row.values()):
            return False, "non-finite cell"
        if not (_close(row["theta"], theta, 1e-9, 1e-12) and _close(row["phi"], phi, 1e-9, 1e-12)):
            return False, "grid point out of place"
        if cells[2] != ("N" if theta <= math.pi / 2 else "S"):
            return False, "wrong hemisphere"
        if row["rhp"] != row["ng_max"]:
            return False, "rhp != ng_max"
        if row["nd_avg"] > row["nd_max"] + 1e-12:
            return False, "nd_avg > nd_max"
        if not (1.0 / self.ipr_dim) * (1 - 1e-9) <= row["ipr"] <= 1.0 + 1e-9:
            return False, "ipr outside [1/dim, 1]"
        if not (0.0 <= row["f_asym"] <= 1.0 + AMPLITUDE_SLACK
                and 0.0 <= row["f_amp_asym"] <= 1.0 + AMPLITUDE_SLACK):
            return False, "|f| > 1"
        if min(row[k] for k in MEASURE_COLUMNS[:6]) < 0.0 or row["clamp_events"] < 0:
            return False, "negative measure"
        expected = self.expected.get(i)
        if expected is not None:
            for key in MEASURE_COLUMNS + ("clamp_events",):
                if not _close(row[key], expected[key], MEASURE_RTOL, MEASURE_ATOL):
                    return False, f"{key} {row[key]!r} != reference {expected[key]!r}"
            if not _close(row["ipr"], expected["ipr"], IPR_RTOL):
                return False, f"ipr {row['ipr']!r} != reference {expected['ipr']!r}"
        return True, "ok"


class SeriesCheck:
    """The series file: every sample bounded, f(0) = 1; sampled times: the reference."""

    outputs = 1

    def __init__(self, config: dict, angles, sample_times: list[int]) -> None:
        self.t_cut = config["t_cut"]
        self.expected: dict[int, complex] = {}
        if sample_times:
            plus, minus = propagators(config)
            eye = np.eye(1 << config["n_qubits"], dtype=complex)
            echo = Echo(plus.apply(eye), minus.apply(eye))
            times = np.array(sorted(set(sample_times)))
            x = coherent_state(*angles, config["n_qubits"])
            self.expected = dict(zip(times.tolist(), echo.f(x, times)))

    def check(self, out_path: str, stdout: str, tally: Tally) -> None:
        tally.add(*self._ok(out_path))

    def _ok(self, out_path: str) -> tuple[bool, str]:
        try:
            data = np.loadtxt(out_path, ndmin=2)
        except (OSError, ValueError) as exc:
            return False, f"series unreadable: {exc}"
        if data.shape != (self.t_cut + 1, 3) or not np.all(np.isfinite(data)):
            return False, f"series shape {data.shape} or non-finite values"
        if not np.array_equal(data[:, 0], np.arange(self.t_cut + 1)):
            return False, "time column is not 0..t_cut"
        f = data[:, 1] + 1j * data[:, 2]
        if f[0] != 1.0:
            return False, "f(0) != 1"
        if np.max(np.abs(f)) > 1.0 + AMPLITUDE_SLACK:
            return False, "|f| > 1"
        for t, expected in self.expected.items():
            if abs(f[t] - expected) > F_TOL:
                return False, f"f({t}) = {f[t]!r} != reference {expected!r}"
        return True, "ok"


class SpectralCheck:
    """The spacing histogram and the printed fit against the sector-phase reference."""

    outputs = 1

    def __init__(self, config: dict) -> None:
        n = config["n_qubits"]
        self.sectors = [k for k in range(n) if k != 0 and 2 * k != n]
        self.reference = self._reference(config)

    def _reference(self, config: dict) -> dict:
        n = config["n_qubits"]
        plus, _ = propagators(config)
        pooled = []
        for k in self.sectors:
            basis = momentum_basis(n, k)
            phases = np.sort(np.angle(np.linalg.eigvals(basis.conj().T @ plus.apply(basis))))
            gaps = np.append(np.diff(phases), phases[0] + 2.0 * np.pi - phases[-1])
            pooled.append(gaps * basis.shape[1] / (2.0 * np.pi))
        s = np.concatenate(pooled)
        fit = scipy.optimize.minimize_scalar(
            lambda q: -brody_loglik(s, q), bounds=(0.0, 1.2), method="bounded",
            options={"xatol": 1e-8},
        )
        q = float(fit.x)
        edges = np.arange(0.0, HIST_MAX + HIST_BIN / 2, HIST_BIN)
        counts, _ = np.histogram(s, bins=edges)
        on_edge = int(np.sum(np.min(np.abs(s[:, None] - edges[None, :]), axis=1) < 1e-9))
        return dict(
            spacings=s.size, brody_q=q, loglik=brody_loglik(s, q),
            ks_poisson=ks_distance(s, 0.0), ks_wigner=ks_distance(s, 1.0),
            ks_brody=ks_distance(s, q), counts=counts, on_edge=on_edge,
        )

    def check(self, out_path: str, stdout: str, tally: Tally) -> None:
        tally.add(*self._ok(out_path, stdout))

    def _ok(self, out_path: str, stdout: str) -> tuple[bool, str]:
        printed = _parse_summary(stdout)
        if printed is None:
            return False, "spectral summary missing from stdout"
        try:
            hist = np.loadtxt(out_path, ndmin=2)
        except (OSError, ValueError) as exc:
            return False, f"histogram unreadable: {exc}"
        n_bins = round(HIST_MAX / HIST_BIN)
        if hist.shape != (n_bins, 2) or not np.all(np.isfinite(hist)) or np.any(hist < 0):
            return False, f"histogram shape {hist.shape} or bad densities"
        if printed["sectors"] != self.sectors:
            return False, f"sectors {printed['sectors']} != {self.sectors}"
        if not 0.0 <= printed["brody_q"] <= 1.2:
            return False, "brody_q outside [0, 1.2]"
        ref = self.reference
        if printed["spacings"] != ref["spacings"]:
            return False, f"{printed['spacings']} spacings != {ref['spacings']}"
        # Printed to 4 decimals; the program's golden section stops at a 1e-4 bracket.
        tolerances = dict(brody_q=1.6e-4, loglik=6e-5, ks_poisson=6e-5, ks_wigner=6e-5,
                          ks_brody=1e-3)
        for key, tol in tolerances.items():
            if abs(printed[key] - ref[key]) > tol + 1e-9 * abs(ref[key]):
                return False, f"{key} {printed[key]} != reference {ref[key]:.6f}"
        counts = np.rint(hist[:, 1] * ref["spacings"] * HIST_BIN).astype(int)
        moved = int(np.sum(np.abs(counts - ref["counts"])))
        if moved > 2 * ref["on_edge"]:
            return False, f"histogram differs from reference by {moved} counts"
        return True, "ok"


def _parse_summary(stdout: str) -> dict | None:
    values: dict = {}
    for line in stdout.splitlines():
        if line.startswith("sectors k = "):
            head, _, tail = line[len("sectors k = "):].partition("],")
            try:
                values["sectors"] = [int(k) for k in head.strip("[ ").split(",") if k.strip()]
                values["spacings"] = int(tail.split()[0])
            except (ValueError, IndexError):
                return None
            continue
        for part in line.split("  "):
            key, sep, value = part.partition(" = ")
            if sep and key.strip() in ("brody_q", "loglik", "ks_poisson", "ks_wigner", "ks_brody"):
                try:
                    values[key.strip()] = float(value)
                except ValueError:
                    return None
    needed = {"sectors", "spacings", "brody_q", "loglik", "ks_poisson", "ks_wigner", "ks_brody"}
    return values if needed <= set(values) else None


class ProbeCheck:
    """The spectral set-up probe writes nothing; it counts as one output that must exit 0."""

    outputs = 1

    def check(self, out_path: str, stdout: str, tally: Tally) -> None:
        tally.add(True, "ok")
