"""Translation sectors, IPR, eigenphase spacing statistics, and the Brody fit."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import FloquetOperator, apply_floquet
from .linalg import EigenSystem, unitary_eig

SECTOR_UNITARY_TOL = 1e-9
IPR_PROJECTION_TOL = 1e-8
MIN_BRODY_SPACINGS = 50


class SymmetryViolationError(ValueError):
    """The operator does not preserve the requested momentum sector."""


def rotate_left(index: int, n_qubits: int) -> int:
    """Cyclic shift sending bit i to bit i+1 and the top bit to bit 0."""
    mask = (1 << n_qubits) - 1
    return ((index << 1) | (index >> (n_qubits - 1))) & mask


@lru_cache(maxsize=None)
def _orbits(n_qubits: int) -> tuple[tuple[int, int], ...]:
    # (smallest member, period) per cyclic orbit; scanning ascending makes
    # the first-seen member the smallest.
    dim = 1 << n_qubits
    seen = bytearray(dim)
    out = []
    for b in range(dim):
        if seen[b]:
            continue
        members = [b]
        x = rotate_left(b, n_qubits)
        while x != b:
            members.append(x)
            x = rotate_left(x, n_qubits)
        for m in members:
            seen[m] = 1
        out.append((b, len(members)))
    return tuple(out)


@dataclass(frozen=True)
class SectorBasis:
    n_qubits: int
    k: int
    orbit_reps: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.orbit_reps)


def build_sector(n_qubits: int, k: int) -> SectorBasis:
    """Momentum-k sector: orbits of period p enter iff k*p = 0 mod N."""
    if not 0 <= k < n_qubits:
        raise ValueError(f"k must lie in [0, {n_qubits})")
    reps = tuple((r, p) for r, p in _orbits(n_qubits) if (k * p) % n_qubits == 0)
    return SectorBasis(n_qubits, k, reps)


def sector_basis_matrix(basis: SectorBasis) -> np.ndarray:
    """Columns are the momentum basis vectors (1/sqrt p) sum_j e^{-2pi i k j/N} T^j |r>."""
    n, k = basis.n_qubits, basis.k
    b = np.zeros((1 << n, basis.dim), dtype=np.complex128)
    for col, (rep, period) in enumerate(basis.orbit_reps):
        coeff = np.exp(-2j * np.pi * k * np.arange(period) / n) / math.sqrt(period)
        x = rep
        for j in range(period):
            b[x, col] = coeff[j]
            x = rotate_left(x, n)
    return b


def sector_matrix(op: FloquetOperator, basis: SectorBasis) -> np.ndarray:
    """Block <momentum basis| U |momentum basis>; must come out unitary.

    A non-unitary block means U leaks out of the sector, i.e. the coupling
    breaks translation symmetry.
    """
    if op.n_qubits != basis.n_qubits:
        raise ValueError("operator and sector qubit counts differ")
    b = sector_basis_matrix(basis)
    block = b.conj().T @ apply_floquet(op, b)
    defect = float(np.max(np.abs(block.conj().T @ block - np.eye(basis.dim))))
    if defect > SECTOR_UNITARY_TOL:
        raise SymmetryViolationError(
            f"sector k={basis.k} block is not unitary (defect {defect:.2e}); "
            "the operator breaks translation symmetry"
        )
    return block


def ipr(states: np.ndarray, eig: EigenSystem) -> float | np.ndarray:
    """Inverse participation ratio sum_n |<n|state>|^4 over the eigenbasis.

    ``states`` is one state (d,), giving a float, or one state per column
    (d, m), giving an (m,) array.
    """
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim not in (1, 2) or states.shape[0] != eig.vectors.shape[0]:
        raise ValueError("state dimension does not match eigenbasis")
    weights = np.abs(eig.vectors.conj().T @ states) ** 2
    deficit = float(np.max(np.abs(1.0 - np.sum(weights, axis=0))))
    if deficit > IPR_PROJECTION_TOL:
        raise ValueError(f"state lies outside the eigenbasis span (deficit {deficit:.2e})")
    if eig.degenerate:
        warnings.warn(
            "eigenbasis has (near-)degenerate values; IPR is basis dependent there",
            stacklevel=2,
        )
    values = np.sum(weights**2, axis=0)
    return values if values.ndim else float(values)


@dataclass(frozen=True, eq=False)
class SpectralReport:
    spacings: np.ndarray
    sectors_used: tuple[int, ...]
    brody_q: float
    brody_loglik: float
    ks_poisson: float
    ks_wigner: float
    ks_brody: float


def brody_alpha(q: float) -> float:
    return math.gamma((q + 2.0) / (q + 1.0)) ** (q + 1.0)


def brody_cdf(s: np.ndarray, q: float) -> np.ndarray:
    s = np.maximum(np.asarray(s, dtype=float), 0.0)
    return 1.0 - np.exp(-brody_alpha(q) * s ** (q + 1.0))


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance sup |F_n - F| of a sample to a CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    cdf_values = cdf(x)
    ecdf = np.arange(x.size + 1) / x.size  # empirical CDF below / at each sorted point
    return float(max(np.max(ecdf[1:] - cdf_values), np.max(cdf_values - ecdf[:-1])))


def brody_fit(spacings: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood Brody parameter over q in [0, 1.2], tolerance 1e-4."""
    s = np.asarray(spacings, dtype=float)
    if s.size < MIN_BRODY_SPACINGS:
        raise ValueError(f"need at least {MIN_BRODY_SPACINGS} spacings, got {s.size}")
    # Exact zero gaps (degenerate phases) would send log s to -inf.
    s = np.maximum(s, 1e-15)
    n = s.size
    sum_log = float(np.sum(np.log(s)))

    def loglik(q: float) -> float:
        a = brody_alpha(q)
        return (
            n * math.log(q + 1.0)
            + n * math.log(a)
            + q * sum_log
            - a * float(np.sum(s ** (q + 1.0)))
        )

    inv_gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.2
    c = hi - inv_gr * (hi - lo)
    d = lo + inv_gr * (hi - lo)
    fc, fd = loglik(c), loglik(d)
    while hi - lo > 1e-4:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_gr * (hi - lo)
            fc = loglik(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_gr * (hi - lo)
            fd = loglik(d)
    q = 0.5 * (lo + hi)
    return q, loglik(q)


def sector_spacings(eig: EigenSystem, sector_dim: int) -> np.ndarray:
    """Circular nearest-neighbor gaps, unfolded to mean exactly 1."""
    phases = eig.values
    if phases.size == 1:
        gaps = np.array([2.0 * np.pi])
    else:
        gaps = np.concatenate([np.diff(phases), [phases[0] + 2.0 * np.pi - phases[-1]]])
    return gaps * sector_dim / (2.0 * np.pi)


def spacing_statistics(op: FloquetOperator, n_qubits: int) -> SpectralReport:
    """Pooled unfolded spacings over momentum sectors, excluding k = 0 and N/2.

    The excluded sectors carry an extra reflection symmetry that mixes
    statistics; dropping them leaves clean ensembles.
    """
    if op.n_qubits != n_qubits:
        raise ValueError("operator and qubit count differ")
    skip = {0}
    if n_qubits % 2 == 0:
        skip.add(n_qubits // 2)
    pooled = []
    used = []
    for k in range(n_qubits):
        if k in skip:
            continue
        basis = build_sector(n_qubits, k)
        eig = unitary_eig(sector_matrix(op, basis))
        pooled.append(sector_spacings(eig, basis.dim))
        used.append(k)
    spacings = np.concatenate(pooled)
    q, loglik = brody_fit(spacings)
    # Kolmogorov-Smirnov distances to Poisson (q = 0), Wigner (q = 1) and the fit.
    ks = [ks_statistic(spacings, lambda x, p=p: brody_cdf(x, p)) for p in (0.0, 1.0, q)]
    return SpectralReport(spacings, tuple(used), q, loglik, *ks)


def spacing_histogram(
    spacings: np.ndarray, bin_width: float = 0.1, s_max: float = 5.0
) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, density) with density normalized by the full sample count."""
    edges = np.arange(0.0, s_max + bin_width / 2.0, bin_width)
    counts, _ = np.histogram(np.asarray(spacings, dtype=float), bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    density = counts / (len(spacings) * bin_width)
    return centers, density
