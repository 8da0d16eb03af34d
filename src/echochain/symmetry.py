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
DEGENERACY_GAP = 1e-10
MIN_BRODY_SPACINGS = 50


class SymmetryViolationError(ValueError):
    """The operator does not preserve the requested momentum sector."""


def rotate_left(index, n_qubits: int):
    """Cyclic shift sending bit i to bit i+1 and the top bit to bit 0 (elementwise on arrays)."""
    mask = (1 << n_qubits) - 1
    return ((index << 1) | (index >> (n_qubits - 1))) & mask


@lru_cache(maxsize=None)
def _rotations(n_qubits: int) -> np.ndarray:
    """(N, 2^N) table whose row j maps every basis index b to T^j b."""
    table = np.empty((n_qubits, 1 << n_qubits), dtype=np.int64)
    table[0] = np.arange(1 << n_qubits)
    for j in range(1, n_qubits):
        table[j] = rotate_left(table[j - 1], n_qubits)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _orbits(n_qubits: int) -> tuple[tuple[int, int], ...]:
    # (smallest member, period) per cyclic orbit, ascending by member.
    rot = _rotations(n_qubits)
    reps = np.flatnonzero(rot.min(axis=0) == rot[0])
    home = rot[1:, reps] == reps
    periods = np.where(home.any(axis=0), home.argmax(axis=0) + 1, n_qubits)
    return tuple(zip(reps.tolist(), periods.tolist()))


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
    """Columns are the momentum basis vectors (1/sqrt p) sum_{j<p} e^{-2pi i k j/N} T^j |r>."""
    n = basis.n_qubits
    reps, periods = np.array(basis.orbit_reps, dtype=np.int64).T
    j = np.arange(n)[:, np.newaxis]
    member = j < periods  # T^j r for j < p are the orbit's distinct members
    coeff = np.exp(-2j * np.pi * basis.k * j / n) / np.sqrt(periods)
    cols = np.broadcast_to(np.arange(basis.dim), member.shape)
    b = np.zeros((1 << n, basis.dim), dtype=np.complex128)
    b[_rotations(n)[:, reps][member], cols[member]] = coeff[member]
    return b


_LAST_IMAGES: dict = {}  # {op: _orbit_images(op)} for the last operator only


def _orbit_images(op: FloquetOperator) -> np.ndarray:
    """U|r> for every orbit representative r, one column each; all sectors read from it.

    Kept for the last operator, so the sectors of one U share one apply; the
    previous operator's images are dropped before the next are computed.
    """
    images = _LAST_IMAGES.get(op)
    if images is None:
        _LAST_IMAGES.clear()
        reps = [r for r, _ in _orbits(op.n_qubits)]
        unit = np.zeros((op.dim, len(reps)), dtype=np.complex128)
        unit[reps, np.arange(len(reps))] = 1.0
        images = apply_floquet(op, unit)
        images.setflags(write=False)  # shared by every caller
        _LAST_IMAGES[op] = images
    return images


def sector_matrix(op: FloquetOperator, basis: SectorBasis) -> np.ndarray:
    """Block <k,r'|U|k,r> of a translation-invariant U; must come out unitary.

    With T U = U T the block is read off the images U|r> of the orbit
    representatives: <k,r'|U|k,r> = sqrt(p_r' p_r)/N sum_j e^{2pi i k j/N} <T^j r'|U|r>.
    A non-unitary block means U leaks out of the sector.
    """
    if op.n_qubits != basis.n_qubits:
        raise ValueError("operator and sector qubit counts differ")
    if not op.translation_invariant:
        raise SymmetryViolationError(
            "the operator breaks translation symmetry (site-dependent kicks or bonds, "
            "or a dense factor)"
        )
    n = basis.n_qubits
    reps, periods = np.array(basis.orbit_reps, dtype=np.int64).T
    columns = np.searchsorted([r for r, _ in _orbits(n)], reps)
    rows = _rotations(n)[:, reps]
    images = _orbit_images(op)[rows[:, :, np.newaxis], columns]  # [j, r', r] = <T^j r'|U|r>
    phases = np.exp(2j * np.pi * basis.k * np.arange(n) / n)
    block = np.sqrt(np.outer(periods, periods)) / n * np.tensordot(phases, images, axes=1)
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
    if _weight_on_degenerate_group(weights, eig.values):
        warnings.warn(
            "state has weight on (near-)degenerate eigenvectors; IPR is basis dependent there",
            stacklevel=2,
        )
    values = np.sum(weights**2, axis=0)
    return values if values.ndim else float(values)


def _weight_on_degenerate_group(weights: np.ndarray, phases: np.ndarray) -> bool:
    """Whether a column weighs above IPR_PROJECTION_TOL on two vectors of one degenerate group.

    A group is a run of eigenphases chained by gaps below DEGENERACY_GAP
    (circularly). Only there do the eigenvectors, and with them the IPR,
    depend on the solver.
    """
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)  # gap after each phase
    group = np.concatenate([[0], np.cumsum(gaps[:-1] >= DEGENERACY_GAP)])
    counts = np.zeros((group[-1] + 1,) + weights.shape[1:], dtype=np.int64)
    if gaps[-1] < DEGENERACY_GAP:
        group[group == group[-1]] = 0  # the last group wraps around onto the first
    np.add.at(counts, group, weights > IPR_PROJECTION_TOL)
    return bool(np.any(counts >= 2))


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
    statistics; dropping them leaves clean ensembles. The site reflection maps
    sector k onto N - k and commutes with every translation-invariant U (which
    ``sector_matrix`` insists on), so the two spectra coincide: sectors
    1..(N-1)//2 are diagonalised and their spacings stand in for N - k as well.
    """
    if op.n_qubits != n_qubits:
        raise ValueError("operator and qubit count differ")
    by_sector = {}
    for k in range(1, (n_qubits + 1) // 2):
        basis = build_sector(n_qubits, k)
        by_sector[k] = sector_spacings(unitary_eig(sector_matrix(op, basis)), basis.dim)
    used = [k for k in range(1, n_qubits) if 2 * k != n_qubits]
    spacings = np.concatenate([by_sector[min(k, n_qubits - k)] for k in used])
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
