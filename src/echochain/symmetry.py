"""Symmetry-adapted blocks, IPR, eigenphase spacing statistics, and the Brody fit."""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .chain import DENSE_DIM_CAP, FloquetOperator, _ising_angles, apply_floquet
from .linalg import EigenSystem, norm_deficit, unitary_eig, unitary_phases

SECTOR_UNITARY_TOL = 1e-9
PROJECTION_DEFICIT_TOL = 1e-10
DEGENERATE_WEIGHT_TOL = 1e-8
DEGENERACY_GAP = 1e-10
MIN_BRODY_SPACINGS = 50


class SymmetryViolationError(ValueError):
    """The operator does not preserve the requested momentum sector or orbit block."""


def _dihedral(n_qubits: int) -> np.ndarray:
    """Rows p (site i -> p[i]): the N translations i -> i + j, then the N reflections i -> j - i."""
    sites = np.arange(n_qubits)
    shifts = sites[:, np.newaxis]
    return np.concatenate([(shifts + sites) % n_qubits, (shifts - sites) % n_qubits])


def _permuted_states(n_qubits: int, perms: np.ndarray) -> np.ndarray:
    """[b, g]: basis state b with its bit i moved to bit perms[g, i]."""
    bits = (np.arange(1 << n_qubits)[:, np.newaxis] >> np.arange(n_qubits)) & 1
    return bits @ (1 << perms.T)


@lru_cache(maxsize=None)
def _translations(n_qubits: int) -> np.ndarray:
    """(2^N, N) table whose column j maps every basis index b to T^j b (bit i to bit i+j)."""
    table = _permuted_states(n_qubits, _dihedral(n_qubits)[:n_qubits])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _orbits(n_qubits: int) -> tuple[tuple[int, int], ...]:
    # (smallest member, period) per cyclic orbit, ascending by member.
    reps, periods = np.unique(_translations(n_qubits).min(axis=1), return_counts=True)
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
    b[_translations(n)[reps].T[member], cols[member]] = coeff[member]
    return b


def _orbit_images(op: FloquetOperator) -> np.ndarray:
    """U|r> for every orbit representative r, one column each, from one apply."""
    if not (isinstance(op, FloquetOperator) and is_uniform([op])):
        raise SymmetryViolationError(
            "the operator breaks translation symmetry (site-dependent kicks or bonds, "
            "or a dense VGUE matrix)"
        )
    reps = [r for r, _ in _orbits(op.n_qubits)]
    unit = np.zeros((op.dim, len(reps)), dtype=np.complex128)
    unit[reps, np.arange(len(reps))] = 1.0
    return apply_floquet(op, unit)


def sector_matrix(
    op: FloquetOperator, basis: SectorBasis, images: np.ndarray | None = None
) -> np.ndarray:
    """Block <k,r'|U|k,r> of a translation-invariant U; must come out unitary.

    With T U = U T the block is read off the images U|r> of the orbit
    representatives: <k,r'|U|k,r> = sqrt(p_r' p_r)/N sum_j e^{2pi i k j/N} <T^j r'|U|r>.
    ``images`` are those of ``op`` from ``_orbit_images``; without them the
    call makes its own, one apply, and keeps nothing. Site-dependent kicks make
    the block lose column norm. Site-dependent bonds only rephase each U|r> (the
    Ising phases act first), so the block stays unitary and only the guard refuses them.
    """
    if op.n_qubits != basis.n_qubits:
        raise ValueError("operator and sector qubit counts differ")
    if images is None:
        images = _orbit_images(op)
    n = basis.n_qubits
    reps, periods = np.array(basis.orbit_reps, dtype=np.int64).T
    columns = np.searchsorted([r for r, _ in _orbits(n)], reps)
    rows = _translations(n)[reps].T
    images = images[rows[:, :, np.newaxis], columns]  # [j, r', r] = <T^j r'|U|r>
    phases = np.exp(2j * np.pi * basis.k * np.arange(n) / n)
    block = np.sqrt(np.outer(periods, periods)) / n * np.tensordot(phases, images, axes=1)
    _require_no_leak(block, f"sector k={basis.k} block")
    return block


def _require_no_leak(block: np.ndarray, name: str) -> None:
    """A compression of a unitary is unitary iff no column lost norm (``norm_deficit``)."""
    defect = norm_deficit(block)
    if defect > SECTOR_UNITARY_TOL:
        raise SymmetryViolationError(
            f"{name} is not unitary (defect {defect:.2e}); the operator leaks out of it"
        )


def _site_symmetries(ops: Sequence[FloquetOperator]) -> np.ndarray:
    """Rows p (site i -> p[i]) of the dihedral group that keep every op's kicks and bonds.

    p carries bond i, joining sites i and i+1, to the bond joining p[i] and
    p[i+1].
    """
    n = ops[0].n_qubits
    perms = _dihedral(n)
    following = np.roll(perms, -1, axis=1)
    bonds = np.where((following - perms) % n == 1, perms, following)
    keep = np.ones(len(perms), dtype=bool)
    for op in ops:
        kicks, strengths = np.array(op.kick_fields), np.array(op.bond_strengths)
        keep &= np.all(kicks[perms] == kicks, axis=(1, 2))
        keep &= np.all(strengths[bonds] == strengths, axis=1)
    return perms[keep]


def is_uniform(ops: Sequence[FloquetOperator]) -> bool:
    """Whether every translation and reflection of the chain leaves all of ``ops`` unchanged."""
    return len(_site_symmetries(ops)) == 2 * ops[0].n_qubits


def orbit_blocks(ops: Sequence[FloquetOperator]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(C, C^T U C for each U in ``ops``), one apply of each operator to C.

    C is real with one column per orbit of the site permutations that leave all
    of ``ops`` unchanged (``_site_symmetries``): translations and reflections for
    a uniform chain, the reflection fixing a perturbed site or bond (at N = 2 the
    identity alone, so C is the identity). A column is its orbit's indicator over
    sqrt(orbit size), in the order of the orbits' smallest members; every product
    of identical qubit states lies in their span. A block must come out unitary.
    More than DENSE_DIM_CAP orbits are refused before C is formed. An operator
    listed twice (the one object of an epsilon = 0 pair) gets one block.
    """
    perms = _site_symmetries(ops)
    # No orbit outgrows the group: refuse a dimension that alone implies too many orbits
    # before the (2^N, |G|) table of images.
    if ops[0].dim > len(perms) * DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    images = _permuted_states(ops[0].n_qubits, perms)
    index = np.arange(ops[0].dim)
    _, orbit, sizes = np.unique(images.min(axis=1), return_inverse=True, return_counts=True)
    if len(sizes) > DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    basis = np.zeros((len(index), len(sizes)))
    basis[index, orbit] = 1.0 / np.sqrt(sizes[orbit])
    # C has one nonzero per row, so C^T U C sums the rows of U C over each orbit.
    members, starts = np.argsort(orbit, kind="stable"), np.cumsum(sizes) - sizes
    blocks = dict.fromkeys(ops)  # FloquetOperator hashes by identity (eq=False)
    for op in blocks:
        sums = np.add.reduceat(apply_floquet(op, basis)[members], starts)
        blocks[op] = (1.0 / np.sqrt(sizes))[:, np.newaxis] * sums
        _require_no_leak(blocks[op], "orbit block")
    return basis, tuple(blocks[op] for op in ops)


def orbit_eig(op: FloquetOperator) -> tuple[np.ndarray, EigenSystem]:
    """(C, the eigensystem of U's orbit block B = C^T U C), both from ``orbit_blocks([op])``.

    U's Ising phases I act first, then its kicks K, so U = I^-1/2 S I^1/2 with
    S = I^1/2 K I^1/2. Every kick gate is a symmetric matrix and I is diagonal, so
    S = S^T (Bertini, Kos and Prosen, PRL 121, 264101 (2018)); C is real, so S's block
    is a symmetric unitary, which ``unitary_eig`` solves with real vectors s. I^1/2 is
    one phase h on each orbit, so C^T S C = h B conj(h), and B has the eigenvectors
    conj(h) s with S's residual.
    """
    basis, (block,) = orbit_blocks([op])
    # I^1/2 at each orbit's smallest member, the first nonzero of its column.
    h = np.exp(-0.5j * _ising_angles(op.n_qubits, op.bond_strengths)[basis.argmax(axis=0)])
    # Rebound, so that B is freed before the solve.
    block = h[:, np.newaxis] * block * h.conj()
    eig = unitary_eig(block)
    return basis, replace(eig, vectors=h.conj()[:, np.newaxis] * eig.vectors)


def ipr(states: np.ndarray, eig: EigenSystem) -> float | np.ndarray:
    """Inverse participation ratio sum_n |<n|state>|^4 over the eigenbasis.

    ``states`` is one state (d,), giving a float, or one state per column
    (d, m), giving an (m,) array.
    """
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim not in (1, 2) or states.shape[0] != eig.vectors.shape[0]:
        raise ValueError("state dimension does not match eigenbasis")
    amplitudes = eig.vectors.conj().T @ states
    deficit = norm_deficit(amplitudes)
    if deficit > PROJECTION_DEFICIT_TOL:
        raise ValueError(f"state lies outside the eigenbasis span (deficit {deficit:.2e})")
    weights = np.abs(amplitudes) ** 2
    if _weight_on_degenerate_group(weights, eig.values):
        warnings.warn(
            "state has weight on (near-)degenerate eigenvectors; IPR is basis dependent there",
            stacklevel=2,
        )
    values = np.sum(weights**2, axis=0)
    return values if values.ndim else float(values)


def circular_gaps(phases: np.ndarray) -> np.ndarray:
    """Gap after each ascending eigenphase; the last one wraps across the branch cut."""
    return np.diff(phases, append=phases[0] + 2.0 * np.pi)


def _weight_on_degenerate_group(weights: np.ndarray, phases: np.ndarray) -> bool:
    """Whether a column weighs above DEGENERATE_WEIGHT_TOL on two vectors of one degenerate group.

    A group is a run of eigenphases chained by gaps below DEGENERACY_GAP
    (circularly). Only there do the eigenvectors, and with them the IPR,
    depend on the solver.
    """
    gaps = circular_gaps(phases)
    if gaps.min() >= DEGENERACY_GAP:
        return False
    group = np.concatenate([[0], np.cumsum(gaps[:-1] >= DEGENERACY_GAP)])
    counts = np.zeros((group[-1] + 1,) + weights.shape[1:], dtype=np.int64)
    if gaps[-1] < DEGENERACY_GAP:
        group[group == group[-1]] = 0  # the last group wraps around onto the first
    np.add.at(counts, group, weights > DEGENERATE_WEIGHT_TOL)
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


def sector_spacings(phases: np.ndarray, sector_dim: int) -> np.ndarray:
    """Circular nearest-neighbor gaps of ascending eigenphases, unfolded to mean exactly 1."""
    return circular_gaps(phases) * sector_dim / (2.0 * np.pi)


def spacing_statistics(op: FloquetOperator) -> SpectralReport:
    """Pooled unfolded spacings over momentum sectors, excluding k = 0 and N/2.

    The excluded sectors carry an extra reflection symmetry that mixes
    statistics; dropping them leaves clean ensembles. The site reflection maps
    sector k onto N - k and commutes with every translation-invariant U (which
    ``_orbit_images`` insists on), so the two spectra coincide: sectors
    1..(N-1)//2 are diagonalised and their spacings stand in for N - k as well.
    Every block is read from the same images, one apply of U.
    """
    images = _orbit_images(op)
    n_qubits = op.n_qubits
    by_sector = {}
    for k in range(1, (n_qubits + 1) // 2):
        basis = build_sector(n_qubits, k)
        by_sector[k] = sector_spacings(unitary_phases(sector_matrix(op, basis, images)), basis.dim)
    used = [k for k in range(1, n_qubits) if 2 * k != n_qubits]
    # At N = 2 no sector is used; brody_fit then refuses the empty sample.
    spacings = np.concatenate([np.empty(0)] + [by_sector[min(k, n_qubits - k)] for k in used])
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
