"""Symmetry-adapted blocks, IPR, eigenphase spacing statistics, and the Brody fit."""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .chain import DENSE_DIM_CAP, FloquetOperator, _ising_angles, apply_floquet
from .linalg import EigenSystem, norm_deficit, unitary_eig, unitary_phases

SECTOR_UNITARY_TOL = 1e-9
PROJECTION_DEFICIT_TOL = 1e-10
DEGENERATE_WEIGHT_TOL = 1e-8
DEGENERACY_GAP = 1e-10
MIN_BRODY_SPACINGS = 50
HISTOGRAM_BIN_WIDTH = 0.1
HISTOGRAM_S_MAX = 5.0
# Bytes of complex images per chunk of the columns that orbit_blocks and sector_matrix apply
# U to. On one BLAS thread, the five N=12 spectral sector blocks took 87-92 ms at 0.5-2 MiB,
# 96 ms at 4 MiB and 110 ms in one chunk, with traced peaks of 12-21, 33 and 97 MiB; VJ's
# N=13 orbit block took 101, 77 and 121 ms at 0.5 MiB, 2 MiB and in one chunk.
CHUNK_BYTES = 2 << 20


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


def _require_uniform(op: FloquetOperator) -> None:
    if not (isinstance(op, FloquetOperator) and is_uniform([op])):
        raise SymmetryViolationError(
            "the operator breaks translation symmetry (site-dependent kicks or bonds, "
            "or a dense VGUE matrix)"
        )


def _chunked_images(op: FloquetOperator, columns, count: int):
    """(cols, U columns(cols)) for consecutive slices cols of range(count), CHUNK_BYTES each."""
    width = max(1, CHUNK_BYTES // (16 * op.dim))
    for start in range(0, count, width):
        cols = slice(start, min(start + width, count))
        yield cols, apply_floquet(op, columns(cols))


def sector_matrix(
    op: FloquetOperator, basis: SectorBasis | Sequence[SectorBasis]
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Block <k,r'|U|k,r> of a translation-invariant U, or a tuple of one per sector given;
    each must come out unitary.

    With T U = U T a block is read off the images U|r> of the orbit representatives:
    <k,r'|U|k,r> = sqrt(p_r' p_r)/N sum_j e^{2pi i k j/N} <T^j r'|U|r>. Each representative
    is applied once, CHUNK_BYTES of images at a time, and every chunk's rows go straight
    into the columns its representatives own in each block; nothing is kept between calls.
    Site-dependent kicks make a block lose column norm. Site-dependent bonds only rephase
    each U|r> (the Ising phases act first), so the block stays unitary and only the guard
    refuses them.
    """
    bases = [basis] if isinstance(basis, SectorBasis) else list(basis)
    if any(b.n_qubits != op.n_qubits for b in bases):
        raise ValueError("operator and sector qubit counts differ")
    _require_uniform(op)
    if max((b.dim for b in bases), default=0) > DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    n = op.n_qubits
    reps = np.array([r for r, _ in _orbits(n)])
    sectors = []
    for b in bases:
        own, periods = np.array(b.orbit_reps, dtype=np.int64).T
        phases = np.exp(2j * np.pi * b.k * np.arange(n) / n)
        # Rows [j, r'] = T^j r', and each column's place among all representatives.
        sectors.append((_translations(n)[own].T, np.searchsorted(reps, own), periods, phases))
    blocks = tuple(np.empty((b.dim, b.dim), dtype=np.complex128) for b in bases)

    def unit(cols: slice) -> np.ndarray:  # the basis states |r> of the chunk's representatives
        return np.where(np.arange(op.dim)[:, np.newaxis] == reps[cols], 1.0 + 0j, 0j)

    for cols, images in _chunked_images(op, unit, len(reps)):
        for (rows, columns, periods, phases), block in zip(sectors, blocks):
            lo, hi = np.searchsorted(columns, (cols.start, cols.stop))
            gathered = images[rows[:, :, np.newaxis], columns[lo:hi] - cols.start]
            weights = np.sqrt(np.outer(periods, periods[lo:hi])) / n
            block[:, lo:hi] = weights * np.tensordot(phases, gathered, axes=1)
    for b, block in zip(bases, blocks):
        _require_no_leak(block, f"sector k={b.k} block")
    return blocks[0] if isinstance(basis, SectorBasis) else blocks


def _require_no_leak(block: np.ndarray, name: str) -> None:
    """A compression of a unitary is unitary iff no column lost norm (``norm_deficit``)."""
    defect = norm_deficit(block)
    if not defect <= SECTOR_UNITARY_TOL:
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


@dataclass(frozen=True, eq=False)
class OrbitBasis:
    """The real orbit basis C: row b holds 1/sqrt(sizes[orbit[b]]) in column orbit[b], else 0.

    Orbits are numbered in the order of their smallest members, ``smallest``.
    """

    orbit: np.ndarray
    smallest: np.ndarray
    sizes: np.ndarray

    @cached_property
    def _by_size(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(the orbits of one size, their members as an (orbits, size) table) per size."""
        members = np.argsort(self.orbit, kind="stable")
        starts = np.cumsum(self.sizes) - self.sizes
        return tuple(
            (which, members[starts[which, np.newaxis] + np.arange(size)])
            for size in sorted(set(self.sizes.tolist()))
            for which in [np.flatnonzero(self.sizes == size)]
        )

    def coords(self, states: np.ndarray) -> np.ndarray:
        """C^T states, for one state (d,) or each column of (d, m).

        Each orbit's rows are summed member by member in ascending order, so a column's
        coordinates do not depend on the other columns.
        """
        sums = np.empty((len(self.sizes),) + states.shape[1:], dtype=states.dtype)
        for which, table in self._by_size:
            total = states[table[:, 0]]
            for member in table[:, 1:].T:
                total += states[member]
            sums[which] = total
        scale = 1.0 / np.sqrt(self.sizes)
        return scale.reshape(scale.shape + (1,) * (states.ndim - 1)) * sums


def orbit_blocks(ops: Sequence[FloquetOperator]) -> tuple[OrbitBasis, tuple[np.ndarray, ...]]:
    """(C, C^T U C for each U in ``ops``), each operator applied once to C's columns.

    C (``OrbitBasis``) has one column per orbit of the site permutations that leave all
    of ``ops`` unchanged (``_site_symmetries``): translations and reflections for a
    uniform chain, the reflection fixing a perturbed site or bond (at N = 2 the identity
    alone, so C is the identity). A column is its orbit's indicator over sqrt(orbit
    size); every product of identical qubit states lies in their span. U is applied to
    CHUNK_BYTES of C's columns at a time, and each chunk's image rows are summed over
    each orbit straight into the block columns it owns. A block must come out unitary.
    More than DENSE_DIM_CAP orbits are refused before any apply. An operator listed
    twice (the one object of an epsilon = 0 pair) gets one block.
    """
    perms = _site_symmetries(ops)
    # No orbit outgrows the group: refuse a dimension that alone implies too many orbits
    # before the (2^N, |G|) table of images.
    if ops[0].dim > len(perms) * DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    least = _permuted_states(ops[0].n_qubits, perms).min(axis=1)  # each state's orbit minimum
    smallest, orbit, sizes = np.unique(least, return_inverse=True, return_counts=True)
    if len(sizes) > DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    basis, scale = OrbitBasis(orbit, smallest, sizes), 1.0 / np.sqrt(sizes)

    def columns(cols: slice) -> np.ndarray:  # C[:, cols]
        return np.where(orbit[:, np.newaxis] == np.arange(cols.start, cols.stop), scale[cols], 0.0)

    def block(op: FloquetOperator) -> np.ndarray:  # C^T U C, chunk by chunk
        out = np.empty((len(sizes), len(sizes)), dtype=np.complex128)
        for cols, images in _chunked_images(op, columns, len(sizes)):
            out[:, cols] = basis.coords(images)
        _require_no_leak(out, "orbit block")
        return out

    # FloquetOperator hashes by identity (eq=False): an operator listed twice gets one block.
    blocks = {op: block(op) for op in dict.fromkeys(ops)}
    return basis, tuple(blocks[op] for op in ops)


def orbit_eig(op: FloquetOperator, basis: OrbitBasis, block: np.ndarray) -> EigenSystem:
    """The eigensystem of U's orbit block B = C^T U C (``block``, overwritten) over ``basis``.

    U's Ising phases I act first, then its kicks K, so U = I^-1/2 S I^1/2 with
    S = I^1/2 K I^1/2. Every kick gate is a symmetric matrix and I is diagonal, so
    S = S^T (Bertini, Kos and Prosen, PRL 121, 264101 (2018)); C is real, so S's block
    is a symmetric unitary, which ``unitary_eig`` solves with real vectors s. I^1/2 is
    one phase h on each orbit, so C^T S C = h B conj(h), and B has the eigenvectors
    conj(h) s with S's residual.
    """
    # I^1/2 at each orbit's smallest member.
    h = np.exp(-0.5j * _ising_angles(op.n_qubits, op.bond_strengths)[basis.smallest])
    # h B conj(h) in B's place; in this operand order it rounds as h[:, None] * B * conj(h).
    np.multiply(np.multiply(h[:, np.newaxis], block, out=block), h.conj(), out=block)
    eig = unitary_eig(block)
    return replace(eig, vectors=h.conj()[:, np.newaxis] * eig.vectors)


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
    if not deficit <= PROJECTION_DEFICIT_TOL:
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
    ``sector_matrix`` insists on), so the two spectra coincide: sectors
    1..(N-1)//2 are diagonalised and their spacings stand in for N - k as well.
    Every block comes from the same pass, one apply of U to each orbit representative.
    """
    _require_uniform(op)
    n_qubits = op.n_qubits
    # No orbit outgrows the N translations: refuse a dimension that alone implies too
    # many orbits before the (2^N, N) table of translations.
    if op.dim > n_qubits * DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    bases = [build_sector(n_qubits, k) for k in range(1, (n_qubits + 1) // 2)]
    by_sector = {
        basis.k: sector_spacings(unitary_phases(block), basis.dim)
        for basis, block in zip(bases, sector_matrix(op, bases))
    }
    used = [k for k in range(1, n_qubits) if 2 * k != n_qubits]
    # At N = 2 no sector is used; brody_fit then refuses the empty sample.
    spacings = np.concatenate([np.empty(0)] + [by_sector[min(k, n_qubits - k)] for k in used])
    q, loglik = brody_fit(spacings)
    # Kolmogorov-Smirnov distances to Poisson (q = 0), Wigner (q = 1) and the fit.
    ks = [ks_statistic(spacings, lambda x, p=p: brody_cdf(x, p)) for p in (0.0, 1.0, q)]
    return SpectralReport(spacings, tuple(used), q, loglik, *ks)


def spacing_histogram(spacings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, density) with density normalized by the full sample count."""
    edges = np.arange(0.0, HISTOGRAM_S_MAX + HISTOGRAM_BIN_WIDTH / 2.0, HISTOGRAM_BIN_WIDTH)
    counts, _ = np.histogram(np.asarray(spacings, dtype=float), bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    density = counts / (len(spacings) * HISTOGRAM_BIN_WIDTH)
    return centers, density
