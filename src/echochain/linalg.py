"""Dense complex linear algebra and seeded randomness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-9
DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class RngStream:
    """Deterministic random source: the same (seed, stream_index) pair always
    yields the same draw sequence, independent of call order elsewhere."""

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(ss)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigendecomposition result; eigenvectors are the columns of ``vectors``.

    ``values`` holds real eigenvalues (Hermitian input) or eigenphases in
    (-pi, pi] (unitary input), ascending. ``degenerate`` is set when any two
    neighboring values sit closer than 1e-10 (circularly, for phases).
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    degenerate: bool

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    m = np.asarray(m)
    return _max_abs(m - m.conj().T)


def unitarity_defect(m: np.ndarray) -> float:
    m = np.asarray(m)
    return _max_abs(m.conj().T @ m - np.eye(m.shape[0]))


def _tie_break_order(keys: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # Secondary key: complex argument of the first non-negligible component,
    # so exactly degenerate values still sort deterministically.
    tie = np.zeros(len(keys))
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            tie[j] = math.atan2(col[nz[0]].imag, col[nz[0]].real)
    order = np.lexsort((tie, keys))
    return order


def _column_residual(m: np.ndarray, vectors: np.ndarray, eigvals: np.ndarray) -> float:
    r = m @ vectors - vectors * eigvals[np.newaxis, :]
    return float(np.max(np.linalg.norm(r, axis=0)))


def hermitian_eig(m: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    m = _require_square(m)
    if hermiticity_defect(m) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh(m)
    order = _tie_break_order(values, vectors)
    values, vectors = values[order], vectors[:, order]
    residual = _column_residual(m, vectors, values.astype(np.complex128))
    degenerate = bool(values.size > 1 and np.min(np.diff(values)) < DEGENERACY_GAP)
    return EigenSystem(values, vectors, residual, degenerate)


def unitary_eig(u: np.ndarray) -> EigenSystem:
    """Eigenphases (in (-pi, pi], ascending) and eigenvectors of a unitary."""
    u = _require_square(u)
    if unitarity_defect(u) > UNITARY_TOL:
        raise ValueError("matrix is not unitary within 1e-9")
    # A unitary is normal, so its complex Schur form is diagonal and the
    # Schur vectors are eigenvectors.
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    phases[phases == -np.pi] = np.pi
    order = _tie_break_order(phases, z)
    phases, vectors = phases[order], z[:, order]
    residual = _column_residual(u, vectors, np.exp(1j * phases))
    degenerate = False
    if phases.size > 1:
        gaps = np.diff(phases)
        wrap = phases[0] + 2.0 * np.pi - phases[-1]
        degenerate = bool(min(np.min(gaps), wrap) < DEGENERACY_GAP)
    return EigenSystem(phases, vectors, residual, degenerate)


def hermitian_expm(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h, via eigendecomposition."""
    eig = hermitian_eig(h)
    phases = np.exp(-1j * scale * eig.values)
    return (eig.vectors * phases[np.newaxis, :]) @ eig.vectors.conj().T


def gue_raw(dim: int, rng: RngStream) -> np.ndarray:
    """Unscaled GUE draw H = (A + A^dag)/2, A standard complex Gaussian."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    g = rng.generator()
    a = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2.0)
    return (a + a.conj().T) / 2.0


def sample_gue(dim: int, rng: RngStream) -> np.ndarray:
    """GUE draw rescaled so its spectral norm equals log2(dim).

    The rescaling makes the perturbation comparable in magnitude to a sum of
    log2(dim) commuting two-body terms of unit strength.
    """
    h = gue_raw(dim, rng)
    target = math.log2(dim)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return h * (target / norm)
