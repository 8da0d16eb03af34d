"""Dense complex linear algebra and seeded randomness.

``unitary_eig`` is the one eigensolver behind the IPR and the spacing
statistics; ``hermitian_expm`` and ``sample_gue`` call ``numpy.linalg``
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-9


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
    """Eigendecomposition of a unitary; eigenvectors are the columns of ``vectors``.

    ``values`` holds the eigenphases in (-pi, pi], ascending; ``residual`` is
    the largest column norm of ``U V - V e^{i values}``.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float


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
    order = np.argsort(phases, kind="stable")
    phases, vectors = phases[order], z[:, order]
    r = u @ vectors - vectors * np.exp(1j * phases)[np.newaxis, :]
    return EigenSystem(phases, vectors, float(np.max(np.linalg.norm(r, axis=0))))


def hermitian_expm(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h, via eigendecomposition."""
    h = _require_square(h)
    if hermiticity_defect(h) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * scale * values)[np.newaxis, :]) @ vectors.conj().T


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
