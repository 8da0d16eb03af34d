"""Dense complex linear algebra and seeded randomness, on numpy alone.

``unitary_eig`` (eigenphases and eigenvectors, for the IPR) and
``unitary_phases`` (eigenphases only, for the spacing statistics) share one
Hermitian eigensolve of a Cayley transform; ``hermitian_expm`` and
``sample_gue`` call ``numpy.linalg`` directly. The Cayley transform of a
symmetric unitary is real up to rounding: ``unitary_eig`` then solves the real
part and returns real eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-9
# Largest accepted Frobenius norm of the Cayley transform C, which bounds its
# largest |w|. eigh's pairs are exact for C + E with |E| about c * 1.1e-16 * |C|
# (c near 5 at dimension 1,024), and a pair residual r of C is one of at most
# 2r for U. So |C| <= 1e4 keeps the eigenvector residual of U near 1e-11, a tenth
# of the gap below which eigenphases count as degenerate, and the phase error
# of the eigenvalue-only route near 1e-13. Measured on a V0 chain at N=10: a
# residual of 1.2e-15 * max|w|. The cap is tested as |X|_F <= CAYLEY_NORM_CAP / 2
# on the inverse X = (1 - zU)^-1, before C = i(X - X^dag) is formed; it implies
# |C|_F <= CAYLEY_NORM_CAP. A test of |C| alone passes a shift on an eigenphase of
# a symmetric unitary: there the rounding can make X's blow-up Hermitian, which
# cancels in C and leaves it wrong by O(1).
CAYLEY_NORM_CAP = 1e4
# eigh's relative rounding, c * 1.1e-16 above. The inverse X = (1 - zU)^-1
# behind C is rounded as well: the computed X is the exact inverse for some
# U + dU with |dU| about ROUNDING, so X and C are off by up to about
# ROUNDING * (1 + |C|^2), as |X| = |C + i| / 2. Being a backward error of U, it
# costs U's pairs no more than eigh's own rounding does.
ROUNDING = 5 * 1.1e-16
# Shifts tried in turn: 2.5, then steps of the golden angle, which keeps
# every prefix of the sequence spread evenly around the circle. 2.5 lies at
# least 0.066 from every integer angle mod 2pi up to 24 and every multiple
# of pi/4, where unit-bond Ising chains and symmetric test matrices put
# eigenphases exactly.
CAYLEY_SHIFTS = tuple(2.5 + k * math.pi * (3.0 - math.sqrt(5.0)) for k in range(8))


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
    the largest column norm of ``U V - V e^{i values}``. ``vectors`` is real
    for a symmetric U (``unitary_eig``), and U V is then two real products.
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


def norm_deficit(columns: np.ndarray) -> float:
    """Largest |1 - |column|^2| over the columns of a (d,) or (d, m) array.

    For B = C^dag U C, U unitary and C orthonormal, 1 - B^dag B = G^dag G with
    G = (1 - C C^dag) U C, whose largest entry is diagonal: B's unitarity defect.
    """
    return float(np.max(np.abs(1.0 - np.sum(np.abs(columns) ** 2, axis=0))))


def _require_unitary(u: np.ndarray) -> np.ndarray:
    u = _require_square(u)
    if not unitarity_defect(u) <= UNITARY_TOL:
        raise ValueError("matrix is not unitary within 1e-9")
    return u


def _cayley(u: np.ndarray) -> tuple[float, np.ndarray]:
    """(shift a, C) for the Cayley transform C = i(1 + zU)(1 - zU)^-1, z = e^-ia.

    C is Hermitian for unitary U and shares its eigenvectors; an eigenphase
    phi maps to the eigenvalue w = -cot((phi - a)/2). A phase near the shift
    makes |w|, and with it eigh's rounding error, large: such a shift is
    passed over for the next one in ``CAYLEY_SHIFTS``. The test is made on X:
    the Hermitian part that C keeps can cancel X's blow-up (see CAYLEY_NORM_CAP).
    """
    for shift in CAYLEY_SHIFTS:
        try:
            x = np.linalg.inv(np.eye(len(u)) - np.exp(-1j * shift) * u)
        except np.linalg.LinAlgError:  # a phase exactly on the shift
            continue
        if not np.linalg.norm(x) <= CAYLEY_NORM_CAP / 2:
            continue
        # C = 2iX - i with X = (1 - zU)^-1, so (C + C^dag)/2 = i(X - X^dag).
        c = x - x.conj().T
        c *= 1j
        return shift, c
    raise np.linalg.LinAlgError(
        f"none of the {len(CAYLEY_SHIFTS)} Cayley shifts keeps the transform's norm "
        f"within {CAYLEY_NORM_CAP:.0e}: an eigenphase lies on every shift"
    )


def _half_open(phases: np.ndarray) -> np.ndarray:
    phases[phases == -np.pi] = np.pi
    return phases


def unitary_phases(u: np.ndarray) -> np.ndarray:
    """Eigenphases of a unitary in (-pi, pi], ascending, without eigenvectors."""
    shift, c = _cayley(_require_unitary(u))
    w = np.linalg.eigvalsh(c)
    # Invert w = -cot((phi - a)/2) on (a, a + 2pi), then wrap into (-pi, pi].
    return np.sort(_half_open(np.angle(np.exp(1j * (shift + 2.0 * np.arctan2(1.0, -w))))))


def unitary_eig(u: np.ndarray) -> EigenSystem:
    """Eigenphases (in (-pi, pi], ascending) and eigenvectors of a unitary.

    A symmetric U = Q e^{i phi} Q^T gets the real orthogonal Q.
    """
    u = _require_unitary(u)
    c = _cayley(u)[1]
    # A symmetric U has a symmetric X, so Im C = Re(X - X^T) is then rounding of X
    # alone. Dropping it symmetrises X: to first order the inverse for U plus the
    # symmetric part of dU, a backward error no larger than dU. So the real Re C is
    # solved when |Im C| is within X's rounding. A generic unitary's |Im C| is
    # comparable to |C|, over 1e11 times that bound for every |C| within the cap.
    real = np.linalg.norm(c.imag) <= ROUNDING * (1.0 + np.linalg.norm(c) ** 2)
    _, vectors = np.linalg.eigh(c.real if real else c)
    del c
    if real:
        r = np.empty_like(u)
        r.real, r.imag = u.real @ vectors, u.imag @ vectors
    else:
        r = u @ vectors
    phases = _half_open(np.angle(np.einsum("ij,ij->j", vectors.conj(), r)))
    r -= vectors * np.exp(1j * phases)[np.newaxis, :]
    residual = float(np.max(np.linalg.norm(r, axis=0)))
    order = np.argsort(phases, kind="stable")
    return EigenSystem(phases[order], vectors[:, order], residual)


def hermitian_expm(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h, via eigendecomposition."""
    h = _require_square(h)
    if not hermiticity_defect(h) <= HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh(h)
    if not np.all(np.isfinite(values)):  # an overflow, which exp would turn into NaN
        raise ValueError("Hermitian matrix has non-finite eigenvalues")
    scaled = vectors * np.exp(-1j * values)[np.newaxis, :]
    return scaled @ np.conjugate(vectors, out=vectors).T


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
