"""Fidelity-amplitude series, the dephasing-channel snapshot, and tail averages."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, FloquetPair, apply_floquet

AMPLITUDE_BOUND_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FidelitySeries:
    """f(t) = <psi| (U-^t)^dag (U+)^t |psi> for integer kick counts t = 0..t_cut."""

    f: np.ndarray
    t_cut: int
    params_fingerprint: str

    def __post_init__(self) -> None:
        if self.t_cut < 1 or self.f.shape != (self.t_cut + 1,):
            raise ValueError("series length must be t_cut + 1 with t_cut >= 1")
        if self.f[0] != 1.0:
            raise ValueError("f(0) must be exactly 1")
        # Written so that NaN fails the bound as well.
        if not np.all(np.abs(self.f) <= 1.0 + AMPLITUDE_BOUND_TOL):
            raise ValueError("|f| exceeded 1 beyond tolerance or is not finite")

    @property
    def amplitude(self) -> np.ndarray:
        """F(t) = |f(t)|."""
        return np.abs(self.f)

    @property
    def fidelity(self) -> np.ndarray:
        """|f(t)|^2."""
        return np.abs(self.f) ** 2


def state_fingerprint(params: ChainParams, psi: np.ndarray) -> str:
    """SHA-1 of the chain parameters and the initial state's amplitudes."""
    h = hashlib.sha1()
    h.update(repr(params).encode())
    h.update(np.ascontiguousarray(psi).tobytes())
    return h.hexdigest()


def fidelity_series(pair: FloquetPair, psi: np.ndarray, t_cut: int) -> FidelitySeries:
    """Advances (U+)^t psi and (U-)^t psi one kick at a time and records overlaps."""
    if t_cut < 1:
        raise ValueError("t_cut must be >= 1")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (pair.plus.dim,):
        raise ValueError("state dimension does not match the propagators")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi must be normalized")
    f = echo_overlaps(pair, psi, t_cut)
    return FidelitySeries(f, t_cut, state_fingerprint(pair.params, psi))


def echo_overlaps(
    pair: FloquetPair, states: np.ndarray, t_cut: int, blocks: tuple | None = None
) -> np.ndarray:
    """f[t] = <(U-)^t psi|(U+)^t psi>, t = 0..t_cut, for one state (dim,) or each column (dim, m).

    ``blocks = (B+, B-)``, the matrices of U+ and U- on an invariant subspace in
    whose coordinates ``states`` is written, replace the gate path by one product
    per period. Identical pair members (epsilon = 0) give f = 1 exactly.
    """
    f = np.ones((t_cut + 1,) + states.shape[1:], dtype=np.complex128)
    if pair.identical:
        return f
    plus, minus = (pair.plus, pair.minus) if blocks is None else blocks
    step = apply_floquet if blocks is None else np.matmul
    a = b = states
    for t in range(1, t_cut + 1):
        a = step(plus, a)
        b = step(minus, b)
        f[t] = np.vecdot(b, a, axis=0)
    return f


@dataclass(frozen=True)
class ChannelSnapshot:
    """Off-diagonal multiplier of the dephasing channel at one time."""

    f_value: complex


def channel_matrix(snapshot: ChannelSnapshot) -> np.ndarray:
    """4x4 channel matrix in the Pauli basis (1, sigma_x, sigma_y, sigma_z).

    Populations pass through; the coherence block rotates and shrinks by f.
    """
    re, im = snapshot.f_value.real, snapshot.f_value.imag
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, re, -im, 0.0],
            [0.0, im, re, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def choi_eigenvalues(multiplier: complex) -> np.ndarray:
    """Nonzero eigenvalues (1 +- |multiplier|)/2 of the normalized Choi matrix."""
    m = abs(multiplier)
    return np.array([(1.0 + m) / 2.0, (1.0 - m) / 2.0])


def choi_trace_norm(multiplier: complex) -> float:
    """Trace norm of the (possibly non-CP) intermediate dephasing map.

    The intermediate map from t to t' multiplies coherences by
    lambda = f(t')/f(t); its normalized Choi eigenvalues are (1 +- |lambda|)/2,
    so the trace norm is max(1, |lambda|) and exceeds 1 exactly when the
    amplitude rose.
    """
    return max(1.0, abs(multiplier))


@dataclass(frozen=True)
class AsymptoticFidelity:
    mean_F: float
    mean_F2: float
    window: tuple[int, int]

    def __post_init__(self) -> None:
        if not -1e-12 <= self.mean_F2 <= self.mean_F + 1e-12:
            raise ValueError("tail averages must satisfy 0 <= mean_F2 <= mean_F")
        if self.mean_F > 1.0 + AMPLITUDE_BOUND_TOL:
            raise ValueError("tail average exceeds 1")


def asymptotic_fidelity(series: FidelitySeries, tail_fraction: float = 0.5) -> AsymptoticFidelity:
    """Averages F and F^2 over the trailing window [ceil(t_cut*(1-frac)), t_cut]."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if series.t_cut < 2:
        raise ValueError("t_cut must be >= 2 for a tail average")
    start = math.ceil(series.t_cut * (1.0 - tail_fraction))
    amp = series.amplitude[start:]
    return AsymptoticFidelity(float(np.mean(amp)), float(np.mean(amp**2)), (start, series.t_cut))


def write_series(series: FidelitySeries, path: str) -> None:
    """One line per kick: `t Re(f) Im(f)` with 12 significant digits."""
    lines = [f"{t} {v.real:.12g} {v.imag:.12g}" for t, v in enumerate(series.f)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
