"""Fidelity-amplitude series, their tail averages, and the atomic line writer."""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .chain import FloquetPair, apply_floquet

AMPLITUDE_BOUND_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FidelitySeries:
    """f(t) = <psi| (U-^t)^dag (U+)^t |psi> for kick counts t = 0..t_cut.

    ``f`` has shape (t_cut + 1,) for one state, or (t_cut + 1, m) with one
    column per state; every check below holds for each column.
    """

    f: np.ndarray

    def __post_init__(self) -> None:
        if self.f.ndim not in (1, 2) or len(self.f) < 2:
            raise ValueError("series must hold t_cut + 1 samples with t_cut >= 1")
        if not np.all(self.f[0] == 1.0):
            raise ValueError("f(0) must be exactly 1")
        # Written so that NaN fails the bound as well.
        if not np.all(np.abs(self.f) <= 1.0 + AMPLITUDE_BOUND_TOL):
            raise ValueError("|f| exceeded 1 beyond tolerance or is not finite")

    @property
    def t_cut(self) -> int:
        return len(self.f) - 1

    @property
    def amplitude(self) -> np.ndarray:
        """F(t) = |f(t)|."""
        return np.abs(self.f)


def fidelity_series(
    pair: FloquetPair, psi: np.ndarray, t_cut: int, blocks: tuple | None = None
) -> FidelitySeries:
    """f[t] = <(U-)^t psi|(U+)^t psi>, t = 0..t_cut, for one state (d,) or each column of (d, m).

    ``blocks = (B+, B-)``, the matrices of U+ and U- on an invariant subspace in
    whose coordinates ``psi`` is written, replace the gate path by one product
    per period. Identical pair members (epsilon = 0) give f = 1 exactly.
    """
    if t_cut < 1:
        raise ValueError("t_cut must be >= 1")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim not in (1, 2) or len(psi) != (pair.plus.dim if blocks is None else len(blocks[0])):
        raise ValueError("state dimension does not match the propagators")
    # Written so that a NaN norm fails as well.
    if not np.all(np.abs(np.linalg.norm(psi, axis=0) - 1.0) <= 1e-10):
        raise ValueError("psi must be normalized")
    f = np.ones((t_cut + 1,) + psi.shape[1:], dtype=np.complex128)
    if pair.identical:
        return FidelitySeries(f)
    plus, minus = (pair.plus, pair.minus) if blocks is None else blocks
    step = apply_floquet if blocks is None else np.matmul
    a = b = psi
    for t in range(1, t_cut + 1):
        a = step(plus, a)
        b = step(minus, b)
        f[t] = np.vecdot(b, a, axis=0)
    return FidelitySeries(f)


@dataclass(frozen=True, eq=False)
class AsymptoticFidelity:
    """Tail averages of F and F^2: floats for one series, (m,) arrays for a batch."""

    mean_F: float | np.ndarray
    mean_F2: float | np.ndarray
    window: tuple[int, int]

    def __post_init__(self) -> None:
        if not np.all((-1e-12 <= self.mean_F2) & (self.mean_F2 <= self.mean_F + 1e-12)):
            raise ValueError("tail averages must satisfy 0 <= mean_F2 <= mean_F")
        if np.any(self.mean_F > 1.0 + AMPLITUDE_BOUND_TOL):
            raise ValueError("tail average exceeds 1")


def asymptotic_fidelity(series: FidelitySeries, tail_fraction: float = 0.5) -> AsymptoticFidelity:
    """Averages F and F^2 of each column over the trailing window [ceil(t_cut*(1-frac)), t_cut]."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if series.t_cut < 2:
        raise ValueError("t_cut must be >= 2 for a tail average")
    start = math.ceil(series.t_cut * (1.0 - tail_fraction))
    # Time runs along the contiguous last axis, so each column is summed as a 1-D series would be.
    amp = np.ascontiguousarray(series.amplitude[start:].T)
    mean_f, mean_f2 = np.mean(amp, axis=-1), np.mean(amp**2, axis=-1)
    if series.f.ndim == 1:
        mean_f, mean_f2 = float(mean_f), float(mean_f2)
    return AsymptoticFidelity(mean_f, mean_f2, (start, series.t_cut))


def write_lines(lines: Iterable[str], path: str) -> None:
    """Writes newline-terminated UTF-8 lines to ``path`` atomically.

    The text goes to a temporary file beside ``path`` that then replaces it, so
    a failure leaves an existing ``path`` untouched and no temporary file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_series(series: FidelitySeries, path: str) -> None:
    """One line per kick: `t Re(f) Im(f)` with 12 significant digits."""
    write_lines((f"{t} {v.real:.12g} {v.imag:.12g}" for t, v in enumerate(series.f)), path)
