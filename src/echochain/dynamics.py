"""Fidelity-amplitude series, their tail averages, and the atomic line writer."""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import FloquetOperator, FloquetPair, apply_floquet

AMPLITUDE_BOUND_TOL = 1e-10
# Periods per time block of the matrix path, a power of two reached by doubling.
# Measured on one BLAS thread: a VGUE N=9 series over 6,000 periods (whole command)
# took 3.3-3.6 s at 1 period per block, 1.9-2.0 s at 8, 1.7 s at 16 and 1.6 s at 32;
# the peak RSS of a VJ N=10 sweep (30 points, 1,200 periods) rose by 0-1% at 8,
# by 4% at 16 and by 10% at 32.
PERIODS_PER_BLOCK = 8


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
        if not np.all(self.amplitude <= 1.0 + AMPLITUDE_BOUND_TOL):
            raise ValueError("|f| exceeded 1 beyond tolerance or is not finite")

    @property
    def t_cut(self) -> int:
        return len(self.f) - 1

    @cached_property
    def amplitude(self) -> np.ndarray:
        """F(t) = |f(t)|, computed once and read-only."""
        amp = np.abs(self.f)
        amp.setflags(write=False)
        return amp


def fidelity_series(pair: FloquetPair, psi: np.ndarray, t_cut: int) -> FidelitySeries:
    """f[t] = <(U-)^t psi|(U+)^t psi>, t = 0..t_cut, for one state (d,) or each column of (d, m).

    Members that are matrices, U+ and U- on an invariant subspace in whose coordinates
    ``psi`` is written, move each trajectory PERIODS_PER_BLOCK periods (columns U^j psi)
    at a time, by one product with the matrix's power (``_time_block``). FloquetOperator
    members step on the gates, in the same loop with one period per block. Identical
    pair members (epsilon = 0) give f = 1 exactly.
    """
    if t_cut < 1:
        raise ValueError("t_cut must be >= 1")
    psi = np.asarray(psi, dtype=np.complex128)
    on_gates = isinstance(pair.plus, FloquetOperator)
    if psi.ndim not in (1, 2) or len(psi) != (pair.plus.dim if on_gates else len(pair.plus)):
        raise ValueError("state dimension does not match the propagators")
    # Written so that a NaN norm fails as well.
    if not np.all(np.abs(np.linalg.norm(psi, axis=0) - 1.0) <= 1e-10):
        raise ValueError("psi must be normalized")
    # Column j * m + i of a trajectory block holds state i after j periods of the block.
    d, m = len(psi), psi.size // len(psi)
    f = np.ones((t_cut + 1, m), dtype=np.complex128)
    if not pair.identical:
        v = psi.reshape(d, m)
        step = apply_floquet if on_gates else np.matmul
        s = 1 if on_gates else min(PERIODS_PER_BLOCK, 1 << t_cut.bit_length())
        a, plus = _time_block(pair.plus, v, s, t_cut + 1)
        b, minus = _time_block(pair.minus, v, s, t_cut + 1)
        # f(0) stays exactly 1.
        f[1:s] = np.vecdot(b[:, m:], a[:, m:], axis=0).reshape(-1, m)
        for t in range(s, t_cut + 1, s):
            n = min(s, t_cut + 1 - t) * m
            a = step(plus, a[:, :n])
            b = step(minus, b[:, :n])
            f[t : t + s] = np.vecdot(b, a, axis=0).reshape(-1, m)
    return FidelitySeries(f.reshape((t_cut + 1,) + psi.shape[1:]))


def _time_block(u: np.ndarray | FloquetOperator, v: np.ndarray, s: int, periods: int) -> tuple:
    """(columns U^j v for j < min(s, periods), U^s), by doubling.

    [v] becomes [v, U v], then with U^2 [v .. U^3 v], and so on; a power is
    squared only while a later period uses the square, so with ``periods <= s``
    the returned power is a smaller one that the caller never applies.
    """
    block, power, w = v, u, 1
    while w < min(s, periods):
        block = np.concatenate((block, power @ block[:, : (periods - w) * v.shape[1]]), axis=1)
        w *= 2
        if periods > w:
            power = power @ power
    return block, power


@dataclass(frozen=True, eq=False)
class AsymptoticFidelity:
    """Tail averages of F and F^2: floats for one series, (m,) arrays for a batch."""

    mean_F: float | np.ndarray
    mean_F2: float | np.ndarray

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
    return AsymptoticFidelity(mean_f, mean_f2)


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
