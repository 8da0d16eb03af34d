"""Non-Markovianity measures computed from fidelity-amplitude series.

All four families reduce to positive-increment scans of the discrete series
F(t) = |f(t)|: blp sums rises of F, rhp sums rises of log F, and the
max/average schemes compare an indicator K (distinguishability D = F, or the
accumulated divisibility violation G, whose value at t is rhp of the prefix
up to t) against its running minimum or running mean. Each scan is a running
sum or running extremum along the time axis, so one pass yields every measure
on every prefix of every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FidelitySeries

F_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class NmReport:
    """Six measures and the clamp count: a number for one series and cutoff, else an
    array with a checkpoint axis (when given) followed by the batch's column axis."""

    blp: float | np.ndarray
    rhp: float | np.ndarray
    nd_max: float | np.ndarray
    nd_avg: float | np.ndarray
    ng_max: float | np.ndarray
    ng_avg: float | np.ndarray
    t_cut: int | np.ndarray
    clamp_events: int | np.ndarray


def _rise_sum(k: np.ndarray) -> np.ndarray:
    # Running sum of positive increments, 0 at t = 0.
    out = np.zeros_like(k)
    rises = k[1:] - k[:-1]
    np.maximum(rises, 0.0, out=rises)
    np.add.accumulate(rises, axis=0, out=out[1:])
    return out


def _rise_above_mean(k: np.ndarray) -> np.ndarray:
    # Running max over end times of K(t_f) minus the mean of K over earlier
    # times, floored at zero by the zero in row 0.
    out = np.zeros_like(k)
    mean = out[1:]
    np.add.accumulate(k[:-1], axis=0, out=mean)
    mean /= np.arange(1, len(k))[:, np.newaxis]
    np.subtract(k[1:], mean, out=mean)
    return np.maximum.accumulate(out, axis=0, out=out)


def compute_report(series: FidelitySeries, checkpoints=None) -> NmReport:
    """All six measures of every column, on the prefixes ending at ``checkpoints``.

    ``checkpoints`` (default: the full length t_cut) are cutoff times in
    [1, t_cut]; with them every field gains a leading checkpoint axis. F is
    floored at F_FLOOR inside the logarithm (deep dips would otherwise produce
    arbitrarily large divisibility spikes); floored samples are counted in
    ``clamp_events``.
    """
    rows = np.array([series.t_cut] if checkpoints is None else checkpoints, dtype=np.int64)
    if rows.ndim != 1 or rows.size == 0 or rows.min() < 1 or rows.max() > series.t_cut:
        raise ValueError("checkpoints must lie in [1, t_cut]")
    amp = series.amplitude.reshape(len(series.f), -1)
    clamps = np.add.accumulate(amp < F_FLOOR, axis=0, dtype=np.int64)[rows]
    blp = _rise_sum(amp)[rows]
    # F(t_f) minus its minimum up to t_f, maximised over end times; no temporary outlives it.
    nd_max = np.maximum.accumulate(amp - np.minimum.accumulate(amp, axis=0), axis=0)[rows]
    nd_avg = _rise_above_mean(amp)[rows]
    g = _rise_sum(np.log(np.maximum(amp, F_FLOOR)))
    # G never falls from G(0) = 0, so it is its own rise above its running minimum.
    rhp = ng_max = g[rows]
    ng_avg = _rise_above_mean(g)[rows]

    def shaped(values: np.ndarray):
        values = values.reshape(rows.shape + series.f.shape[1:])
        if checkpoints is None:
            values = values[0]
        return values if values.ndim else values.item()

    measures = (shaped(m) for m in (blp, rhp, nd_max, nd_avg, ng_max, ng_avg))
    t_cut = series.t_cut if checkpoints is None else rows
    return NmReport(*measures, t_cut, shaped(clamps))
