"""Poincare-sphere sweeps, single series, spectral reports, saturation tables, CSV output."""

from __future__ import annotations

import sys
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .chain import build_floquet_pair
from .coherent import CoherentSpec, build_coherent_state, enumerate_grid
from .config import RunConfig
from .dynamics import FidelitySeries, asymptotic_fidelity, fidelity_series, write_lines
from .linalg import RngStream, unitary_eig
from .measures import compute_report
from .symmetry import (
    SpectralReport,
    ipr,
    is_uniform,
    orbit_blocks,
    spacing_histogram,
    spacing_statistics,
)

# Memory budget of one batch of grid points. Per period, each point holds 16 B of
# f(t) and 32 B of the measures pass's four float temporaries; per amplitude, a few
# state-sized columns (initial state, both trajectories, step temporaries).
BATCH_BYTES = 64 << 20


@dataclass(frozen=True)
class SweepRow:
    theta: float
    phi: float
    hemisphere: str
    ipr: float
    blp: float
    rhp: float
    nd_max: float
    nd_avg: float
    ng_max: float
    ng_avg: float
    f_asym: float
    f_amp_asym: float
    clamp_events: float


CSV_FIELDS = tuple(f.name for f in fields(SweepRow))


def _prepare_context(config: RunConfig) -> tuple:
    """(pairs, per pair the IPR eigensystem, orbit basis or None, per pair (B+, B-) or None).

    Grid points lie in the span of the orbit basis (``orbit_blocks``), so the
    IPR is taken in the U+ block, whatever ``ipr_basis`` says. Operators that
    every translation and reflection keeps (``is_uniform``) also evolve there;
    the others keep the gate path, cheaper than their reflection-even blocks.
    """
    params = config.chain_params
    pairs = tuple(
        build_floquet_pair(params, RngStream(config.seed, m)) for m in range(config.gue_samples)
    )
    ops = [op for pair in pairs for op in (pair.plus, pair.minus)]
    if is_uniform(ops):
        basis, blocks = orbit_blocks(ops)
        steps = tuple(zip(blocks[::2], blocks[1::2]))
        plus_blocks = blocks[::2]
    else:
        basis, plus_blocks = orbit_blocks([pair.plus for pair in pairs])
        steps = (None,) * len(pairs)
    return pairs, tuple(unitary_eig(block) for block in plus_blocks), basis, steps


def _rows_for_batch(config: RunConfig, context: tuple, specs: list[CoherentSpec]) -> list[SweepRow]:
    pairs, eigs, basis, steps = context
    psis = np.stack([build_coherent_state(spec, config.n_qubits) for spec in specs], axis=1)
    coords = psis if basis is None else basis.T @ psis
    per_sample = []
    for pair, eig, blocks in zip(pairs, eigs, steps):
        # ipr() refuses coordinates that lost norm: a leaking state fails before any period.
        state_ipr = ipr(coords, eig)
        series = fidelity_series(pair, psis if blocks is None else coords, config.t_cut, blocks)
        report = compute_report(series, normalize=config.normalize_by_tcut)
        tail = asymptotic_fidelity(series, config.tail_window_fraction)
        per_sample.append((
            state_ipr,
            report.blp, report.rhp, report.nd_max, report.nd_avg, report.ng_max, report.ng_avg,
            tail.mean_F2, tail.mean_F, report.clamp_events,
        ))
    # One row of means per SweepRow measure field, one column per grid point.
    means = np.mean(np.array(per_sample, dtype=float), axis=0)
    _, _, rhp, nd_max, nd_avg, ng_max, *_ = means
    if not config.normalize_by_tcut and not np.array_equal(rhp, ng_max):
        raise RuntimeError("row identity rhp == ng_max violated")
    if np.any(nd_avg > nd_max + 1e-12):
        raise RuntimeError("row invariant nd_avg <= nd_max violated")
    return [
        SweepRow(spec.theta, spec.phi, spec.hemisphere, *values)
        for spec, values in zip(specs, means.T.tolist())
    ]


def run_sweep(config: RunConfig) -> list[SweepRow]:
    """One row per grid point, in grid order.

    The points evolve together as the columns of one array, in batches of at
    most ``BATCH_BYTES``. After every batch but the last, a progress line on
    stderr gives the time left, extrapolated from the batches so far.
    """
    if config.t_cut < 2:
        raise ValueError("t_cut must be >= 2 for a tail average")
    context = _prepare_context(config)
    points = enumerate_grid(config.grid)
    width = max(1, BATCH_BYTES // (16 * (3 * (config.t_cut + 1) + 4 * (1 << config.n_qubits))))
    rows: list[SweepRow] = []
    began = time.perf_counter()
    for start in range(0, len(points), width):
        rows.extend(_rows_for_batch(config, context, points[start : start + width]))
        if len(rows) < len(points):
            left = (time.perf_counter() - began) * (len(points) / len(rows) - 1)
            print(f"{len(rows)}/{len(points)} points, about {left:.1f} s left", file=sys.stderr)
    return rows


def _csv_lines(header: tuple[str, ...], rows: list) -> list[str]:
    cells = ((v if isinstance(v, str) else "%.10g" % v for v in astuple(row)) for row in rows)
    return [",".join(header)] + [",".join(row) for row in cells]


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    """Deterministic CSV: exact field-name header, 10 significant digits, LF."""
    write_lines(_csv_lines(CSV_FIELDS, rows), path)


def run_spectral(config: RunConfig) -> SpectralReport:
    """Spacing statistics and Brody fit for the U+ propagator."""
    pair = build_floquet_pair(config.chain_params, RngStream(config.seed, 0))
    return spacing_statistics(pair.plus)


def write_spacing_histogram(report: SpectralReport, path: str) -> None:
    centers, density = spacing_histogram(report.spacings)
    write_lines([f"{c:.10g} {d:.10g}" for c, d in zip(centers, density)], path)


def run_series(config: RunConfig, spec: CoherentSpec) -> FidelitySeries:
    """f(t), t = 0..t_cut, of one coherent state, evolved as in a sweep."""
    pair = build_floquet_pair(config.chain_params, RngStream(config.seed, 0))
    psi = build_coherent_state(spec, config.n_qubits)
    if not is_uniform((pair.plus, pair.minus)):
        return fidelity_series(pair, psi, config.t_cut)
    # fidelity_series refuses coordinates that lost norm: a state leaking out of the basis.
    basis, blocks = orbit_blocks((pair.plus, pair.minus))
    return fidelity_series(pair, basis.T @ psi, config.t_cut, blocks)


@dataclass(frozen=True)
class SaturationRow:
    t_cut: int
    blp: float
    rhp: float
    nd_max: float
    nd_avg: float
    ng_max: float
    ng_avg: float
    blp_per_step: float
    rhp_per_step: float


SATURATION_FIELDS = tuple(f.name for f in fields(SaturationRow))


def run_saturation(
    config: RunConfig, spec: CoherentSpec, checkpoints: list[int]
) -> list[SaturationRow]:
    """Measures on prefixes of a single evolution, one row per cutoff time."""
    if not checkpoints or sorted(set(checkpoints)) != list(checkpoints) or checkpoints[0] < 1:
        raise ValueError("checkpoints must be ascending positive integers")
    series = run_series(replace(config, t_cut=checkpoints[-1]), spec)
    r = compute_report(series, checkpoints=checkpoints)
    columns = (
        r.t_cut, r.blp, r.rhp, r.nd_max, r.nd_avg, r.ng_max, r.ng_avg,
        r.blp / r.t_cut, r.rhp / r.t_cut,
    )
    return [SaturationRow(*cells) for cells in zip(*(c.tolist() for c in columns))]


def write_saturation_csv(rows: list[SaturationRow], path: str) -> None:
    write_lines(_csv_lines(SATURATION_FIELDS, rows), path)
