"""Poincare-sphere sweeps, single series, spectral reports, saturation tables, CSV output."""

from __future__ import annotations

import sys
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .chain import Coupling, FloquetOperator, FloquetPair, build_floquet_pair
from .coherent import CoherentSpec, build_coherent_state, enumerate_grid
from .config import RunConfig
from .dynamics import (
    PERIODS_PER_BLOCK, FidelitySeries, asymptotic_fidelity, fidelity_series, write_lines,
)
from .linalg import RngStream, unitary_eig
from .measures import compute_report
from .symmetry import (
    SpectralReport,
    SymmetryViolationError,
    ipr,
    is_uniform,
    orbit_blocks,
    orbit_eig,
    spacing_histogram,
    spacing_statistics,
)

# Memory budget of one batch of grid points. Per period, each point holds 16 B of
# f(t) and 32 B of the measures pass's four float temporaries; per amplitude, a few
# state-sized columns (initial state, both trajectories, step temporaries); in
# blocks, both trajectories' PERIODS_PER_BLOCK columns of the block dimension.
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


def _propagators(config: RunConfig, sample: int) -> tuple:
    """(orbit basis or None, U+ as built, the sample's FloquetPair in the form it steps in).

    Uniform operators step in orbit blocks and are dropped; VGUE's matrices step as built
    (no basis), and the other operators keep the gates, cheaper than reflection-even blocks.
    """
    pair = build_floquet_pair(config.chain_params, RngStream(config.seed, sample))
    if not (isinstance(pair.plus, FloquetOperator) and is_uniform([pair.plus, pair.minus])):
        return None, pair.plus, pair
    basis, blocks = orbit_blocks([pair.plus, pair.minus])
    return basis, pair.plus, FloquetPair(*blocks)


def _prepare_context(config: RunConfig, sample: int) -> tuple:
    """(the sample's pair as it steps, the IPR eigensystem of its U+, orbit basis or None).

    The IPR amplitudes are <u_n|psi> over the eigenvectors u_n of U+. An operator U+
    gives them in the coordinates C^T psi over the eigenvectors of its own orbit block
    (``orbit_eig``), over the one basis the block route steps in and the gate route builds.
    VGUE's dense U+ has no orbit basis: its own eigensystem, on the full state.
    """
    basis, plus, pair = _propagators(config, sample)
    if not isinstance(plus, FloquetOperator):
        return pair, unitary_eig(pair.plus), None
    # The gate route builds U+'s block alone; the block route copies the one U+ steps in.
    basis, (block,) = orbit_blocks([plus]) if basis is None else (basis, (pair.plus.copy(),))
    return pair, orbit_eig(plus, basis, block), basis


def _measures_for_batch(config: RunConfig, context: tuple, specs: list[CoherentSpec]) -> np.ndarray:
    """One row per SweepRow measure field, one column per grid point, of one context."""
    pair, eig, basis = context
    psis = np.stack([build_coherent_state(spec, config.n_qubits) for spec in specs], axis=1)
    coords = psis if basis is None else basis.coords(psis)
    # ipr() refuses coordinates that lost norm: a leaking state fails before any period.
    state_ipr = ipr(coords, eig)
    states = psis if isinstance(pair.plus, FloquetOperator) else coords
    series = fidelity_series(pair, states, config.t_cut)
    report = compute_report(series)
    tail = asymptotic_fidelity(series, config.tail_window_fraction)
    return np.array([
        state_ipr,
        report.blp, report.rhp, report.nd_max, report.nd_avg, report.ng_max, report.ng_avg,
        tail.mean_F2, tail.mean_F, report.clamp_events,
    ], dtype=float)


def run_sweep(config: RunConfig) -> list[SweepRow]:
    """One row per grid point, in grid order, the mean over ``gue_samples`` samples.

    Each sample's context is built, run and freed before the next one's. Its points
    evolve together as the columns of one array, in batches of at most ``BATCH_BYTES``.
    After every batch but the last, a progress line on stderr gives the time left.
    """
    if config.t_cut < 2:
        raise ValueError("t_cut must be >= 2 for a tail average")
    points = enumerate_grid(config.grid)
    total, done = config.gue_samples * len(points), 0
    # -0.0 + x is x bit for bit: the sum starts from sample 0's values, as np.mean does.
    sums = np.full((len(CSV_FIELDS) - 3, len(points)), -0.0)
    began = None
    for sample in range(config.gue_samples):
        context = _prepare_context(config, sample)
        began = began or time.perf_counter()  # the time left counts later samples' set-up
        plus = context[0].plus
        time_blocks = 0 if isinstance(plus, FloquetOperator) else 2 * PERIODS_PER_BLOCK * len(plus)
        per_point = 3 * (config.t_cut + 1) + 4 * (1 << config.n_qubits) + time_blocks
        width = max(1, BATCH_BYTES // (16 * per_point))
        for start in range(0, len(points), width):
            batch = points[start : start + width]
            sums[:, start : start + len(batch)] += _measures_for_batch(config, context, batch)
            done += len(batch)
            if done < total:
                left = (time.perf_counter() - began) * (total / done - 1)
                print(f"{done}/{total} points, about {left:.1f} s left", file=sys.stderr)
        del context, plus  # one sample's U+- and eigensystem at a time
    means = sums / config.gue_samples
    nd_max, nd_avg = means[3:5]
    if np.any(nd_avg > nd_max + 1e-12):
        raise RuntimeError("row invariant nd_avg <= nd_max violated")
    if config.normalize_by_tcut:  # blp and rhp, the two measures unbounded in t_cut
        means[1:3] /= config.t_cut
    rows = zip(points, means.T.tolist())
    return [SweepRow(spec.theta, spec.phi, spec.hemisphere, *values) for spec, values in rows]


def _csv_lines(header: tuple[str, ...], rows: list) -> list[str]:
    cells = ((v if isinstance(v, str) else "%.10g" % v for v in astuple(row)) for row in rows)
    return [",".join(header)] + [",".join(row) for row in cells]


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    """Deterministic CSV: exact field-name header, 10 significant digits, LF."""
    write_lines(_csv_lines(CSV_FIELDS, rows), path)


def run_spectral(config: RunConfig) -> SpectralReport:
    """Spacing statistics and Brody fit for the U+ propagator."""
    if config.coupling is Coupling.VGUE and config.epsilon > 0.0:  # refused before the draw
        raise SymmetryViolationError("the operator breaks translation symmetry (dense VGUE U+)")
    pair = build_floquet_pair(config.chain_params, RngStream(config.seed, 0))
    return spacing_statistics(pair.plus)


def write_spacing_histogram(report: SpectralReport, path: str) -> None:
    centers, density = spacing_histogram(report.spacings)
    write_lines([f"{c:.10g} {d:.10g}" for c, d in zip(centers, density)], path)


def run_series(config: RunConfig, spec: CoherentSpec) -> FidelitySeries:
    """f(t), t = 0..t_cut, of one coherent state, evolved as in a sweep."""
    basis, _, pair = _propagators(config, 0)
    psi = build_coherent_state(spec, config.n_qubits)
    # fidelity_series refuses coordinates that lost norm: a state leaking out of the basis.
    return fidelity_series(pair, psi if basis is None else basis.coords(psi), config.t_cut)


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
