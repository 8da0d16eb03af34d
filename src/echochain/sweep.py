"""Poincare-sphere sweeps, spectral reports, saturation tables, CSV output."""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .chain import FloquetPair, assemble_dense, build_floquet_pair
from .coherent import CoherentSpec, build_coherent_state, enumerate_grid
from .config import IprBasisChoice, RunConfig
from .dynamics import (
    FidelitySeries,
    asymptotic_fidelity,
    echo_overlaps,
    fidelity_series,
    state_fingerprint,
)
from .linalg import RngStream, unitary_eig
from .measures import compute_report
from .symmetry import (
    BasisKind,
    SpectralReport,
    build_sector,
    ipr,
    sector_basis_matrix,
    sector_matrix,
    spacing_histogram,
    spacing_statistics,
)

FULL_BASIS_QUBIT_CAP = 12
OPS_WARN_THRESHOLD = 1e12
# Memory budget of one batch of grid points; each point holds its f(t) column and
# a few state-sized columns (initial state, both trajectories, step temporaries).
BATCH_BYTES = 64 << 20
PROJECTION_DEFICIT_TOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class _SweepContext:
    config: RunConfig
    pairs: tuple[FloquetPair, ...]
    eigs: tuple
    projector: np.ndarray | None  # k=0 momentum-basis columns, None when unused
    basis_kind: BasisKind
    blocks: tuple | None  # per pair, the k=0 blocks (B+, B-); None on the gate path


def estimated_amplitude_ops(config: RunConfig) -> float:
    """Rough amplitude-operation count of the evolution part of a sweep."""
    points = len(config.grid.thetas) * len(config.grid.phis)
    per_step = 2 * config.n_qubits * (1 << config.n_qubits)
    return float(points) * config.t_cut * per_step * config.gue_samples


def _prepare_context(config: RunConfig) -> _SweepContext:
    params = config.chain_params
    pairs = tuple(
        build_floquet_pair(params, RngStream(config.seed, m)) for m in range(config.gue_samples)
    )
    # Spin-coherent states lie in k=0, so translation-invariant pairs evolve there.
    in_sector = config.coupling.translation_invariant
    sector_ipr = config.resolved_ipr_basis is IprBasisChoice.SECTOR_K0
    projector = blocks = None
    if in_sector or sector_ipr:
        basis = build_sector(config.n_qubits, 0)
        projector = sector_basis_matrix(basis)
        plus_blocks = [sector_matrix(pair.plus, basis) for pair in pairs]
    if in_sector:
        blocks = tuple(zip(plus_blocks, (sector_matrix(pair.minus, basis) for pair in pairs)))
    if sector_ipr:
        eigs = tuple(unitary_eig(block) for block in plus_blocks)
        kind = BasisKind.SECTOR_K0
    else:
        if config.n_qubits > FULL_BASIS_QUBIT_CAP:
            raise ValueError(f"FULL eigenbasis refused above {FULL_BASIS_QUBIT_CAP} qubits")
        eigs = tuple(unitary_eig(assemble_dense(pair.plus)) for pair in pairs)
        kind = BasisKind.FULL
    return _SweepContext(config, pairs, eigs, projector, kind, blocks)


def _rows_for_batch(ctx: _SweepContext, specs: list[CoherentSpec]) -> list[SweepRow]:
    config = ctx.config
    psis = np.stack([build_coherent_state(spec, config.n_qubits) for spec in specs], axis=1)
    k0 = None
    if ctx.projector is not None:
        k0 = ctx.projector.conj().T @ psis
        deficit = float(np.max(np.abs(1.0 - np.sum(np.abs(k0) ** 2, axis=0))))
        if deficit > PROJECTION_DEFICIT_TOL:
            raise ValueError(f"states leak out of the k=0 sector (deficit {deficit:.2e})")
    ipr_states = k0 if ctx.basis_kind is BasisKind.SECTOR_K0 else psis
    per_sample = np.empty((len(ctx.pairs), len(specs), 10))
    for sample, (pair, eig) in enumerate(zip(ctx.pairs, ctx.eigs)):
        blocks = None if ctx.blocks is None else ctx.blocks[sample]
        f_batch = echo_overlaps(pair, psis if blocks is None else k0, config.t_cut, blocks)
        for j, f in enumerate(np.ascontiguousarray(f_batch.T)):
            fingerprint = state_fingerprint(config.chain_params, psis[:, j])
            series = FidelitySeries(f, config.t_cut, fingerprint)
            report = compute_report(series, normalize=config.normalize_by_tcut)
            tail = asymptotic_fidelity(series, config.tail_window_fraction)
            per_sample[sample, j] = (
                ipr(ipr_states[:, j], eig, ctx.basis_kind).value,
                report.blp, report.rhp, report.nd_max, report.nd_avg, report.ng_max, report.ng_avg,
                tail.mean_F2, tail.mean_F, report.clamp_events,
            )
    rows = []
    for spec, means in zip(specs, np.mean(per_sample, axis=0)):
        row = SweepRow(spec.theta, spec.phi, spec.hemisphere, *(float(x) for x in means))
        if not config.normalize_by_tcut and row.rhp != row.ng_max:
            raise RuntimeError("row identity rhp == ng_max violated")
        if row.nd_avg > row.nd_max + 1e-12:
            raise RuntimeError("row invariant nd_avg <= nd_max violated")
        rows.append(row)
    return rows


def run_sweep(config: RunConfig) -> list[SweepRow]:
    """One row per grid point, in grid order.

    The points evolve together as the columns of one array, in batches of at
    most ``BATCH_BYTES``.
    """
    estimate = estimated_amplitude_ops(config)
    if estimate > OPS_WARN_THRESHOLD:
        warnings.warn(
            f"sweep estimated at ~{estimate:.1e} amplitude operations; expect a long run",
            stacklevel=2,
        )
    ctx = _prepare_context(config)
    points = enumerate_grid(config.grid)
    width = max(1, BATCH_BYTES // (16 * (config.t_cut + 1 + 4 * (1 << config.n_qubits))))
    rows: list[SweepRow] = []
    for start in range(0, len(points), width):
        rows.extend(_rows_for_batch(ctx, points[start : start + width]))
    return rows


def _write_lines(lines: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_lines(header: tuple[str, ...], rows: list) -> list[str]:
    cells = ((v if isinstance(v, str) else "%.10g" % v for v in astuple(row)) for row in rows)
    return [",".join(header)] + [",".join(row) for row in cells]


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    """Deterministic CSV: exact field-name header, 10 significant digits, LF."""
    _write_lines(_csv_lines(CSV_FIELDS, rows), path)


def run_spectral(config: RunConfig) -> SpectralReport:
    """Spacing statistics and Brody fit for the U+ propagator."""
    pair = build_floquet_pair(config.chain_params, RngStream(config.seed, 0))
    return spacing_statistics(pair.plus, config.n_qubits)


def write_spacing_histogram(report: SpectralReport, path: str) -> None:
    centers, density = spacing_histogram(report.spacings)
    _write_lines([f"{c:.10g} {d:.10g}" for c, d in zip(centers, density)], path)


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
    if not checkpoints or sorted(checkpoints) != list(checkpoints) or checkpoints[0] < 1:
        raise ValueError("checkpoints must be ascending positive integers")
    pair = build_floquet_pair(config.chain_params, RngStream(config.seed, 0))
    psi = build_coherent_state(spec, config.n_qubits)
    full = fidelity_series(pair, psi, checkpoints[-1])
    rows = []
    for t in checkpoints:
        prefix = FidelitySeries(full.f[: t + 1], t, full.params_fingerprint)
        report = compute_report(prefix)
        rows.append(
            SaturationRow(
                t, report.blp, report.rhp, report.nd_max, report.nd_avg,
                report.ng_max, report.ng_avg, report.blp / t, report.rhp / t,
            )
        )
    return rows


def write_saturation_csv(rows: list[SaturationRow], path: str) -> None:
    _write_lines(_csv_lines(SATURATION_FIELDS, rows), path)
