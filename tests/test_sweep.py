import os
import re
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

import echochain.dynamics as dynamics_module
import echochain.sweep as sweep_module
import echochain.symmetry as symmetry_module
from echochain.chain import (
    ChainParams, Coupling, FloquetPair, apply_floquet, assemble_dense, build_floquet_pair,
)
from echochain.coherent import CoherentSpec, build_coherent_state, enumerate_grid
from echochain.config import IprBasisChoice, RunConfig
from echochain.dynamics import FidelitySeries, asymptotic_fidelity, fidelity_series, write_series
from echochain.linalg import RngStream, unitary_eig
from echochain.measures import compute_report
from echochain.symmetry import (
    DEGENERACY_GAP,
    SpectralReport,
    circular_gaps,
    ipr,
    is_uniform,
    orbit_blocks,
)
from echochain.sweep import (
    CSV_FIELDS,
    SaturationRow,
    SATURATION_FIELDS,
    run_saturation,
    run_series,
    run_spectral,
    run_sweep,
    write_saturation_csv,
    write_spacing_histogram,
    write_sweep_csv,
)

from _oracles import (
    dense_floquet,
    orbit_matrix,
    pairwise_rise_max,
    rise_above_mean_max,
    run_based_blp,
    run_based_rhp,
    schur_eig_ref,
    vgue_pair,
)


def _assert_measures_match_oracles(row, amplitude):
    """The row's measures against the independent run-based and pairwise formulations."""
    assert row.blp == pytest.approx(run_based_blp(amplitude), rel=1e-12)
    assert row.rhp == pytest.approx(run_based_rhp(amplitude), rel=1e-12)
    assert row.nd_max == pytest.approx(pairwise_rise_max(amplitude), rel=1e-12)
    assert row.nd_avg == pytest.approx(rise_above_mean_max(amplitude), rel=1e-12)


def _config(**overrides):
    base = dict(
        n_qubits=4,
        b_perp=0.3,
        b_par=1.4,
        epsilon=0.1,
        coupling=Coupling.VJ,
        t_cut=120,
        theta_min=0.5,
        theta_max=2.5,
        theta_step=1.0,
        phi_min=0.5,
        phi_max=2.5,
        phi_step=1.0,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_csv_field_layout():
    assert CSV_FIELDS == (
        "theta", "phi", "hemisphere", "ipr", "blp", "rhp", "nd_max", "nd_avg",
        "ng_max", "ng_avg", "f_asym", "f_amp_asym", "clamp_events",
    )


def test_rows_follow_grid_enumeration_order():
    rows = run_sweep(_config())
    assert [(r.theta, r.phi) for r in rows] == [
        (0.5, 0.5), (0.5, 1.5), (0.5, 2.5),
        (1.5, 0.5), (1.5, 1.5), (1.5, 2.5),
        (2.5, 0.5), (2.5, 1.5), (2.5, 2.5),
    ]
    for row in rows:
        assert row.hemisphere == ("N" if row.theta <= np.pi / 2.0 else "S")


def test_zero_epsilon_sweep_rows():
    rows = run_sweep(_config(epsilon=0.0))
    for row in rows:
        assert row.blp == row.rhp == row.nd_max == row.nd_avg == 0.0
        assert row.ng_max == row.ng_avg == 0.0
        assert row.f_asym == 1.0
        assert row.f_amp_asym == 1.0
        assert row.clamp_events == 0


def test_row_values_match_direct_pipeline():
    config = _config()
    row = run_sweep(config)[4]
    pair = build_floquet_pair(config.chain_params)
    psi = build_coherent_state(CoherentSpec(1.5, 1.5), 4)
    series = fidelity_series(pair, psi, config.t_cut)
    report = compute_report(series)
    tail = asymptotic_fidelity(series)
    assert row.blp == pytest.approx(report.blp, rel=1e-12)
    assert row.rhp == pytest.approx(report.rhp, rel=1e-12)
    assert row.nd_max == pytest.approx(report.nd_max, rel=1e-12)
    assert row.f_asym == pytest.approx(tail.mean_F2, rel=1e-12)
    assert row.f_amp_asym == pytest.approx(tail.mean_F, rel=1e-12)
    _assert_measures_match_oracles(row, series.amplitude)


def test_sweep_csv_deterministic(tmp_path):
    config = _config()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(run_sweep(config), str(a))
    write_sweep_csv(run_sweep(config), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    write_sweep_csv(run_sweep(_config()), str(out))
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[0] == "0.5"
    assert first[2] == "N"
    assert len(first) == len(CSV_FIELDS)


MEASURE_FIELDS = ("ipr",) + CSV_FIELDS[4:]


def _assert_rows_close(a, b):
    assert (a.theta, a.phi, a.hemisphere) == (b.theta, b.phi, b.hemisphere)
    for name in MEASURE_FIELDS:
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("coupling", list(Coupling))
def test_every_coupling_matches_direct_pipeline(coupling):
    config = _config(n_qubits=6, coupling=coupling, b_perp=0.9, seed=4, t_cut=150)
    rows = run_sweep(config)
    pair = build_floquet_pair(config.chain_params, RngStream(4, 0))
    for row in (rows[0], rows[4], rows[8]):
        psi = build_coherent_state(CoherentSpec(row.theta, row.phi), 6)
        series = fidelity_series(pair, psi, config.t_cut)
        report = compute_report(series)
        tail = asymptotic_fidelity(series)
        for name in ("blp", "rhp", "nd_max", "nd_avg", "ng_max", "ng_avg"):
            assert getattr(row, name) == pytest.approx(getattr(report, name), rel=1e-12), name
        assert row.f_asym == pytest.approx(tail.mean_F2, rel=1e-12)
        assert row.f_amp_asym == pytest.approx(tail.mean_F, rel=1e-12)
        assert row.clamp_events == report.clamp_events
        _assert_measures_match_oracles(row, series.amplitude)


@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.V0])
def test_rows_do_not_depend_on_batching(coupling, monkeypatch, capsys):
    config = _config(coupling=coupling, t_cut=90)
    together = run_sweep(config)
    assert capsys.readouterr().err == ""  # one batch, no progress line
    # A budget below one column's bytes forces one grid point per batch.
    monkeypatch.setattr(sweep_module, "BATCH_BYTES", 1)
    one_by_one = run_sweep(config)
    progress = capsys.readouterr().err.splitlines()
    assert len(progress) == 8  # after every batch but the last
    for done, line in enumerate(progress, start=1):
        assert re.fullmatch(rf"{done}/9 points, about \d+\.\d s left", line), line
    assert len(together) == len(one_by_one) == 9
    for a, b in zip(together, one_by_one):
        _assert_rows_close(a, b)
    for row in together:
        single = _config(
            coupling=coupling, t_cut=90, theta_min=row.theta, theta_max=row.theta,
            phi_min=row.phi, phi_max=row.phi,
        )
        _assert_rows_close(row, run_sweep(single)[0])
    assert capsys.readouterr().err == ""


def test_vgue_rows_average_over_samples():
    config = _config(
        coupling=Coupling.VGUE, gue_samples=2, seed=3, t_cut=80,
        theta_min=1.0, theta_max=1.0, phi_min=2.0, phi_max=2.0,
    )
    row = run_sweep(config)[0]
    psi = build_coherent_state(CoherentSpec(1.0, 2.0), 4)
    per_sample = []
    for m in range(2):
        pair = build_floquet_pair(config.chain_params, RngStream(3, m))
        series = fidelity_series(pair, psi, 80)
        per_sample.append(compute_report(series).blp)
    assert row.blp == pytest.approx(np.mean(per_sample), rel=1e-12)


def test_sample_mean_is_np_mean_bit_for_bit():
    config = _config(coupling=Coupling.VGUE, gue_samples=3, seed=5, t_cut=60)
    points = enumerate_grid(config.grid)
    per_sample = [
        sweep_module._measures_for_batch(config, sweep_module._prepare_context(config, s), points)
        for s in range(3)
    ]
    expected = np.mean(np.array(per_sample), axis=0).T
    got = np.array([astuple(row)[3:] for row in run_sweep(config)])
    assert got.tobytes() == expected.tobytes()


def test_one_sample_keeps_negative_zeros(monkeypatch):
    # The running sum starts from sample 0's values, as np.mean does: -0.0 stays -0.0.
    monkeypatch.setattr(
        sweep_module, "_measures_for_batch",
        lambda config, context, specs: np.full((len(CSV_FIELDS) - 3, len(specs)), -0.0),
    )
    rows = run_sweep(_config())
    assert all(np.signbit(astuple(row)[3:]).all() for row in rows)


def test_row_invariant_nd_avg_above_nd_max_is_refused(monkeypatch):
    def crossed(config, context, specs):
        values = np.zeros((len(CSV_FIELDS) - 3, len(specs)))
        values[CSV_FIELDS.index("nd_avg") - 3] = 1.0  # above nd_max = 0
        return values

    monkeypatch.setattr(sweep_module, "_measures_for_batch", crossed)
    with pytest.raises(RuntimeError, match="^row invariant nd_avg <= nd_max violated$"):
        run_sweep(_config())


def test_progress_counts_point_samples(capsys):
    config = _config(
        coupling=Coupling.VGUE, gue_samples=3, seed=3, t_cut=20,
        theta_min=1.0, theta_max=1.0, phi_min=2.0, phi_max=2.0,
    )
    run_sweep(config)
    progress = capsys.readouterr().err.splitlines()
    assert len(progress) == 2  # after every batch but the last of the last sample
    for done, line in enumerate(progress, start=1):
        assert re.fullmatch(rf"{done}/3 points, about \d+\.\d s left", line), line


def test_sweep_memory_does_not_grow_with_samples():
    # Each sample's U+- (N=8: 1 MiB each) and eigensystem are freed before the next
    # sample is drawn, so four samples peak no higher than one plus one 256^2 matrix.
    config = _config(
        n_qubits=8, coupling=Coupling.VGUE, seed=3, t_cut=20,
        theta_min=1.0, theta_max=1.0, phi_min=2.0, phi_max=2.0,
    )
    peaks = []
    for samples in (1, 4):
        tracemalloc.start()
        try:
            run_sweep(replace(config, gue_samples=samples))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (1 << 20), peaks


@pytest.mark.parametrize(
    "coupling, samples", [(Coupling.VJ, 1), (Coupling.V0, 1), (Coupling.VGUE, 3)]
)
def test_normalize_by_tcut_divides_only_blp_and_rhp(coupling, samples):
    config = _config(coupling=coupling, gue_samples=samples, seed=3)
    raw = run_sweep(config)
    normalized = run_sweep(replace(config, normalize_by_tcut=True))
    # One sample divides exactly; several may round the mean and the quotient in either order.
    rel = 0.0 if samples == 1 else 1e-15
    assert len(raw) == len(normalized) == 9
    for a, b in zip(raw, normalized):
        assert b.blp == pytest.approx(a.blp / config.t_cut, rel=rel, abs=0.0)
        assert b.rhp == pytest.approx(a.rhp / config.t_cut, rel=rel, abs=0.0)
        assert replace(b, blp=a.blp, rhp=a.rhp) == a


def test_orbit_cap_refused_before_the_image_table(monkeypatch):
    # VJ at N=18: 2^18 states in orbits of at most 36 give over 4,096 orbits, known
    # before the (2^18, 36) table of permuted states is built.
    calls = []
    monkeypatch.setattr(symmetry_module, "_permuted_states", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="dense assembly refused beyond dimension 4096"):
        run_series(_config(n_qubits=18, t_cut=5), CoherentSpec(1.0, 2.0))
    assert calls == []


def test_full_basis_cap_enforced():
    config = _config(n_qubits=13, coupling=Coupling.V0, b_perp=0.5, t_cut=5)
    with pytest.raises(ValueError, match="dense assembly refused beyond dimension 4096"):
        run_sweep(config)


def test_block_cap_refused_before_any_apply(monkeypatch):
    # V0 at N=13: 4,160 reflection-even orbits, over the 4,096 cap.
    calls = []
    monkeypatch.setattr(symmetry_module, "apply_floquet", lambda *args: calls.append(args))
    config = _config(n_qubits=13, coupling=Coupling.V0, b_perp=0.5, t_cut=5)
    with pytest.raises(ValueError, match="dense assembly refused beyond dimension 4096"):
        run_sweep(config)
    assert calls == []


def test_one_period_sweep_refused_before_any_apply(monkeypatch):
    config = _config(t_cut=1)
    assert run_series(config, CoherentSpec(1.0, 2.0)).t_cut == 1  # a series needs no tail

    def refuse(*args):
        raise AssertionError("apply_floquet ran before the t_cut check")

    monkeypatch.setattr(symmetry_module, "apply_floquet", refuse)
    monkeypatch.setattr(dynamics_module, "apply_floquet", refuse)
    with pytest.raises(ValueError, match="t_cut must be >= 2 for a tail average"):
        run_sweep(config)


@pytest.mark.parametrize("coupling", [Coupling.V0, Coupling.V01])
def test_gate_path_series_builds_no_block(coupling, monkeypatch):
    def refuse(ops):
        raise AssertionError("series of a gate-path coupling built a block")

    monkeypatch.setattr(sweep_module, "orbit_blocks", refuse)
    config = _config(n_qubits=6, coupling=coupling, seed=2, t_cut=40)
    run_series(config, CoherentSpec(1.0, 2.0))
    run_saturation(config, CoherentSpec(1.0, 2.0), [20, 40])


@pytest.mark.parametrize("coupling", [Coupling.V0, Coupling.V01])
def test_gate_path_sweep_builds_only_the_plus_block(coupling, monkeypatch):
    # The IPR eigensystem comes from U+'s block; U-'s, never stepped in, is never built.
    calls = []

    def spy(ops):
        calls.append(list(ops))
        return orbit_blocks(ops)

    for module in (sweep_module, symmetry_module):
        monkeypatch.setattr(module, "orbit_blocks", spy)
    config = _config(n_qubits=6, coupling=coupling, seed=2, t_cut=20)
    rows = run_sweep(config)
    assert all(0.0 < row.ipr <= 1.0 for row in rows)
    built = build_floquet_pair(config.chain_params)
    [[op]] = calls
    made = (op.kick_fields, op.bond_strengths)
    assert made == (built.plus.kick_fields, built.plus.bond_strengths)
    assert made != (built.minus.kick_fields, built.minus.bond_strengths)


@pytest.mark.parametrize(
    "coupling, applies",
    [(Coupling.V0, 1), (Coupling.V01, 1), (Coupling.VJ, 2), (Coupling.VB, 2)],
)
def test_context_and_batches_make_only_the_applies_they_need(coupling, applies, monkeypatch):
    # The context: on the gate route one apply for U+'s block, on the block route one per
    # block of U+-, whose U+ block also gives the eigensystem; every one of an operator
    # that build_floquet_pair built, no derived operator.
    # A batch: applies only where fidelity_series steps the gates.
    calls, stepping, applied = [], [], []

    def counted(op, state):
        calls.append(bool(stepping))
        applied.append((op.kick_fields, op.bond_strengths))
        return apply_floquet(op, state)

    def series(pair, psi, t_cut):
        stepping.append(True)
        try:
            return fidelity_series(pair, psi, t_cut)
        finally:
            stepping.pop()

    for module in (sweep_module, symmetry_module, dynamics_module):
        monkeypatch.setattr(module, "apply_floquet", counted, raising=False)
    monkeypatch.setattr(sweep_module, "fidelity_series", series)
    config = _config(n_qubits=6, coupling=coupling, seed=2, t_cut=20)
    context = sweep_module._prepare_context(config, 0)
    assert calls == [False] * applies
    built = build_floquet_pair(config.chain_params)
    members = [(op.kick_fields, op.bond_strengths) for op in (built.plus, built.minus)]
    assert all(op in members for op in applied)
    calls.clear()
    sweep_module._measures_for_batch(config, context, enumerate_grid(config.grid)[:3])
    assert all(calls)
    assert bool(calls) == (coupling in (Coupling.V0, Coupling.V01))  # VJ and VB step blocks


@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.VB])
def test_block_route_context_builds_one_basis(coupling, monkeypatch):
    # One orbit_blocks call for U+ and U-, one table of permuted states: the IPR and the
    # stepping coordinates share that basis, and orbit_eig builds nothing of its own.
    blocks_calls, tables = [], []
    permuted = symmetry_module._permuted_states

    def spy(ops):
        blocks_calls.append(list(ops))
        return orbit_blocks(ops)

    for module in (sweep_module, symmetry_module):
        monkeypatch.setattr(module, "orbit_blocks", spy)
    monkeypatch.setattr(
        symmetry_module, "_permuted_states", lambda n, perms: tables.append(n) or permuted(n, perms)
    )
    config = _config(n_qubits=6, coupling=coupling, seed=2, t_cut=20)
    pair, _, basis = sweep_module._prepare_context(config, 0)
    built = build_floquet_pair(config.chain_params)
    [[plus, minus]] = blocks_calls
    assert tables == [6]
    for op, member in ((plus, built.plus), (minus, built.minus)):
        assert (op.kick_fields, op.bond_strengths) == (member.kick_fields, member.bond_strengths)
    # orbit_eig overwrote a copy: the blocks still step as built.
    fresh_basis, fresh = orbit_blocks([built.plus, built.minus])
    assert np.array_equal(basis.orbit, fresh_basis.orbit)
    assert np.array_equal(pair.plus, fresh[0]) and np.array_equal(pair.minus, fresh[1])


@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.V0, Coupling.VGUE])
def test_unperturbed_series_and_sweep_stay_exactly_one(coupling, monkeypatch):
    # epsilon = 0 makes one uniform operator: one shared block, and f = 1 with no step.
    calls = []

    def spy(pair, psi, t_cut):
        calls.append(fidelity_series(pair, psi, t_cut))
        return calls[-1]

    monkeypatch.setattr(sweep_module, "fidelity_series", spy)
    config = _config(n_qubits=6, coupling=coupling, epsilon=0.0, seed=2, t_cut=41)
    run_series(config, CoherentSpec(1.0, 2.0))
    rows = run_sweep(config)
    assert len(calls) == 2
    assert all(np.all(series.f == 1.0) for series in calls)
    assert all(row.blp == 0.0 and row.f_asym == 1.0 for row in rows)


def test_vgue_series_and_sweep_step_in_dense_blocks(monkeypatch):
    calls = []

    def spy(pair, psi, t_cut):
        calls.append((pair, psi, t_cut, fidelity_series(pair, psi, t_cut)))
        return calls[-1][-1]

    monkeypatch.setattr(sweep_module, "fidelity_series", spy)
    config = _config(n_qubits=6, coupling=Coupling.VGUE, seed=2, t_cut=41)
    run_series(config, CoherentSpec(1.0, 2.0))
    run_sweep(config)
    assert len(calls) == 2
    dense = FloquetPair(*vgue_pair(config.chain_params, RngStream(config.seed, 0)))
    for blocks, psi, t_cut, series in calls:
        assert [block.shape for block in (blocks.plus, blocks.minus)] == [(64, 64)] * 2
        # Without a basis the blocks act on the full states, as the oracle's matrices do.
        reference = fidelity_series(dense, psi, t_cut)
        assert np.max(np.abs(series.f - reference.f)) <= 1e-12


@pytest.mark.parametrize("coupling", [Coupling.V0, Coupling.V01])
def test_block_ipr_matches_dense_full_ipr(coupling):
    # The reflection-even block's eigenbasis against the Schur eigenbasis of the whole U+.
    config = _config(n_qubits=7, coupling=coupling, b_perp=0.9, ipr_basis=IprBasisChoice.FULL)
    op = build_floquet_pair(config.chain_params).plus
    phases, vectors = schur_eig_ref(dense_floquet(op.kick_fields, op.bond_strengths, 7))
    assert circular_gaps(phases).min() > 1e-6  # the dense IPR is basis independent
    for row in run_sweep(config):
        psi = build_coherent_state(CoherentSpec(row.theta, row.phi), 7)
        expected = np.sum(np.abs(vectors.conj().T @ psi) ** 4)
        assert row.ipr == pytest.approx(expected, rel=1e-10)


def _leaky_state(n_qubits, leak):
    """A unit state at (1.0, 2.0) that puts weight ``leak`` outside every orbit basis.

    Basis states 2 and 8 share an orbit under the translations and under the
    reflection fixing site 0, so their difference is orthogonal to every
    state both leave unchanged.
    """
    outside = np.zeros(1 << n_qubits, dtype=np.complex128)
    outside[[2, 8]] = 1.0, -1.0
    psi = build_coherent_state(CoherentSpec(1.0, 2.0), n_qubits)
    return np.sqrt(1.0 - leak) * psi + np.sqrt(leak / 2.0) * outside


@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.V0])
def test_leaking_states_are_refused(coupling, monkeypatch):
    # 1e-9 of the norm outside the basis: ten times the projection tolerance.
    monkeypatch.setattr(sweep_module, "build_coherent_state", lambda spec, n: _leaky_state(n, 1e-9))
    config = _config(coupling=coupling, t_cut=20)
    with pytest.raises(ValueError, match="outside the eigenbasis span"):
        run_sweep(config)
    pair = build_floquet_pair(config.chain_params)
    if is_uniform((pair.plus, pair.minus)):  # only these evolve in the block
        with pytest.raises(ValueError, match="normalized"):
            run_series(config, CoherentSpec(1.0, 2.0))
        with pytest.raises(ValueError, match="normalized"):
            run_saturation(config, CoherentSpec(1.0, 2.0), [10, 20])


def test_run_spectral_smoke():
    config = _config(n_qubits=8, epsilon=0.0)
    report = run_spectral(config)
    assert report.spacings.size == 256 - 36 - 34
    assert 0.0 <= report.brody_q <= 1.2


def test_write_spacing_histogram(tmp_path):
    config = _config(n_qubits=8, epsilon=0.0)
    out = tmp_path / "hist.txt"
    write_spacing_histogram(run_spectral(config), str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 50
    first_center, first_density = lines[0].split()
    assert float(first_center) == pytest.approx(0.05)
    assert float(first_density) >= 0.0


def test_saturation_zero_epsilon_rows():
    config = _config(epsilon=0.0)
    rows = run_saturation(config, CoherentSpec(1.0, 1.0), [10, 20, 40])
    for row in rows:
        assert row.blp == row.rhp == row.nd_max == row.ng_avg == 0.0
        assert row.blp_per_step == 0.0


def test_saturation_prefix_monotonicity():
    config = _config(n_qubits=6, t_cut=400)
    rows = run_saturation(config, CoherentSpec(2.8, 4.8), [50, 100, 200, 400])
    for field in ("blp", "rhp", "nd_max", "nd_avg", "ng_max", "ng_avg"):
        values = [getattr(r, field) for r in rows]
        assert values == sorted(values), field
    assert [r.t_cut for r in rows] == [50, 100, 200, 400]


def test_saturation_checkpoint_validation():
    config = _config()
    with pytest.raises(ValueError):
        run_saturation(config, CoherentSpec(1.0, 1.0), [20, 10])
    with pytest.raises(ValueError):
        run_saturation(config, CoherentSpec(1.0, 1.0), [])
    with pytest.raises(ValueError):
        run_saturation(config, CoherentSpec(1.0, 1.0), [0, 5])
    with pytest.raises(ValueError, match="ascending"):
        run_saturation(config, CoherentSpec(1.0, 1.0), [10, 10])  # no repeated cutoff


def test_saturation_matches_fresh_prefix_runs():
    config = _config(n_qubits=5, t_cut=100)
    rows = run_saturation(config, CoherentSpec(1.2, 0.7), [30, 100])
    pair = build_floquet_pair(config.chain_params)
    psi = build_coherent_state(CoherentSpec(1.2, 0.7), 5)
    for row in rows:
        series = fidelity_series(pair, psi, row.t_cut)
        report = compute_report(series)
        assert row.blp == pytest.approx(report.blp, rel=1e-12)
        assert row.rhp_per_step == pytest.approx(report.rhp / row.t_cut, rel=1e-12)


@pytest.mark.parametrize("n_qubits", [6, 8])
@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.VB, Coupling.V0, Coupling.V01])
def test_series_and_saturation_in_k0_blocks_match_gate_path(coupling, n_qubits):
    # VJ and VB evolve in their orbit blocks, V0 and V01 on the gate path; the
    # gate path on the full state is the reference, also for V0's and V01's
    # reflection-even blocks.
    config = _config(n_qubits=n_qubits, coupling=coupling, b_perp=0.9, t_cut=300)
    pair = build_floquet_pair(config.chain_params)
    basis, blocks = orbit_blocks((pair.plus, pair.minus))
    for spec in (CoherentSpec(2.8, 4.8), CoherentSpec(1.0, 2.0)):
        psi = build_coherent_state(spec, n_qubits)
        gate = fidelity_series(pair, psi, config.t_cut)
        series = run_series(config, spec)
        in_block = fidelity_series(FloquetPair(*blocks), orbit_matrix(basis).T @ psi, config.t_cut)
        assert series.f.shape == in_block.f.shape == gate.f.shape
        # Relative to the amplitude's scale |f(0)| = 1: f passes near zero, where
        # an element-wise ratio measures nothing but rounding.
        assert np.max(np.abs(series.f - gate.f)) <= 1e-12
        assert np.max(np.abs(in_block.f - gate.f)) <= 1e-12
        checkpoints = [50, 150, 300]
        rows = run_saturation(config, spec, checkpoints)
        report = compute_report(gate, checkpoints=checkpoints)
        for i, row in enumerate(rows):
            for name in ("blp", "rhp", "nd_max", "nd_avg", "ng_max", "ng_avg"):
                expected = getattr(report, name)[i]
                assert getattr(row, name) == pytest.approx(expected, rel=1e-12), name


def test_full_basis_ipr_of_translation_invariant_sweep_does_not_warn():
    # The full spectrum is degenerate between sectors k and N-k, which carry
    # no weight of a coherent state, so the IPR is well defined and silent.
    config = _config(n_qubits=6, coupling=Coupling.VB, ipr_basis=IprBasisChoice.FULL, t_cut=20)
    full_eig = unitary_eig(assemble_dense(build_floquet_pair(config.chain_params).plus))
    assert np.min(np.diff(full_eig.values)) < DEGENERACY_GAP
    sector = _config(n_qubits=6, coupling=Coupling.VB, t_cut=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_sweep(config)
        sector_rows = run_sweep(sector)
        dense = [ipr(build_coherent_state(CoherentSpec(r.theta, r.phi), 6), full_eig) for r in rows]
    for full_row, sector_row, dense_ipr in zip(rows, sector_rows, dense):
        assert full_row.ipr == pytest.approx(sector_row.ipr, rel=1e-10)
        assert full_row.ipr == pytest.approx(dense_ipr, rel=1e-10)


def test_saturation_long_run_saturates_nd_max():
    config = _config(n_qubits=10, b_perp=0.1, t_cut=10_000)
    rows = run_saturation(config, CoherentSpec(2.8, 4.8), [5000, 10_000])
    half, full = rows[0].nd_max, rows[1].nd_max
    assert abs(full - half) / full < 0.10


def test_saturation_csv(tmp_path):
    config = _config(n_qubits=5, t_cut=60)
    rows = run_saturation(config, CoherentSpec(1.0, 1.0), [30, 60])
    out = tmp_path / "sat.csv"
    write_saturation_csv(rows, str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(SATURATION_FIELDS)
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "30"


WRITERS = {
    "sweep": lambda path: write_sweep_csv(run_sweep(_config(t_cut=4)), path),
    "saturation": lambda path: write_saturation_csv(
        [SaturationRow(3, *[0.5] * 8)], path
    ),
    "histogram": lambda path: write_spacing_histogram(
        SpectralReport(np.ones(60), (1,), 0.5, 0.0, 0.1, 0.2, 0.1), path
    ),
    "series": lambda path: write_series(FidelitySeries(np.array([1.0, 0.5j])), path),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_writers_replace_output_atomically(writer, tmp_path, monkeypatch):
    out = tmp_path / "out.txt"
    WRITERS[writer](str(out))
    written = out.read_bytes()
    assert written.endswith(b"\n") and os.listdir(tmp_path) == ["out.txt"]

    def refuse(src, dst):
        raise OSError("replace refused")

    out.write_bytes(b"previous output\n")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        WRITERS[writer](str(out))
    assert out.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["out.txt"]
