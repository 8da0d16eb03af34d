"""End-to-end checks of the headline behaviors, one verdict line per check.

Each test records PASS or FAIL through conftest.record_acceptance; the
terminal summary lists all ten lines together after the run.
"""

import math

import numpy as np

from echochain.chain import (
    ChainParams,
    Coupling,
    apply_floquet,
    assemble_dense,
    build_floquet_pair,
)
from echochain.coherent import CoherentSpec, build_coherent_state
from echochain.config import RunConfig
from echochain.dynamics import FidelitySeries, fidelity_series
from echochain.linalg import RngStream, unitary_eig
from echochain.measures import compute_report
from echochain.sweep import run_sweep
from echochain.symmetry import (
    build_sector,
    brody_fit,
    ipr,
    sector_basis_matrix,
    sector_matrix,
)

from conftest import record_acceptance
from _oracles import (
    ChannelSnapshot,
    brody_sample,
    choi_eigenvalues,
    choi_trace_norm,
    dense_floquet,
    match_phase_multisets,
    pairwise_rise_max,
    rise_above_mean_max,
    run_based_blp,
    run_based_rhp,
    vgue_pair,
)

REFERENCE_IPR = {(2.8, 4.8): 0.457, (3.0, 2.2): 0.994, (1.5, 3.5): 0.046}


def _k0_eigensystem(n_qubits, b_perp, b_par, epsilon):
    params = ChainParams(n_qubits, b_perp, b_par, epsilon, Coupling.VJ)
    op = build_floquet_pair(params).plus
    basis = build_sector(n_qubits, 0)
    return sector_basis_matrix(basis), unitary_eig(sector_matrix(op, basis))


def _reference_iprs(epsilon):
    b, eig = _k0_eigensystem(10, 0.1, 1.4, epsilon)
    out = {}
    for (theta, phi), _ in REFERENCE_IPR.items():
        psi = build_coherent_state(CoherentSpec(theta, phi), 10)
        out[(theta, phi)] = ipr(b.conj().T @ psi, eig)
    return out


def test_1_ipr_regression_integrable_chain():
    bare = _reference_iprs(0.0)
    ok = all(abs(bare[key] - target) <= 0.02 for key, target in REFERENCE_IPR.items())
    # The eigenbasis of the perturbed U+ shifts each value only slightly;
    # the localized / intermediate / delocalized split must survive it.
    perturbed = _reference_iprs(0.1)
    ok = ok and all(
        abs(perturbed[key] - target) <= 0.04 for key, target in REFERENCE_IPR.items()
    )
    record_acceptance(
        1, "IPR regression for three reference states, 10-qubit integrable chain", ok
    )


def test_2_brody_parameter_mixed_regime(chain12_spectra):
    q = chain12_spectra[1.0].brody_q
    record_acceptance(
        2, f"mixed-regime Brody parameter q = {q:.3f} inside 0.77 +/- 0.10",
        abs(q - 0.77) <= 0.10,
    )


def test_3_spacing_statistics_regime_ordering(chain12_spectra):
    integrable = chain12_spectra[0.1]
    chaotic = chain12_spectra[1.4]
    ok = integrable.ks_poisson < integrable.ks_wigner
    ok = ok and chaotic.ks_wigner < chaotic.ks_poisson
    record_acceptance(
        3, "integrable spacings nearest Poisson, chaotic nearest Wigner", ok
    )


def test_4_sweep_blp_peak_sits_at_intermediate_localization():
    config = RunConfig(
        n_qubits=10,
        b_perp=0.1,
        b_par=1.4,
        epsilon=0.1,
        coupling=Coupling.VJ,
        t_cut=10_000,
        theta_step=0.3,
        phi_step=0.3,
    )
    rows = run_sweep(config)
    assert len(rows) == 231
    top = max(rows, key=lambda r: r.blp)
    record_acceptance(
        4,
        f"strongest BLP grid point has intermediate IPR ({top.ipr:.3f} in [0.25, 0.55])",
        0.25 <= top.ipr <= 0.55,
    )


def test_5_gate_evolution_matches_dense_propagators():
    gen = RngStream(11, 0).generator()
    worst = 0.0
    for coupling in Coupling:
        for n in range(2, 6):
            params = ChainParams(n, 0.6, 1.1, 0.1, coupling)
            pair = build_floquet_pair(params, RngStream(5, 0))
            members = (pair.plus, pair.minus)
            # VGUE's members are the dense matrices it steps in, held to the oracle's.
            if coupling is Coupling.VGUE:
                step, oracles = np.matmul, vgue_pair(params, RngStream(5, 0))
            else:
                step = apply_floquet
                oracles = [dense_floquet(op.kick_fields, op.bond_strengths, n) for op in members]
            for op, dense in zip(members, oracles):
                dim = 1 << n
                states = gen.standard_normal((dim, 100)) + 1j * gen.standard_normal((dim, 100))
                states /= np.linalg.norm(states, axis=0)
                diff = float(np.abs(step(op, states) - dense @ states).max())
                worst = max(worst, diff)
    record_acceptance(
        5, f"gate evolution matches dense propagators, all couplings (max dev {worst:.1e})",
        worst <= 1e-10,
    )


def test_6_momentum_blocks_reassemble_full_spectrum():
    worst = 0.0
    ok = True
    try:
        for n in range(2, 7):
            params = ChainParams(n, 0.9, 1.3, 0.1, Coupling.VJ)
            op = build_floquet_pair(params).plus
            full = unitary_eig(assemble_dense(op)).values
            blocks = np.concatenate(
                [unitary_eig(sector_matrix(op, build_sector(n, k))).values for k in range(n)]
            )
            worst = max(worst, match_phase_multisets(full, blocks, 1e-9))
    except AssertionError:
        ok = False
    record_acceptance(
        6, f"momentum blocks reassemble the full spectrum (worst phase dev {worst:.1e})",
        ok and worst <= 1e-9,
    )


def test_7_measure_identities_on_synthetic_series():
    gen = RngStream(23, 0).generator()
    ok = True
    count = 10_000
    drawn = []
    for i in range(count):
        length = int(gen.integers(20, 26))
        values = np.concatenate([[1.0], 1e-6 + (1.0 - 1e-6) * gen.random(length)])
        if i % 100 == 0:
            values = -np.sort(-values)  # exercise the nonincreasing branch too
        drawn.append(values)
    # The series of one length are the columns of one batch; column j of a
    # batch report is the report of series j alone.
    for length in range(20, 26):
        series = FidelitySeries(
            np.stack([v for v in drawn if len(v) == length + 1], axis=1).astype(np.complex128)
        )
        report = compute_report(series)
        amp = series.amplitude
        g = compute_report(series, checkpoints=range(1, length + 1)).rhp  # G(1..t_cut)
        ok &= np.all(report.rhp == report.ng_max)
        ok &= np.all(report.rhp == g[-1])
        ok &= np.all(report.nd_max <= 1.0)
        ok &= np.all(report.nd_avg <= report.nd_max + 1e-15)
        ok &= np.all(report.nd_max <= report.blp + 1e-12)
        for j in range(amp.shape[1]):
            a = amp[:, j]
            ok &= abs(report.blp[j] - run_based_blp(a)) <= 1e-12
            ok &= abs(report.rhp[j] - run_based_rhp(a)) <= 1e-12
            ok &= abs(report.nd_max[j] - pairwise_rise_max(a)) <= 1e-12
            ok &= abs(report.nd_avg[j] - rise_above_mean_max(a)) <= 1e-12
        all_zero = (
            (report.blp == 0.0) & (report.rhp == 0.0) & (report.nd_max == 0.0)
            & (report.nd_avg == 0.0) & (report.ng_max == 0.0) & (report.ng_avg == 0.0)
        )
        ok &= np.array_equal(all_zero, np.all(np.diff(amp, axis=0) <= 0.0, axis=0))
    record_acceptance(
        7, f"measure identities and independent oracles agree on {count} synthetic series",
        bool(ok),
    )


def test_8_zero_perturbation_is_exactly_flat():
    ok = True
    psi = build_coherent_state(CoherentSpec(1.1, 0.7), 4)
    for coupling in Coupling:
        for b_perp in (0.1, 1.0, 1.4):
            params = ChainParams(4, b_perp, 1.4, 0.0, coupling)
            pair = build_floquet_pair(params, RngStream(0, 0))
            series = fidelity_series(pair, psi, 300)
            report = compute_report(series)
            ok &= pair.identical
            ok &= bool(np.all(series.f == 1.0))
            ok &= (
                report.blp, report.rhp, report.nd_max,
                report.nd_avg, report.ng_max, report.ng_avg,
            ) == (0.0,) * 6
    record_acceptance(
        8, "zero perturbation gives exactly flat fidelity and zero measures, every coupling",
        bool(ok),
    )


def test_9_divisibility_log_equals_channel_trace_norm():
    params = ChainParams(6, 1.4, 1.4, 0.1, Coupling.VJ)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(2.8, 4.8), 6)
    series = fidelity_series(pair, psi, 300)
    amp = series.amplitude
    assert amp.min() > 1e-9  # no clamping in this regime
    snapshots = [ChannelSnapshot(f) for f in series.f]
    choi_min = min(float(choi_eigenvalues(s.f_value).min()) for s in snapshots)
    g = np.concatenate([[0.0], compute_report(series, checkpoints=range(1, series.t_cut + 1)).rhp])
    worst = 0.0
    for t in range(series.t_cut):
        step = math.log(choi_trace_norm(series.f[t + 1] / series.f[t]))
        worst = max(worst, abs((g[t + 1] - g[t]) - step))
    report = compute_report(series)
    rising = np.maximum(amp[1:] / amp[:-1], 1.0)
    product_dev = abs(math.exp(report.rhp) - float(np.prod(rising)))
    ok = choi_min >= -1e-12
    ok = ok and worst <= 1e-12
    ok = ok and product_dev <= 1e-10 * math.exp(report.rhp)
    record_acceptance(
        9, "stepwise divisibility log equals channel trace-norm log; channels stay physical",
        bool(ok),
    )


def test_10_brody_fit_recovers_known_exponents():
    devs = []
    for i, q_true in enumerate((0.0, 0.5, 1.0)):
        sample = brody_sample(q_true, 10_000, RngStream(7, i).generator())
        q_fit, _ = brody_fit(sample)
        devs.append(abs(q_fit - q_true))
    record_acceptance(
        10, f"Brody fit recovers exponents 0, 0.5, 1 (max dev {max(devs):.3f})",
        max(devs) <= 0.05,
    )
