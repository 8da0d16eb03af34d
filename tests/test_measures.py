import math

import numpy as np
import pytest

from echochain.chain import ChainParams, Coupling, build_floquet_pair
from echochain.coherent import CoherentSpec, build_coherent_state
from echochain.dynamics import FidelitySeries, fidelity_series
from echochain.measures import F_FLOOR, compute_report

from _oracles import (
    choi_trace_norm,
    pairwise_rise_max,
    rise_above_mean_max,
    run_based_blp,
    run_based_rhp,
)


def _series(amplitudes) -> FidelitySeries:
    return FidelitySeries(np.asarray(amplitudes, dtype=np.complex128))


def _G(series: FidelitySeries) -> np.ndarray:
    """G(t) for t = 0..t_cut: rhp of each prefix, G(0) = 0."""
    rhp = compute_report(series, checkpoints=range(1, series.t_cut + 1)).rhp
    return np.concatenate([[0.0], rhp])


HAND_SERIES = _series([1.0, 0.5, 0.8, 0.3, 0.9])


def test_indicator_D_is_amplitude():
    series = _series([1.0] + [0.5**t for t in range(1, 6)])
    assert np.allclose(series.amplitude, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    prefixes = compute_report(HAND_SERIES, checkpoints=[1, 2, 3, 4])
    amp = HAND_SERIES.amplitude
    for i, t in enumerate(prefixes.t_cut):
        assert prefixes.nd_max[i] == pytest.approx(pairwise_rise_max(amp[: t + 1]), abs=1e-15)
        assert prefixes.nd_avg[i] == pytest.approx(rise_above_mean_max(amp[: t + 1]), abs=1e-15)


def test_indicator_D_all_ones():
    series = _series([1.0, 1.0, 1.0])
    report = compute_report(series)
    assert np.all(series.amplitude == 1.0)
    assert report.nd_max == report.nd_avg == 0.0


def test_indicator_D_starts_at_one():
    params = ChainParams(4, 0.4, 1.2, 0.15, Coupling.VJ)
    series = fidelity_series(
        build_floquet_pair(params), build_coherent_state(CoherentSpec(1.0, 1.0), 4), 30
    )
    assert series.amplitude[0] == 1.0


def test_indicator_G_nonincreasing_series_is_zero():
    assert np.all(_G(_series([1.0, 0.7, 0.7, 0.2])) == 0.0)


def test_indicator_G_hand_values():
    g = _G(_series([1.0, 0.5, 0.8]))
    assert g[0] == 0.0
    assert g[1] == 0.0
    assert g[2] == pytest.approx(math.log(1.6), abs=1e-12)
    assert round(g[2], 4) == 0.47


def test_indicator_G_increment_matches_choi_trace_norm_log():
    params = ChainParams(6, 0.3, 1.4, 0.1, Coupling.VJ)
    series = fidelity_series(
        build_floquet_pair(params), build_coherent_state(CoherentSpec(2.8, 4.8), 6), 200
    )
    g = _G(series)
    for t in range(200):
        expected = math.log(choi_trace_norm(series.f[t + 1] / series.f[t]))
        assert g[t + 1] - g[t] == pytest.approx(expected, abs=1e-12)


def test_blp_hand_value():
    assert compute_report(HAND_SERIES).blp == pytest.approx(0.9, abs=1e-15)


def test_blp_monotone_series_is_zero():
    assert compute_report(_series([1.0, 0.9, 0.9, 0.4, 0.0])).blp == 0.0


def test_blp_zero_epsilon_run():
    params = ChainParams(5, 0.8, 1.3, 0.0, Coupling.V0)
    series = fidelity_series(
        build_floquet_pair(params), build_coherent_state(CoherentSpec(0.5, 0.5), 5), 40
    )
    assert compute_report(series).blp == 0.0


def test_rhp_hand_value():
    expected = math.log(0.8 / 0.5) + math.log(0.9 / 0.3)
    rhp = compute_report(HAND_SERIES).rhp
    assert rhp == pytest.approx(expected, abs=1e-12)
    assert round(rhp, 4) == 1.5686


def test_rhp_monotone_series_is_zero():
    assert compute_report(_series([1.0, 0.9, 0.5, 0.5, 0.1])).rhp == 0.0


def test_rhp_scale_invariance():
    base = np.array([1.0, 0.5, 0.8, 0.3, 0.9])
    for c in (1.0, 0.63, 0.08):
        scaled = _series(np.concatenate([[1.0], c * base[1:]]))
        assert compute_report(scaled).rhp == pytest.approx(
            compute_report(HAND_SERIES).rhp, abs=1e-12
        )


def test_n_max_hand_value():
    assert compute_report(HAND_SERIES).nd_max == pytest.approx(0.6, abs=1e-15)


def test_n_max_nonincreasing_is_zero():
    assert compute_report(_series([1.0, 0.8, 0.5])).nd_max == 0.0


def test_n_max_on_G_equals_rhp():
    report = compute_report(HAND_SERIES)
    assert report.ng_max == report.rhp
    assert report.ng_max == _G(HAND_SERIES)[-1]


def test_n_avg_hand_value():
    assert compute_report(HAND_SERIES).nd_avg == pytest.approx(0.25, abs=1e-15)


def test_n_avg_constant_is_zero():
    assert compute_report(_series([1.0, 1.0, 1.0, 1.0])).nd_avg == 0.0


def test_n_avg_never_exceeds_n_max():
    rng = np.random.default_rng(42)
    for _ in range(300):
        amp = np.concatenate([[1.0], rng.uniform(0.0, 1.0, rng.integers(2, 40))])
        report = compute_report(_series(amp))
        assert report.nd_avg <= report.nd_max + 1e-12


def test_measures_match_independent_formulations():
    rng = np.random.default_rng(7)
    for _ in range(500):
        amp = np.concatenate([[1.0], rng.uniform(1e-6, 1.0, rng.integers(2, 60))])
        report = compute_report(_series(amp))
        assert report.blp == pytest.approx(run_based_blp(amp), abs=1e-12)
        assert report.rhp == pytest.approx(run_based_rhp(amp), abs=1e-12)
        assert report.nd_max == pytest.approx(pairwise_rise_max(amp), abs=1e-12)
        assert report.nd_avg == pytest.approx(rise_above_mean_max(amp), abs=1e-12)


def test_report_zero_epsilon_all_zero():
    params = ChainParams(6, 1.4, 1.4, 0.0, Coupling.VJ)
    series = fidelity_series(
        build_floquet_pair(params), build_coherent_state(CoherentSpec(2.0, 1.0), 6), 60
    )
    report = compute_report(series)
    assert (
        report.blp == report.rhp == report.nd_max == report.nd_avg
        == report.ng_max == report.ng_avg == 0.0
    )
    assert report.clamp_events == 0


def test_report_sawtooth_blp_exact():
    # Rise steps of a/(p-1) = 1/16 are exact dyadics, so blp is bit-exact.
    p, a, total = 5, 0.25, 20
    amp = [1.0]
    for t in range(1, total + 1):
        phase = (t - 1) % p
        amp.append(1.0 - a + a * phase / (p - 1))
    series = _series(np.array(amp))
    assert compute_report(series).blp == a * (total // p)


def test_report_integrable_run_finite_positive():
    params = ChainParams(10, 0.1, 1.4, 0.1, Coupling.VJ)
    series = fidelity_series(
        build_floquet_pair(params), build_coherent_state(CoherentSpec(2.8, 4.8), 10), 500
    )
    report = compute_report(series)
    for value in (report.blp, report.rhp, report.nd_max, report.nd_avg,
                  report.ng_max, report.ng_avg):
        assert math.isfinite(value)
        assert value > 0.0
    assert report.t_cut == 500


def test_report_identity_rhp_equals_ng_max_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(100):
        amp = np.concatenate([[1.0], rng.uniform(0.0, 1.0, 30)])
        report = compute_report(_series(amp))
        assert report.rhp == report.ng_max


def test_clamp_counted_and_increments_finite():
    amp = np.array([1.0, 1e-14, 0.5, 1e-13, 0.2])
    series = _series(amp)
    report = compute_report(series)
    assert report.clamp_events == 2
    assert math.isfinite(report.rhp)
    # The clamped log rise is capped by the floor, not the raw 1e-14 dip.
    assert report.rhp <= 2 * math.log(1.0 / F_FLOOR)


def test_amplitude_floor_value():
    assert F_FLOOR == 1e-12


def test_report_shapes_for_batches_and_checkpoints():
    batch = FidelitySeries(np.array([[1.0, 1.0], [0.5, 0.9], [0.8, 0.2], [0.3, 0.4]]))
    single = compute_report(HAND_SERIES)
    assert isinstance(single.blp, float) and isinstance(single.clamp_events, int)
    assert single.t_cut == 4
    report = compute_report(batch)
    assert report.blp.shape == report.clamp_events.shape == (2,)
    assert report.t_cut == 3
    rows = compute_report(batch, checkpoints=[1, 3])
    assert rows.nd_avg.shape == (2, 2)
    assert list(rows.t_cut) == [1, 3]
    assert compute_report(HAND_SERIES, checkpoints=[2, 4]).rhp.shape == (2,)


def test_checkpoints_must_lie_within_the_series():
    for bad in ([], [0, 2], [2, 5]):
        with pytest.raises(ValueError):
            compute_report(HAND_SERIES, checkpoints=bad)
