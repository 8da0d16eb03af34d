import numpy as np
import pytest

from echochain.chain import ChainParams, Coupling, build_floquet_pair
from echochain.coherent import CoherentSpec, build_coherent_state
from echochain.dynamics import (
    AsymptoticFidelity,
    ChannelSnapshot,
    FidelitySeries,
    asymptotic_fidelity,
    channel_matrix,
    choi_eigenvalues,
    choi_trace_norm,
    fidelity_series,
    write_series,
)

from _oracles import dense_floquet


def _series_from_amplitudes(values) -> FidelitySeries:
    f = np.asarray(values, dtype=np.complex128)
    return FidelitySeries(f, len(f) - 1, "synthetic")


def test_zero_epsilon_series_is_exactly_one():
    params = ChainParams(6, 0.7, 1.1, 0.0, Coupling.VJ)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(1.0, 2.0), 6)
    series = fidelity_series(pair, psi, 50)
    assert np.all(series.f == 1.0)
    assert np.all(series.fidelity == 1.0)


def test_series_matches_dense_matrix_powers():
    params = ChainParams(4, 0.1, 1.4, 0.1, Coupling.VJ)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(0.0, 0.0), 4)
    series = fidelity_series(pair, psi, 20)
    u_plus = dense_floquet(pair.plus.kick_fields, pair.plus.bond_strengths, 4)
    u_minus = dense_floquet(pair.minus.kick_fields, pair.minus.bond_strengths, 4)
    for t in range(21):
        expected = np.vdot(
            np.linalg.matrix_power(u_minus, t) @ psi,
            np.linalg.matrix_power(u_plus, t) @ psi,
        )
        assert abs(series.f[t] - expected) <= 1e-10


def test_amplitude_bounded_by_one():
    rng = np.random.default_rng(12)
    for coupling in (Coupling.VJ, Coupling.VB, Coupling.V0):
        params = ChainParams(5, rng.uniform(0.1, 1.5), 1.4, 0.2, coupling)
        pair = build_floquet_pair(params)
        psi = build_coherent_state(
            CoherentSpec(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)), 5
        )
        series = fidelity_series(pair, psi, 300)
        assert series.amplitude.max() <= 1.0 + 1e-10


def test_series_starts_at_exactly_one():
    params = ChainParams(4, 0.5, 1.0, 0.3, Coupling.V01)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(2.0, 0.5), 4)
    series = fidelity_series(pair, psi, 5)
    assert series.f[0] == 1.0


def test_series_validation():
    with pytest.raises(ValueError):
        FidelitySeries(np.array([1.0, 0.5]), 5, "x")  # length mismatch
    with pytest.raises(ValueError):
        FidelitySeries(np.array([0.9, 0.5]), 1, "x")  # must start at 1
    with pytest.raises(ValueError):
        FidelitySeries(np.array([1.0, 1.5]), 1, "x")  # above the unit bound
    with pytest.raises(ValueError):
        FidelitySeries(np.array([1.0, np.nan]), 1, "x")  # NaN must fail the bound too


def test_series_requires_normalized_state():
    params = ChainParams(4, 0.5, 1.0, 0.3, Coupling.VJ)
    pair = build_floquet_pair(params)
    with pytest.raises(ValueError):
        fidelity_series(pair, np.ones(16, dtype=np.complex128), 5)


def test_channel_matrix_identity():
    m = channel_matrix(ChannelSnapshot(1.0 + 0.0j))
    assert np.abs(m - np.eye(4)).max() < 1e-15


def test_channel_matrix_full_dephasing():
    m = channel_matrix(ChannelSnapshot(0.0j))
    assert np.abs(m - np.diag([1.0, 0.0, 0.0, 1.0])).max() < 1e-15


def test_channel_matrix_rotation_block():
    m = channel_matrix(ChannelSnapshot(0.6 + 0.3j))
    assert m[1, 1] == pytest.approx(0.6)
    assert m[1, 2] == pytest.approx(-0.3)
    assert m[2, 1] == pytest.approx(0.3)
    assert m[2, 2] == pytest.approx(0.6)
    assert m[0, 0] == 1.0 and m[3, 3] == 1.0


def test_choi_eigenvalues_pinned():
    assert np.allclose(choi_eigenvalues(1.0), [1.0, 0.0])
    assert np.allclose(sorted(choi_eigenvalues(0.6 + 0.8j)), [0.0, 1.0])
    lam = 0.3 - 0.4j
    assert np.allclose(sorted(choi_eigenvalues(lam)), [0.25, 0.75])


def test_choi_trace_norm_cases():
    assert choi_trace_norm(0.5) == 1.0
    assert choi_trace_norm(-0.99j) == 1.0
    assert choi_trace_norm(1.25) == pytest.approx(1.25)
    assert choi_trace_norm(1.25j) == pytest.approx(1.25)


def test_trace_norm_excess_matches_amplitude_ratio_rises():
    params = ChainParams(6, 0.3, 1.4, 0.1, Coupling.VJ)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(2.8, 4.8), 6)
    series = fidelity_series(pair, psi, 400)
    amp = series.amplitude
    lhs = sum(
        choi_trace_norm(series.f[t + 1] / series.f[t]) - 1.0
        for t in range(400)
        if amp[t + 1] > amp[t]
    )
    rhs = sum(
        amp[t + 1] / amp[t] - 1.0 for t in range(400) if amp[t + 1] > amp[t]
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_asymptotic_zero_epsilon():
    params = ChainParams(5, 0.7, 1.1, 0.0, Coupling.VB)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(1.2, 0.3), 5)
    tail = asymptotic_fidelity(fidelity_series(pair, psi, 100))
    assert tail.mean_F == 1.0
    assert tail.mean_F2 == 1.0


def test_asymptotic_constant_series():
    c = 0.37
    series = _series_from_amplitudes([1.0] + [c] * 99)
    tail = asymptotic_fidelity(series)
    assert tail.mean_F == pytest.approx(c)
    assert tail.mean_F2 == pytest.approx(c * c)


def test_asymptotic_window_selection():
    f = np.concatenate([[1.0], np.zeros(50), np.full(50, 0.5)])
    series = _series_from_amplitudes(f)
    tail = asymptotic_fidelity(series, tail_fraction=0.5)
    # Window starts at ceil(100 * 0.5) = step 50, which still holds a zero.
    assert tail.window == (50, 100)
    assert tail.mean_F == pytest.approx(np.mean(np.abs(f[50:])))


def test_asymptotic_chaotic_tail_is_small():
    params = ChainParams(10, 1.4, 1.4, 0.1, Coupling.VJ)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(2.0, 1.0), 10)
    tail = asymptotic_fidelity(fidelity_series(pair, psi, 2000))
    assert tail.mean_F2 < 0.05
    assert isinstance(tail, AsymptoticFidelity)


def test_asymptotic_ordering_invariant():
    rng = np.random.default_rng(5)
    amp = np.concatenate([[1.0], rng.uniform(0.0, 1.0, 80)])
    tail = asymptotic_fidelity(_series_from_amplitudes(amp))
    assert tail.mean_F2 <= tail.mean_F <= 1.0


def test_write_series_format(tmp_path):
    series = _series_from_amplitudes([1.0, 0.5 + 0.25j])
    out = tmp_path / "series.txt"
    write_series(series, str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].split() == ["0", "1", "0"]
    assert lines[1].split() == ["1", "0.5", "0.25"]
