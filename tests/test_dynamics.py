import os

import numpy as np
import pytest

from echochain.chain import ChainParams, Coupling, FloquetPair, build_floquet_pair
from echochain.coherent import CoherentSpec, build_coherent_state
from echochain.dynamics import (
    PERIODS_PER_BLOCK,
    AsymptoticFidelity,
    FidelitySeries,
    asymptotic_fidelity,
    fidelity_series,
    write_lines,
    write_series,
)
from echochain.linalg import RngStream

from _oracles import (
    ChannelSnapshot,
    channel_matrix,
    choi_eigenvalues,
    choi_trace_norm,
    dense_floquet,
)


def _series_from_amplitudes(values) -> FidelitySeries:
    return FidelitySeries(np.asarray(values, dtype=np.complex128))


def test_zero_epsilon_series_is_exactly_one():
    params = ChainParams(6, 0.7, 1.1, 0.0, Coupling.VJ)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(1.0, 2.0), 6)
    series = fidelity_series(pair, psi, 50)
    assert np.all(series.f == 1.0)
    assert np.all(np.abs(series.f) ** 2 == 1.0)


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


@pytest.mark.parametrize(
    ("t_cut", "squarings"),
    [(1, 0), (2, 1), (3, 1), (4, 2), (7, 2), (PERIODS_PER_BLOCK, 3), (50, 3)],
)
def test_time_block_forms_only_used_powers(t_cut, squarings):
    # U^2, U^4, U^8 are squared only while a later period needs them, so t_cut = 1 forms none.
    pair = build_floquet_pair(ChainParams(5, 0.9, 1.3, 0.1, Coupling.VGUE), RngStream(4, 0))
    products = []

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Logged) else x for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            if ufunc is not np.matmul:
                return out
            products.append(tuple(np.shape(x) for x in plain))
            return out.view(Logged)

    blocks = tuple(u.view(Logged) for u in (pair.plus, pair.minus))
    psi = build_coherent_state(CoherentSpec(1.0, 2.0), 5)
    f = fidelity_series(FloquetPair(*blocks), psi, t_cut).f
    assert len(f) == t_cut + 1
    assert products.count(((32, 32), (32, 32))) == 2 * squarings


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


def test_amplitude_is_computed_once_and_read_only():
    f = np.array([1.0, 0.6 - 0.8j, 0.3j])
    series = FidelitySeries(f)
    assert series.amplitude is series.amplitude
    assert np.array_equal(series.amplitude, np.abs(f))
    with pytest.raises(ValueError, match="read-only"):
        series.amplitude[1] = 0.0


def test_series_starts_at_exactly_one():
    params = ChainParams(4, 0.5, 1.0, 0.3, Coupling.V01)
    pair = build_floquet_pair(params)
    psi = build_coherent_state(CoherentSpec(2.0, 0.5), 4)
    series = fidelity_series(pair, psi, 5)
    assert series.f[0] == 1.0


def test_series_validation():
    assert FidelitySeries(np.ones((4, 3))).t_cut == 3  # t_cut follows the length
    with pytest.raises(ValueError):
        FidelitySeries(np.array([1.0]))  # t_cut must be at least 1
    with pytest.raises(ValueError):
        FidelitySeries(np.ones((2, 2, 2)))  # one series or a batch of columns only
    with pytest.raises(ValueError):
        FidelitySeries(np.array([0.9, 0.5]))  # must start at 1
    with pytest.raises(ValueError):
        FidelitySeries(np.array([[1.0, 0.9], [0.5, 0.5]]))  # every column must start at 1
    with pytest.raises(ValueError):
        FidelitySeries(np.array([1.0, 1.5]))  # above the unit bound
    with pytest.raises(ValueError):
        FidelitySeries(np.array([1.0, np.nan]))  # NaN must fail the bound too
    with pytest.raises(ValueError):
        FidelitySeries(np.array([[1.0, 1.0], [0.5, np.nan]]))  # in any column


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


def test_write_lines_failure_keeps_previous_file(tmp_path):
    out = tmp_path / "series.txt"
    out.write_bytes(b"previous output\n")

    def failing_lines():
        yield "0 1 0"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_lines(failing_lines(), str(out))
    assert out.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["series.txt"]
    write_lines(["a", "b"], str(out))
    assert out.read_bytes() == b"a\nb\n"
    assert os.listdir(tmp_path) == ["series.txt"]


def test_asymptotic_batch_columns_match_single_series():
    rng = np.random.default_rng(9)
    f = rng.uniform(0.0, 1.0, (301, 4)) * np.exp(1j * rng.uniform(0.0, 6.0, (301, 4)))
    f[0] = 1.0
    batch = asymptotic_fidelity(FidelitySeries(f), tail_fraction=0.3)
    assert batch.mean_F.shape == batch.mean_F2.shape == (4,)
    for j in range(4):
        alone = asymptotic_fidelity(FidelitySeries(f[:, j]), tail_fraction=0.3)
        assert (batch.mean_F[j], batch.mean_F2[j]) == (alone.mean_F, alone.mean_F2)


def test_asymptotic_bounds_hold_per_column():
    with pytest.raises(ValueError):
        AsymptoticFidelity(np.array([0.5, 0.5]), np.array([0.2, 0.6]))
    with pytest.raises(ValueError):
        AsymptoticFidelity(np.array([0.5, 1.5]), np.array([0.2, 0.2]))


_PAIR = build_floquet_pair(ChainParams(4, 0.9, 1.4, 0.1, Coupling.VJ))
_PSI = build_coherent_state(CoherentSpec(1.0, 2.0), 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fidelity_series(_PAIR, _PSI, 0), "t_cut must be >= 1"),
        (
            lambda: fidelity_series(_PAIR, _PSI[:8], 5),
            "state dimension does not match the propagators",
        ),
        (
            lambda: asymptotic_fidelity(_series_from_amplitudes([1.0, 0.5, 0.4]), 0.0),
            "tail_fraction must lie in (0, 1]",
        ),
        (
            lambda: asymptotic_fidelity(_series_from_amplitudes([1.0, 0.5])),
            "t_cut must be >= 2 for a tail average",
        ),
    ],
    ids=["zero_t_cut", "state_dimension", "zero_tail_fraction", "one_period_tail"],
)
def test_series_and_tail_refuse_bad_input(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (ValueError, message)
