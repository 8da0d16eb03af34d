import warnings

import numpy as np
import pytest
import scipy.stats

from echochain import RngStream
from echochain.linalg import (
    gue_raw,
    hermitian_expm,
    hermiticity_defect,
    sample_gue,
    unitarity_defect,
    unitary_eig,
)
from echochain.chain import ChainParams, Coupling, assemble_dense, build_floquet_pair
from echochain.symmetry import DEGENERACY_GAP, ipr

from _oracles import (
    charpoly_eigenvalues,
    inner_product,
    joint_phase_oracle,
    match_phase_multisets,
    semicircle_cdf,
    taylor_expm,
)


def test_inner_product_normalized_vector():
    v = np.array([0.6, 0.8j], dtype=np.complex128)
    assert inner_product(v, v) == pytest.approx(1.0 + 0.0j)


def test_inner_product_basis_orthogonality():
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    e1 = np.array([0.0, 1.0], dtype=np.complex128)
    assert inner_product(e0, e1) == 0.0


def test_inner_product_hand_value():
    a = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert inner_product(a, b) == pytest.approx((1.0 - 1.0j) / 2.0)


def test_inner_product_conjugates_first_argument():
    a = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert inner_product(b, a) == pytest.approx(np.conj(inner_product(a, b)))


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(np.ones(2), np.ones(3))


def test_hermitian_expm_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    with pytest.raises(ValueError, match="not Hermitian within 1e-10"):
        hermitian_expm(m, 1.0)


def test_hermitian_expm_gue_against_charpoly_oracle():
    h = gue_raw(8, RngStream(21, 0))
    eig = unitary_eig(hermitian_expm(h, 1.0))
    roots = charpoly_eigenvalues(h)
    assert np.abs(np.imag(roots)).max() < 1e-8
    assert match_phase_multisets(eig.values, -np.real(roots), 1e-8) < 1e-8


def test_unitary_eig_identity():
    eig = unitary_eig(np.eye(3, dtype=np.complex128))
    assert np.abs(eig.values).max() == 0.0
    assert np.all(np.diff(eig.values) < DEGENERACY_GAP)


def test_unitary_eig_diagonal_phases():
    u = np.diag([1.0, 1.0j, -1.0]).astype(np.complex128)
    eig = unitary_eig(u)
    assert np.allclose(eig.values, [0.0, np.pi / 2.0, np.pi])


def test_unitary_eig_phase_interval_half_open():
    # -1 must report phase +pi, never -pi.
    eig = unitary_eig(np.diag([-1.0, 1.0j]).astype(np.complex128))
    assert np.all(eig.values > -np.pi)
    assert np.all(eig.values <= np.pi)
    assert np.pi in eig.values


def test_unitary_eig_rejects_nonunitary():
    with pytest.raises(ValueError):
        unitary_eig(np.diag([2.0, 1.0]).astype(np.complex128))


def test_unitary_eig_sorted_and_reconstructs():
    params = ChainParams(4, 0.7, 0.9, 0.0, Coupling.VJ)
    u = assemble_dense(build_floquet_pair(params).plus)
    eig = unitary_eig(u)
    assert np.all(np.diff(eig.values) >= 0.0)
    rebuilt = (eig.vectors * np.exp(1j * eig.values)) @ eig.vectors.conj().T
    assert np.abs(rebuilt - u).max() < 1e-10
    assert eig.residual < 1e-10


def test_unitary_eig_against_joint_diagonalization_oracle():
    params = ChainParams(6, 0.83, 1.21, 0.0, Coupling.VJ)
    u = assemble_dense(build_floquet_pair(params).plus)
    eig = unitary_eig(u)
    oracle_phases = joint_phase_oracle(u)
    assert match_phase_multisets(eig.values, oracle_phases, 1e-8) < 1e-8


def test_hermitian_expm_zero_is_identity():
    out = hermitian_expm(np.zeros((3, 3), dtype=np.complex128), 1.0)
    assert np.abs(out - np.eye(3)).max() < 1e-14


def test_hermitian_expm_pauli_identity():
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    out = hermitian_expm(z, np.pi)
    assert np.abs(out + np.eye(2)).max() < 1e-12


def test_hermitian_expm_matches_taylor_series():
    h = gue_raw(4, RngStream(3, 0))
    assert np.abs(hermitian_expm(h, 0.3) - taylor_expm(h, 0.3)).max() < 1e-10


def test_hermitian_expm_output_unitary():
    h = gue_raw(8, RngStream(4, 0))
    assert unitarity_defect(hermitian_expm(h, 1.7)) < 1e-12


def test_gue_raw_exactly_hermitian():
    h = gue_raw(32, RngStream(11, 2))
    assert hermiticity_defect(h) == 0.0


def test_gue_raw_deterministic():
    a = gue_raw(16, RngStream(42, 1))
    b = gue_raw(16, RngStream(42, 1))
    assert np.array_equal(a, b)


def test_gue_streams_differ():
    a = gue_raw(16, RngStream(42, 0))
    b = gue_raw(16, RngStream(42, 1))
    assert not np.array_equal(a, b)


def test_gue_raw_semicircle_density():
    dim = 256
    pooled = np.concatenate(
        [np.linalg.eigvalsh(gue_raw(dim, RngStream(123, m))) for m in range(40)]
    )
    radius = 2.0 * np.sqrt(dim / 2.0)
    ks = scipy.stats.kstest(pooled, lambda x: semicircle_cdf(x, radius)).statistic
    assert ks < 0.1


def test_sample_gue_spectral_norm_scaling():
    s = sample_gue(64, RngStream(9, 0))
    assert np.linalg.norm(s, 2) == pytest.approx(np.log2(64), abs=1e-9)
    assert hermiticity_defect(s) == 0.0


def test_degenerate_flag_threshold():
    close = unitary_eig(np.diag(np.exp(1j * np.array([0.0, DEGENERACY_GAP / 2.0]))))
    apart = unitary_eig(np.diag(np.exp(1j * np.array([0.0, 1.0]))))
    spread = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.warns(UserWarning, match="degenerate"):
        ipr(spread, close)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ipr(spread, apart)


def test_rng_stream_generator_reproducible():
    g1 = RngStream(7, 3).generator()
    g2 = RngStream(7, 3).generator()
    assert np.array_equal(g1.random(5), g2.random(5))
