import warnings

import numpy as np
import pytest
import scipy.stats

import echochain.linalg as linalg_module
import echochain.symmetry as symmetry_module
from echochain import RngStream
from echochain.linalg import (
    CAYLEY_SHIFTS,
    gue_raw,
    hermitian_expm,
    hermiticity_defect,
    sample_gue,
    unitarity_defect,
    unitary_eig,
    unitary_phases,
)
from echochain.chain import ChainParams, Coupling, assemble_dense, build_floquet_pair
from echochain.symmetry import (
    DEGENERACY_GAP, SymmetryViolationError, build_sector, circular_gaps, ipr, sector_matrix,
)

from _oracles import (
    charpoly_eigenvalues,
    inner_product,
    joint_phase_oracle,
    match_phase_multisets,
    schur_eig_ref,
    semicircle_cdf,
    taylor_expm,
)
from test_symmetry import solved_s_block


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
        hermitian_expm(m)


def test_hermitian_expm_gue_against_charpoly_oracle():
    h = gue_raw(8, RngStream(21, 0))
    eig = unitary_eig(hermitian_expm(h))
    assert eig.vectors.dtype == np.complex128  # not symmetric: the complex eigh
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


def _symmetric_unitary(phases, seed):
    """Q diag(e^{i phases}) Q^T with Q real orthogonal."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(phases),) * 2))
    return (q * np.exp(1j * np.asarray(phases))) @ q.T


def _full(params):
    return assemble_dense(build_floquet_pair(params).plus)


ORACLE_MATRICES = {
    "VJ-N6-full": lambda: _full(ChainParams(6, 0.83, 1.21, 0.0, Coupling.VJ)),
    "V0-N8-full": lambda: _full(ChainParams(8, 1.0, 1.4, 0.1, Coupling.V0)),
    "VGUE-N7-draw": lambda: build_floquet_pair(
        ChainParams(7, 1.0, 1.4, 0.1, Coupling.VGUE), RngStream(5, 0)
    ).plus,
    "VJ-N10-k1-block": lambda: sector_matrix(
        build_floquet_pair(ChainParams(10, 1.0, 1.4, 0.1, Coupling.VJ)).plus, build_sector(10, 1)
    ),
    "symmetric-N40": lambda: _symmetric_unitary(np.random.default_rng(4).uniform(-3.1, 3.1, 40), 4),
    "V0-N8-symmetrized-block": lambda: solved_s_block(
        build_floquet_pair(ChainParams(8, 1.0, 1.4, 0.1, Coupling.V0)).plus
    )[1],
}


def test_unitary_eig_against_joint_diagonalization_oracle():
    for name, build in ORACLE_MATRICES.items():
        u = build()
        eig = unitary_eig(u)
        oracle_phases = joint_phase_oracle(u)
        assert match_phase_multisets(eig.values, oracle_phases, 1e-8) < 1e-8, name


@pytest.mark.parametrize(
    "name",
    ["V0-N8-full", "VGUE-N7-draw", "VJ-N10-k1-block", "symmetric-N40", "V0-N8-symmetrized-block"],
)
def test_unitary_eig_against_schur_oracle(name):
    u = ORACLE_MATRICES[name]()
    ref_phases, ref_vectors = schur_eig_ref(u)
    # The IPR is basis independent only where no two phases (nearly) coincide.
    assert circular_gaps(ref_phases).min() > 1e-6
    eig = unitary_eig(u)
    # A symmetric unitary Q e^{i phi} Q^T has real eigenvectors, and only it gets them.
    assert (eig.vectors.dtype == np.float64) == (np.abs(u - u.T).max() < 1e-14)
    assert match_phase_multisets(eig.values, ref_phases, 1e-12) < 1e-12
    assert match_phase_multisets(unitary_phases(u), ref_phases, 1e-12) < 1e-12
    assert np.all(np.diff(unitary_phases(u)) >= 0.0)
    assert np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(len(u))).max() < 1e-13
    assert eig.residual < 1e-10
    g = np.random.default_rng(3)
    states = g.standard_normal((len(u), 5)) + 1j * g.standard_normal((len(u), 5))
    states /= np.linalg.norm(states, axis=0)
    expected = np.sum(np.abs(ref_vectors.conj().T @ states) ** 4, axis=0)
    assert np.abs(ipr(states, eig) / expected - 1.0).max() < 1e-10


def _random_unitary(dim, seed):
    g = np.random.default_rng(seed)
    q, r = np.linalg.qr(g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


FIRST_SHIFT = CAYLEY_SHIFTS[0]


@pytest.mark.parametrize(
    "phases",
    [
        [FIRST_SHIFT, 0.3, -1.0, 3.0, -2.5],  # exactly on the shift
        [FIRST_SHIFT + 1e-15, 0.3, -1.0, 3.0, -2.5],  # a rounding step off it
        [FIRST_SHIFT, FIRST_SHIFT, 0.3, -1.0, 3.0],  # a degenerate pair on it
    ],
    ids=["on-shift", "1e-15-off", "degenerate-pair"],
)
@pytest.mark.parametrize(
    "rotated", [None, "unitary", "orthogonal"], ids=["diagonal", "rotated", "orthogonal"]
)
def test_unitary_eig_with_phases_on_the_shift(phases, rotated):
    # 1 - zU is singular up to rounding, so the inverse returns entries of
    # 1e15 to 1e17 instead of raising; the norm cap must move on to the next
    # shift. The rotated copies also mix that error into every eigenvector; the
    # diagonal and the orthogonally rotated one are symmetric (real route).
    phases = np.array(phases)
    u = np.diag(np.exp(1j * phases))
    if rotated == "unitary":
        q = _random_unitary(len(phases), 8)
        u = q @ u @ q.conj().T
    elif rotated == "orthogonal":
        u = _symmetric_unitary(phases, 8)
    assert linalg_module._cayley(u)[0] == CAYLEY_SHIFTS[1]
    eig = unitary_eig(u)
    assert (eig.vectors.dtype == np.float64) == (rotated != "unitary")
    assert np.abs(eig.values - np.sort(phases)).max() < 1e-12
    assert np.abs(unitary_phases(u) - np.sort(phases)).max() < 1e-12
    assert eig.residual < 1e-10
    assert np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(len(phases))).max() < 1e-13


def test_exactly_singular_shift_moves_on(monkeypatch):
    # With shift 0, 1 - U has an exactly zero pivot and the inverse raises.
    monkeypatch.setattr("echochain.linalg.CAYLEY_SHIFTS", (0.0, 2.0))
    u = np.diag([1.0, 1j, -1.0])
    assert np.allclose(unitary_eig(u).values, [0.0, np.pi / 2.0, np.pi], rtol=0.0, atol=1e-15)
    assert np.allclose(unitary_phases(u), [0.0, np.pi / 2.0, np.pi], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_shift_on_a_phase_of_a_symmetric_unitary_is_refused(seed, monkeypatch):
    # With every shift on an eigenphase of Q e^{i phi} Q^T, rounding can make the
    # blow-up of X = (1 - zU)^-1 Hermitian: it cancels in C = i(X - X^dag), which
    # then passes a cap on |C| and is wrong by O(1). The cap must see it in X.
    g = np.random.default_rng(1000 + seed)
    phases = g.uniform(-np.pi, np.pi, int(g.integers(6, 36)))
    u = _symmetric_unitary(phases, seed)
    monkeypatch.setattr("echochain.linalg.CAYLEY_SHIFTS", tuple(phases))
    with pytest.raises(np.linalg.LinAlgError, match="Cayley shifts"):
        unitary_eig(u)
    with pytest.raises(np.linalg.LinAlgError, match="Cayley shifts"):
        unitary_phases(u)


def test_unitary_eig_raises_when_every_shift_meets_a_phase():
    phases = np.angle(np.exp(1j * np.array(CAYLEY_SHIFTS)))
    u = np.diag(np.exp(1j * phases))
    with pytest.raises(np.linalg.LinAlgError, match="Cayley shifts"):
        unitary_eig(u)
    with pytest.raises(np.linalg.LinAlgError, match="Cayley shifts"):
        unitary_phases(u)
    # One phase fewer leaves the last shift free.
    eig = unitary_eig(np.diag(np.exp(1j * phases[:-1])))
    assert np.abs(eig.values - np.sort(phases[:-1])).max() < 1e-12


def test_hermitian_expm_zero_is_identity():
    out = hermitian_expm(np.zeros((3, 3), dtype=np.complex128))
    assert np.abs(out - np.eye(3)).max() < 1e-14


def test_hermitian_expm_pauli_identity():
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    out = hermitian_expm(np.pi * z)
    assert np.abs(out + np.eye(2)).max() < 1e-12


def test_hermitian_expm_matches_taylor_series():
    h = gue_raw(4, RngStream(3, 0))
    assert np.abs(hermitian_expm(0.3 * h) - taylor_expm(h, 0.3)).max() < 1e-10


def test_hermitian_expm_output_unitary():
    h = gue_raw(8, RngStream(4, 0))
    assert unitarity_defect(hermitian_expm(1.7 * h)) < 1e-12


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: unitary_eig(np.eye(3)[:2]), "expected a square matrix, got shape (2, 3)"),
        (lambda: gue_raw(1, RngStream(0, 0)), "dim must be >= 2"),
    ],
    ids=["non_square_eig", "one_dim_gue"],
)
def test_linalg_refuses_bad_shapes(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (ValueError, message)


def _one_nan(matrix):
    matrix = np.array(matrix, dtype=np.complex128)
    matrix[1, 2] = np.nan
    return matrix


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: unitary_eig(_one_nan(np.eye(4))), ValueError, "matrix is not unitary"),
        (lambda: hermitian_expm(_one_nan(np.zeros((4, 4)))), ValueError, "not Hermitian"),
        (lambda: linalg_module._cayley(_one_nan(np.eye(4))), np.linalg.LinAlgError, "none of"),
        (
            lambda: symmetry_module._require_no_leak(_one_nan(np.eye(4)), "orbit block"),
            SymmetryViolationError, r"orbit block is not unitary \(defect nan\)",
        ),
        (
            lambda: ipr(_one_nan(np.eye(4))[:, 2], unitary_eig(np.eye(4))),
            ValueError, r"outside the eigenbasis span \(deficit nan\)",
        ),
    ],
    ids=["unitarity", "hermiticity", "cayley_norm_cap", "block_leak", "projection_deficit"],
)
def test_tolerance_guards_refuse_a_nan(call, error, message):
    # Each guard is written `not x <= tol`, which a NaN fails; `x > tol` would pass it.
    with pytest.raises(error, match=message):
        call()
