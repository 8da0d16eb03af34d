import numpy as np
import pytest

from echochain import RngStream
from echochain.chain import (
    DENSE_DIM_CAP,
    ChainParams,
    Coupling,
    FloquetOperator,
    apply_floquet,
    assemble_dense,
    build_floquet_pair,
)
from echochain.linalg import gue_raw, hermitian_expm, unitarity_defect
from echochain.symmetry import is_uniform

from _oracles import dense_floquet, dense_kick_factor, ising_phase_matrix, vgue_pair

ALL_COUPLINGS = list(Coupling)


def _pair(coupling, n_qubits=4, epsilon=0.1, b_perp=0.9, b_par=1.3, seed=5):
    params = ChainParams(n_qubits, b_perp, b_par, epsilon, coupling)
    return build_floquet_pair(params, RngStream(seed, 0))


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(1, 0.1, 1.4, 0.1, Coupling.VJ)
    with pytest.raises(ValueError):
        ChainParams(4, 0.1, 1.4, -0.1, Coupling.VJ)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", [1, 2, 3])
def test_params_reject_non_finite_fields(bad, slot):
    values = [4, 0.1, 1.4, 0.1]
    values[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        ChainParams(*values, Coupling.VJ)


@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
def test_zero_epsilon_collapses_pair(coupling):
    pair = _pair(coupling, epsilon=0.0)
    assert pair.identical
    assert pair.plus is pair.minus
    assert isinstance(pair.plus, FloquetOperator)


@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
def test_operator_translation_invariance_follows_coupling(coupling):
    # is_uniform agrees with the rule it replaced: one kick and one bond on every
    # site; for epsilon > 0 that is VJ and VB only. VGUE's members are then matrices.
    for n_qubits in (2, 5, 6):
        for epsilon in (0.0, 0.1):
            pair = _pair(coupling, n_qubits=n_qubits, epsilon=epsilon)
            if coupling is Coupling.VGUE and epsilon > 0.0:
                assert all(isinstance(u, np.ndarray) for u in (pair.plus, pair.minus))
                continue
            for op in (pair.plus, pair.minus):
                old_rule = len(set(op.kick_fields)) == 1 and len(set(op.bond_strengths)) == 1
                assert is_uniform([op]) is old_rule
                assert old_rule is (epsilon == 0.0 or coupling in (Coupling.VJ, Coupling.VB))
            assert is_uniform((pair.plus, pair.minus)) is old_rule


def test_vj_bond_values():
    pair = _pair(Coupling.VJ, n_qubits=4, epsilon=0.1)
    assert pair.plus.bond_strengths == (1.1, 1.1, 1.1, 1.1)
    assert pair.minus.bond_strengths == pytest.approx((0.9, 0.9, 0.9, 0.9))


def test_v01_perturbs_single_bond():
    pair = _pair(Coupling.V01, n_qubits=4, epsilon=0.1)
    assert pair.plus.bond_strengths == (1.1, 1.0, 1.0, 1.0)
    assert pair.minus.bond_strengths == pytest.approx((0.9, 1.0, 1.0, 1.0))
    assert pair.plus.kick_fields == pair.minus.kick_fields


def test_vb_shifts_all_kick_fields():
    pair = _pair(Coupling.VB, n_qubits=4, epsilon=0.1, b_perp=0.9)
    assert all(bx == pytest.approx(1.0) for bx, _ in pair.plus.kick_fields)
    assert all(bx == pytest.approx(0.8) for bx, _ in pair.minus.kick_fields)
    assert pair.plus.bond_strengths == pair.minus.bond_strengths == (1.0,) * 4


def test_v0_shifts_first_site_field_only():
    pair = _pair(Coupling.V0, n_qubits=4, epsilon=0.1, b_perp=0.9)
    assert pair.plus.kick_fields[0][0] == pytest.approx(1.0)
    assert pair.minus.kick_fields[0][0] == pytest.approx(0.8)
    for op in (pair.plus, pair.minus):
        assert all(bx == pytest.approx(0.9) for bx, _ in op.kick_fields[1:])


def test_vgue_dense_factor_matches_explicit_assembly():
    # U+- = (kick factor) exp(-i (H_I +- eps V)), the draw rescaled here by its 2-norm.
    params = ChainParams(3, 0.5, 0.7, 0.1, Coupling.VGUE)
    pair = build_floquet_pair(params, RngStream(7, 0))
    assert unitarity_defect(pair.plus) < 1e-9
    assert unitarity_defect(pair.minus) < 1e-9
    v = gue_raw(8, RngStream(7, 0))
    v *= np.log2(8) / np.linalg.norm(v, 2)
    angles = -np.angle(np.diag(ising_phase_matrix((1.0,) * 3, 3)))
    h_plus = np.diag(angles) + 0.1 * v
    h_minus = np.diag(angles) - 0.1 * v
    kick = dense_kick_factor(((0.5, 0.7),) * 3, 3)
    assert np.abs(pair.plus - kick @ hermitian_expm(h_plus)).max() < 1e-10
    assert np.abs(pair.minus - kick @ hermitian_expm(h_minus)).max() < 1e-10


def test_vgue_deterministic_per_stream():
    params = ChainParams(3, 0.5, 0.7, 0.1, Coupling.VGUE)
    a = build_floquet_pair(params, RngStream(7, 0))
    b = build_floquet_pair(params, RngStream(7, 0))
    assert np.array_equal(a.plus, b.plus)
    c = build_floquet_pair(params, RngStream(7, 1))
    assert not np.array_equal(a.plus, c.plus)


def test_vgue_dimension_cap():
    params = ChainParams(13, 0.5, 0.7, 0.1, Coupling.VGUE)
    assert params.dim > DENSE_DIM_CAP
    with pytest.raises(ValueError, match="dense"):
        build_floquet_pair(params, RngStream(1, 0))


def test_vgue_build_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        build_floquet_pair(ChainParams(3, 0.5, 0.7, 0.1, Coupling.VGUE))


def test_apply_floquet_identity_when_all_parameters_vanish():
    pair = _pair(Coupling.VJ, epsilon=0.0, b_perp=0.0, b_par=0.0)
    op = pair.plus
    zeroed = type(op)(kick_fields=op.kick_fields, bond_strengths=(0.0,) * 4)
    rng = np.random.default_rng(0)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    out = apply_floquet(zeroed, v)
    assert np.abs(out - v).max() < 1e-14


@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
def test_apply_floquet_matches_dense_oracle(coupling, n_qubits):
    pair = _pair(coupling, n_qubits=n_qubits)
    members = (pair.plus, pair.minus)
    rng = np.random.default_rng(17)
    if coupling is Coupling.VGUE:  # VGUE's members are the matrices it steps in
        params = ChainParams(n_qubits, 0.9, 1.3, 0.1, coupling)
        step, oracles = np.matmul, vgue_pair(params, RngStream(5, 0))
    else:
        step = apply_floquet
        oracles = [dense_floquet(op.kick_fields, op.bond_strengths, n_qubits) for op in members]
    for op, dense in zip(members, oracles):
        for _ in range(5):
            v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
            v /= np.linalg.norm(v)
            assert np.abs(step(op, v) - dense @ v).max() <= 1e-10


def test_apply_floquet_preserves_norm():
    pair = _pair(Coupling.VJ, n_qubits=6)
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(64, 1000)) + 1j * rng.normal(size=(64, 1000))
    batch /= np.linalg.norm(batch, axis=0)
    out = apply_floquet(pair.plus, batch)
    assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-12


def test_apply_floquet_dimension_check():
    pair = _pair(Coupling.VJ, n_qubits=4)
    with pytest.raises(ValueError):
        apply_floquet(pair.plus, np.ones(8, dtype=np.complex128))


def test_assemble_dense_identity_parameters():
    pair = _pair(Coupling.VJ, epsilon=0.0, b_perp=0.0, b_par=0.0)
    zeroed = type(pair.plus)(kick_fields=pair.plus.kick_fields, bond_strengths=(0.0,) * 4)
    assert np.abs(assemble_dense(zeroed) - np.eye(16)).max() < 1e-14


def test_assemble_dense_columns_are_basis_images():
    pair = _pair(Coupling.V0, n_qubits=3)
    u = assemble_dense(pair.plus)
    for j in range(8):
        e = np.zeros(8, dtype=np.complex128)
        e[j] = 1.0
        assert np.abs(u[:, j] - apply_floquet(pair.plus, e)).max() < 1e-12


def test_assemble_dense_unitary():
    pair = _pair(Coupling.VB, n_qubits=5)
    assert unitarity_defect(assemble_dense(pair.plus)) < 1e-9


def test_assemble_dense_dimension_cap():
    params = ChainParams(13, 0.1, 1.4, 0.0, Coupling.VJ)
    with pytest.raises(ValueError):
        assemble_dense(build_floquet_pair(params).plus)


def test_kick_ordering_is_ising_first():
    # One kick step must equal kick_factor @ ising_diag, not the reverse.
    pair = _pair(Coupling.VJ, n_qubits=3, epsilon=0.0)
    op = pair.plus
    kick = dense_kick_factor(op.kick_fields, 3)
    ising = ising_phase_matrix(op.bond_strengths, 3)
    assert np.abs(assemble_dense(op) - kick @ ising).max() < 1e-12
    assert np.abs(kick @ ising - ising @ kick).max() > 1e-3


@pytest.mark.parametrize("coupling", [Coupling.V0, Coupling.VGUE])
@pytest.mark.parametrize("shape", [(64,), (64, 5)])
def test_apply_floquet_real_input_gives_the_complex_result(coupling, shape):
    # A real input is multiplied as given, without a complex copy; the result must not change.
    # VGUE's member is the matrix it steps in, so its step is a product.
    op = _pair(coupling, n_qubits=6).plus
    step = np.matmul if coupling is Coupling.VGUE else apply_floquet
    real = np.random.default_rng(8).normal(size=shape)
    out = step(op, real)
    assert out.dtype == np.complex128
    assert np.array_equal(out, step(op, real.astype(np.complex128)))


def test_floquet_operator_needs_one_bond_per_qubit():
    with pytest.raises(ValueError) as refused:
        FloquetOperator(((0.9, 1.3),) * 4, (1.0,) * 3)
    assert (type(refused.value), str(refused.value)) == (
        ValueError, "periodic chain needs exactly one bond per qubit"
    )
