import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.stats

import echochain.symmetry as symmetry_module
from echochain.chain import (
    ChainParams,
    Coupling,
    FloquetOperator,
    _ising_angles,
    apply_floquet,
    assemble_dense,
    basis_images,
    build_floquet_pair,
)
from echochain.coherent import CoherentSpec, build_coherent_state, enumerate_grid
from echochain.config import RunConfig
from echochain.linalg import RngStream, norm_deficit, unitary_eig
from echochain.symmetry import (
    DEGENERACY_GAP,
    SymmetryViolationError,
    brody_cdf,
    brody_fit,
    build_sector,
    ipr,
    ks_statistic,
    orbit_blocks,
    is_uniform,
    sector_basis_matrix,
    sector_matrix,
    sector_spacings,
    spacing_histogram,
    spacing_statistics,
)

from _oracles import (
    brody_pdf,
    brody_sample,
    dense_floquet,
    dense_kick_factor,
    ising_phase_matrix,
    match_phase_multisets,
    necklace_count,
    orbit_matrix,
    orbits_ref,
    sector_basis_ref,
    sector_block_ref,
    translate,
    translation_permutation,
    vgue_pair,
)


def test_translate_permutes_basis_states():
    state = np.zeros(16, dtype=np.complex128)
    state[0b0011] = 1.0
    shifted = translate(state, 4)
    assert shifted[0b0110] == 1.0
    assert np.count_nonzero(shifted) == 1


def test_translation_permutation_is_order_n():
    perm = translation_permutation(5)
    state = np.arange(32).astype(np.complex128)
    out = state
    for _ in range(5):
        out = translate(out, 5)
    assert np.array_equal(out, state)
    assert len(np.unique(perm)) == 32


def test_two_qubit_sector_dimensions():
    # Orbits of N=2: {00}, {11}, {01,10}.
    assert build_sector(2, 0).dim == 3
    assert build_sector(2, 1).dim == 1


def test_sector_dimension_necklace_counts():
    assert build_sector(10, 0).dim == 108
    assert build_sector(12, 0).dim == 352
    for n in (4, 6, 8, 10, 12):
        assert build_sector(n, 0).dim == necklace_count(n)


@pytest.mark.parametrize("n_qubits", list(range(2, 15)))
def test_sector_dimensions_sum_to_full_space(n_qubits):
    total = sum(build_sector(n_qubits, k).dim for k in range(n_qubits))
    assert total == 1 << n_qubits


@pytest.mark.parametrize("n_qubits", list(range(2, 11)))
def test_orbits_match_reference(n_qubits):
    assert list(build_sector(n_qubits, 0).orbit_reps) == orbits_ref(n_qubits)


@pytest.mark.parametrize("n_qubits", list(range(2, 9)))
def test_sector_basis_matrix_matches_reference(n_qubits):
    for k in range(n_qubits):
        basis = build_sector(n_qubits, k)
        assert np.array_equal(sector_basis_matrix(basis), sector_basis_ref(basis))


def _uniform_operators(n_qubits):
    """The bare chain and the U+ of VJ and VB: every operator sector_matrix accepts."""
    return [
        build_floquet_pair(ChainParams(n_qubits, 0.9, 1.3, eps, coupling)).plus
        for eps, coupling in ((0.0, Coupling.VJ), (0.1, Coupling.VJ), (0.2, Coupling.VB))
    ]


@pytest.mark.parametrize("n_qubits", list(range(2, 9)))
def test_sector_matrix_matches_reference_construction(n_qubits):
    for op in _uniform_operators(n_qubits):
        u = dense_floquet(op.kick_fields, op.bond_strengths, n_qubits)
        for k in range(n_qubits):
            basis = build_sector(n_qubits, k)
            expected = sector_block_ref(u, basis)
            assert np.abs(sector_matrix(op, basis) - expected).max() < 1e-12, k


@pytest.mark.parametrize("n_qubits", list(range(5, 10)))
def test_mirror_sectors_share_eigenphases(n_qubits):
    for op in _uniform_operators(n_qubits):
        for k in range(1, n_qubits):
            phases = unitary_eig(sector_matrix(op, build_sector(n_qubits, k))).values
            mirror = unitary_eig(sector_matrix(op, build_sector(n_qubits, n_qubits - k))).values
            assert match_phase_multisets(phases, mirror, 1e-12) <= 1e-12


def test_sector_basis_columns_orthonormal():
    basis = build_sector(6, 2)
    b = sector_basis_matrix(basis)
    gram = b.conj().T @ b
    assert np.abs(gram - np.eye(basis.dim)).max() < 1e-12


@pytest.mark.parametrize("k", [0, 1, 3])
def test_sector_basis_columns_are_translation_eigenvectors(k):
    n = 6
    b = sector_basis_matrix(build_sector(n, k))
    eigenvalue = np.exp(2j * np.pi * k / n)
    for j in range(b.shape[1]):
        assert np.abs(translate(b[:, j], n) - eigenvalue * b[:, j]).max() < 1e-12


def test_coherent_states_live_in_zero_momentum_sector():
    n = 8
    b = sector_basis_matrix(build_sector(n, 0))
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = CoherentSpec(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        psi = build_coherent_state(spec, n)
        assert abs(np.linalg.norm(b.conj().T @ psi) - 1.0) < 1e-10


def test_sector_matrix_of_identity_is_identity():
    op = FloquetOperator(((0.0, 0.0),) * 4, (0.0,) * 4)
    basis = build_sector(4, 1)
    block = sector_matrix(op, basis)
    assert np.abs(block - np.eye(basis.dim)).max() < 1e-12


@pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
def test_sector_blocks_reproduce_full_spectrum(n_qubits):
    params = ChainParams(n_qubits, 0.9, 1.3, 0.1, Coupling.VJ)
    op = build_floquet_pair(params).plus
    pooled = np.concatenate(
        [
            unitary_eig(sector_matrix(op, build_sector(n_qubits, k))).values
            for k in range(n_qubits)
        ]
    )
    full = unitary_eig(assemble_dense(op)).values
    assert match_phase_multisets(pooled, full, 1e-9) < 1e-9


def test_symmetry_breaking_coupling_raises():
    params = ChainParams(4, 0.9, 1.3, 0.1, Coupling.V01)
    op = build_floquet_pair(params).plus
    with pytest.raises(SymmetryViolationError):
        sector_matrix(op, build_sector(4, 0))


def test_site_coupling_also_breaks_translation():
    params = ChainParams(4, 0.9, 1.3, 0.1, Coupling.V0)
    op = build_floquet_pair(params).plus
    with pytest.raises(SymmetryViolationError):
        sector_matrix(op, build_sector(4, 1))


ORBIT_DIMS_AT_TEN = {Coupling.VJ: 78, Coupling.VB: 78, Coupling.V0: 544, Coupling.V01: 528}


@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.VB, Coupling.V0, Coupling.V01])
def test_orbit_basis_at_ten_qubits(coupling):
    pair = build_floquet_pair(ChainParams(10, 1.0, 1.4, 0.1, coupling))
    basis = orbit_matrix(orbit_blocks((pair.plus, pair.minus))[0])
    assert basis.dtype == np.float64
    assert basis.shape == (1024, ORBIT_DIMS_AT_TEN[coupling])
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() < 1e-13
    grid = enumerate_grid(RunConfig(10, 1.0, 1.4, 0.1, coupling).grid)
    psis = np.stack([build_coherent_state(spec, 10) for spec in grid], axis=1)
    assert len(grid) == 32 * 63
    assert norm_deficit(basis.T @ psis) <= 1e-12


@pytest.mark.parametrize("n_qubits", [2, 5, 6, 7])
@pytest.mark.parametrize("coupling", list(Coupling))
def test_orbit_blocks_are_exact_compressions(coupling, n_qubits):
    params = ChainParams(n_qubits, 0.9, 1.3, 0.2, coupling)
    pair = build_floquet_pair(params, RngStream(5, 0))
    members = (pair.plus, pair.minus)
    if coupling is Coupling.VGUE:  # no basis: the members are the matrices VGUE steps in
        basis, blocks, oracles = np.eye(1 << n_qubits), members, vgue_pair(params, RngStream(5, 0))
    else:
        basis, blocks = orbit_blocks(members)
        basis = orbit_matrix(basis)
        oracles = [dense_floquet(op.kick_fields, op.bond_strengths, n_qubits) for op in members]
    if n_qubits == 2 and coupling in (Coupling.V0, Coupling.V01):  # every orbit one state
        assert np.array_equal(basis, np.eye(4))
    for u, block in zip(oracles, blocks):
        # U maps the span of the basis onto itself: U C = C B.
        assert np.abs(u @ basis - basis @ block).max() < 1e-13


def solved_s_block(op):
    """(C, the block C^T S C that ``orbit_eig`` solves, its eigensystem, ``orbit_eig``'s)."""
    solved = []

    def spy(block):
        solved.append((block, unitary_eig(block)))
        return solved[-1][1]

    basis, (block,) = orbit_blocks([op])
    with mock.patch.object(symmetry_module, "unitary_eig", spy):
        eig = symmetry_module.orbit_eig(op, basis, block)
    [(block, s_eig)] = solved
    return orbit_matrix(basis), block, s_eig, eig


@pytest.mark.parametrize("n_qubits", [2, 5, 6, 7])
@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.VB, Coupling.V0, Coupling.V01])
def test_symmetrized_block_is_an_exact_compression(coupling, n_qubits):
    # S = I^1/2 K I^1/2 from the expm-built kicks: symmetric, U's conjugate by
    # I^1/2, and mapping the span of U's orbit basis onto itself.
    op = build_floquet_pair(ChainParams(n_qubits, 0.9, 1.3, 0.2, coupling)).plus
    half = ising_phase_matrix([j / 2.0 for j in op.bond_strengths], n_qubits)
    s = half @ dense_kick_factor(op.kick_fields, n_qubits) @ half
    u = dense_floquet(op.kick_fields, op.bond_strengths, n_qubits)
    assert np.abs(s - s.T).max() < 1e-14
    assert np.abs(half.conj().T @ s @ half - u).max() < 1e-13
    basis, block, _, _ = solved_s_block(op)
    assert np.array_equal(basis, orbit_matrix(orbit_blocks([op])[0]))
    assert np.abs(s @ basis - basis @ block).max() < 1e-13


@pytest.mark.parametrize("n_qubits", [2, 5, 8])
@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.VB, Coupling.V0, Coupling.V01])
def test_orbit_eig_solves_the_block_it_is_handed(coupling, n_qubits, monkeypatch):
    # h B conj(h), formed in B's place, rounds as the out-of-place product does, and
    # orbit_eig builds and applies nothing of its own.
    op = build_floquet_pair(ChainParams(n_qubits, 0.9, 1.3, 0.2, coupling)).plus
    basis, (block,) = orbit_blocks([op])
    smallest = orbit_matrix(basis).argmax(axis=0)  # each orbit's first basis state
    h = np.exp(-0.5j * _ising_angles(n_qubits, op.bond_strengths)[smallest])
    expected = unitary_eig(h[:, np.newaxis] * block * h.conj())

    def refuse(*args):
        raise AssertionError("orbit_eig built or applied an operator")

    monkeypatch.setattr(symmetry_module, "orbit_blocks", refuse)
    monkeypatch.setattr(symmetry_module, "apply_floquet", refuse)
    eig = symmetry_module.orbit_eig(op, basis, block)
    assert np.array_equal(eig.values, expected.values)
    assert np.array_equal(eig.vectors, h.conj()[:, np.newaxis] * expected.vectors)


@pytest.mark.parametrize("n_qubits", [2, 6])
@pytest.mark.parametrize("coupling", [Coupling.VJ, Coupling.V0])
def test_orbit_basis_keeps_each_orbits_smallest_member(coupling, n_qubits, monkeypatch):
    op = build_floquet_pair(ChainParams(n_qubits, 0.9, 1.3, 0.2, coupling)).plus
    basis, (block,) = orbit_blocks([op])
    first = orbit_matrix(basis).argmax(axis=0)  # each orbit's first basis state
    assert np.array_equal(basis.smallest, first)
    assert np.array_equal(basis.orbit[basis.smallest], np.arange(len(basis.sizes)))

    def refuse(*args, **kwargs):
        raise AssertionError("orbit_eig sorted the orbit labels again")

    monkeypatch.setattr(np, "unique", refuse)
    symmetry_module.orbit_eig(op, basis, block)


def test_orbit_block_of_a_leaking_operator_raises(monkeypatch):
    # V01 perturbs bond 0, which the reflection i <-> -i fixing site 0 (V0's) moves.
    v0 = build_floquet_pair(ChainParams(8, 0.9, 1.3, 0.1, Coupling.V0)).plus
    v01 = build_floquet_pair(ChainParams(8, 0.9, 1.3, 0.1, Coupling.V01)).plus
    reflection = symmetry_module._site_symmetries([v0])
    assert len(reflection) == 2
    monkeypatch.setattr(symmetry_module, "_site_symmetries", lambda ops: reflection)
    orbit_blocks([v0])  # V0 on its own basis: no leak
    with pytest.raises(SymmetryViolationError, match="not unitary"):
        orbit_blocks([v01])


def test_identical_operators_share_one_block(monkeypatch):
    # At epsilon = 0 the pair is one object; its one block keeps FloquetPair.identical true.
    op = build_floquet_pair(ChainParams(6, 0.9, 1.3, 0.0, Coupling.V0)).plus
    calls = _count_applies(monkeypatch)
    basis, (plus, minus) = orbit_blocks([op, op])
    assert plus is minus
    assert sum(cols for _, cols in calls) == len(basis.sizes)  # each orbit's column once


@pytest.mark.parametrize("k", range(8))
def test_sector_norm_check_sees_kick_breaks_not_bond_breaks(k, monkeypatch):
    # With the is_uniform guard off, a site-dependent kick (V0) makes the block
    # lose norm; a site-dependent bond (V01) only rephases each image U|r>.
    monkeypatch.setattr(symmetry_module, "is_uniform", lambda ops: True)
    v0, v01 = (
        build_floquet_pair(ChainParams(8, 0.9, 1.3, 0.1, coupling)).plus
        for coupling in (Coupling.V0, Coupling.V01)
    )
    with pytest.raises(SymmetryViolationError, match="not unitary"):
        sector_matrix(v0, build_sector(8, k))
    assert norm_deficit(sector_matrix(v01, build_sector(8, k))) < 1e-13


def _count_applies(monkeypatch):
    """List that records one entry per apply_floquet call made by the symmetry module."""
    calls = []

    def counted(op, state):
        calls.append(np.shape(state))
        return apply_floquet(op, state)

    monkeypatch.setattr(symmetry_module, "apply_floquet", counted)
    return calls


def _count_images(monkeypatch):
    """List that records the column count of each basis_images call made by the symmetry module."""
    calls = []

    def counted(op, indices):
        calls.append(len(indices))
        return basis_images(op, indices)

    monkeypatch.setattr(symmetry_module, "basis_images", counted)
    return calls


OPERATOR_COUPLINGS = [Coupling.VJ, Coupling.VB, Coupling.V0, Coupling.V01]


def _chunks_of(width, n_qubits, monkeypatch):
    """Sets CHUNK_BYTES to ``width`` columns of images at ``n_qubits``."""
    monkeypatch.setattr(symmetry_module, "CHUNK_BYTES", 16 * (1 << n_qubits) * width)


@pytest.mark.parametrize("width", [1, 2, 3, 4096])  # 4,096: wider than every block
@pytest.mark.parametrize("coupling", OPERATOR_COUPLINGS)
def test_chunked_blocks_match_the_dense_oracles(coupling, width, monkeypatch):
    n = 6
    _chunks_of(width, n, monkeypatch)
    calls, images = _count_applies(monkeypatch), _count_images(monkeypatch)
    pair = build_floquet_pair(ChainParams(n, 0.9, 1.3, 0.2, coupling))
    members = (pair.plus, pair.minus)
    basis, blocks = orbit_blocks(members)
    dense = orbit_matrix(basis)
    oracles = [dense_floquet(op.kick_fields, op.bond_strengths, n) for op in members]
    for u, block in zip(oracles, blocks):
        assert np.abs(dense.T @ u @ dense - block).max() < 1e-13
    assert max(cols for _, cols in calls) <= width
    if is_uniform(members):  # VJ and VB: every momentum sector, from its own images
        for k in range(n):
            sector = build_sector(n, k)
            images.clear()
            block = sector_matrix(pair.plus, sector)
            assert np.abs(block - sector_block_ref(oracles[0], sector)).max() < 1e-12
            assert sum(images) == sector.dim and max(images) <= width  # each column once


def _break_in_chunk(name, column, width, breaking, monkeypatch):
    """Makes the symmetry module's ``name`` (``apply_floquet`` or ``basis_images``) take
    ``breaking`` instead of the operator for the chunk that holds ``column`` only."""
    calls, real = [], getattr(symmetry_module, name)

    def broken(op, columns):
        calls.append(np.shape(columns))
        return real(breaking if len(calls) - 1 == column // width else op, columns)

    monkeypatch.setattr(symmetry_module, name, broken)
    return calls


@pytest.mark.parametrize("width", [1, 2, 3])
def test_a_leak_in_a_middle_chunk_raises(width, monkeypatch):
    # V01 on the orbits of V0's reflection: orbit column 6 leaks (see the test above).
    v0, v01 = (
        build_floquet_pair(ChainParams(8, 0.9, 1.3, 0.1, coupling)).plus
        for coupling in (Coupling.V0, Coupling.V01)
    )
    reflection = symmetry_module._site_symmetries([v0])
    monkeypatch.setattr(symmetry_module, "_site_symmetries", lambda ops: reflection)
    _chunks_of(width, 8, monkeypatch)
    orbit_blocks([v0])
    calls = _break_in_chunk("apply_floquet", 6, width, v01, monkeypatch)
    with pytest.raises(SymmetryViolationError, match="not unitary"):
        orbit_blocks([v0])
    assert 0 < 6 // width < len(calls) - 1


@pytest.mark.parametrize("width", [1, 2, 3])
def test_a_kick_break_in_a_middle_chunk_raises(width, monkeypatch):
    # V0's kicks on representative 9, column 9 of sector k = 0, lose its norm.
    op, v0 = (
        build_floquet_pair(ChainParams(8, 0.9, 1.3, eps, coupling)).plus
        for eps, coupling in ((0.0, Coupling.VJ), (0.1, Coupling.V0))
    )
    _chunks_of(width, 8, monkeypatch)
    sector_matrix(op, build_sector(8, 0))
    calls = _break_in_chunk("basis_images", 9, width, v0, monkeypatch)
    with pytest.raises(SymmetryViolationError, match="not unitary"):
        sector_matrix(op, build_sector(8, 0))
    assert 0 < 9 // width < len(calls) - 1


@pytest.mark.parametrize("coupling", OPERATOR_COUPLINGS)
def test_orbit_coordinates_match_the_dense_product(coupling):
    n = 10
    pair = build_floquet_pair(ChainParams(n, 1.0, 1.4, 0.1, coupling))
    basis, _ = orbit_blocks((pair.plus, pair.minus))
    dense = orbit_matrix(basis)
    grid = enumerate_grid(RunConfig(n, 1.0, 1.4, 0.1, coupling).grid)[::97]
    rng = np.random.default_rng(17)
    noise = rng.normal(size=(1 << n, 6)) + 1j * rng.normal(size=(1 << n, 6))
    for states in (np.stack([build_coherent_state(spec, n) for spec in grid], axis=1), noise):
        coords, expected = basis.coords(states), dense.T @ states
        deviation = np.linalg.norm(coords - expected, axis=0)
        assert np.all(deviation <= 1e-15 * np.linalg.norm(expected, axis=0))
        # A column's coordinates do not depend on the columns beside it.
        assert np.array_equal(basis.coords(states[:, 1]), coords[:, 1])
    # No copy of C, real or complex: the traced peak stays below C itself.
    tracemalloc.start()
    try:
        basis.coords(noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense.nbytes


def test_block_memory_follows_the_block():
    # VJ at N = 13: one (2^N, orbits) complex array is 8,192 x 380 x 16 B = 50 MB over its
    # reflection orbits. spacing_statistics solves sectors k = 1..6 of 630 orbits each, one
    # block at a time: its peak stays below the 6 x 630^2 x 16 B = 38 MB of all six blocks.
    op = build_floquet_pair(ChainParams(13, 1.0, 1.4, 0.1, Coupling.VJ)).plus
    tracemalloc.start()
    try:
        basis, _ = orbit_blocks([op])
        orbit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        spacing_statistics(op)
        spectral_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orbit_peak < 16 * op.dim * len(basis.sizes)
    assert spectral_peak < 16 * sum(build_sector(13, k).dim ** 2 for k in range(1, 7))


@pytest.mark.parametrize("coupling", [Coupling.V0, Coupling.V01, Coupling.VGUE])
def test_spacing_statistics_refuses_symmetry_breaking_couplings(coupling, monkeypatch):
    params = ChainParams(6, 0.9, 1.3, 0.1, coupling)
    op = build_floquet_pair(params, RngStream(5, 0)).plus
    # VGUE's member is a dense matrix, which the guard refuses as it is.
    assert isinstance(op, np.ndarray) if coupling is Coupling.VGUE else not is_uniform([op])
    calls, images = _count_applies(monkeypatch), _count_images(monkeypatch)
    with pytest.raises(SymmetryViolationError):
        spacing_statistics(op)
    assert calls == [] and images == []  # refused before any apply or image


@pytest.mark.parametrize("n_qubits", [9, 10])
def test_spacing_statistics_applies_the_operator_once(n_qubits, monkeypatch):
    op = build_floquet_pair(ChainParams(n_qubits, 1.0, 1.4, 0.1, Coupling.VJ)).plus
    calls, images = _count_applies(monkeypatch), _count_images(monkeypatch)
    spacing_statistics(op)
    assert calls == []
    # One image build per diagonalised sector, one column per representative of it.
    assert images == [build_sector(n_qubits, k).dim for k in range(1, (n_qubits + 1) // 2)]


def test_sector_matrix_is_reproducible_without_a_cache(monkeypatch):
    op = build_floquet_pair(ChainParams(8, 1.0, 1.4, 0.1, Coupling.VB)).plus
    basis = build_sector(8, 3)
    calls, images = _count_applies(monkeypatch), _count_images(monkeypatch)
    first, second = sector_matrix(op, basis), sector_matrix(op, basis)
    assert calls == []
    assert images == [basis.dim] * 2  # one image build per call, nothing kept between them
    assert np.array_equal(first, second)


@pytest.mark.parametrize("n_qubits", [9, 10])
def test_spacing_statistics_matches_per_sector_recomputation(n_qubits):
    # Mirror sectors are diagonalised once; the pooled sample must equal the
    # one from diagonalising every used sector, in the same order.
    op = build_floquet_pair(ChainParams(n_qubits, 1.0, 1.4, 0.1, Coupling.VJ)).plus
    report = spacing_statistics(op)
    used = [k for k in range(1, n_qubits) if 2 * k != n_qubits]
    assert list(report.sectors_used) == used
    pooled = []
    for k in used:
        basis = build_sector(n_qubits, k)
        pooled.append(sector_spacings(unitary_eig(sector_matrix(op, basis)).values, basis.dim))
    expected = np.concatenate(pooled)
    assert report.spacings.shape == expected.shape
    assert np.abs(report.spacings - expected).max() < 1e-11


def _k0_eigensystem(n_qubits, b_perp, b_par, epsilon):
    params = ChainParams(n_qubits, b_perp, b_par, epsilon, Coupling.VJ)
    op = build_floquet_pair(params).plus
    basis = build_sector(n_qubits, 0)
    return sector_basis_matrix(basis), unitary_eig(sector_matrix(op, basis))


def test_ipr_of_eigenvector_is_one():
    _, eig = _k0_eigensystem(6, 0.9, 1.3, 0.0)
    assert ipr(eig.vectors[:, 3], eig) == pytest.approx(1.0, abs=1e-12)


def test_ipr_of_uniform_superposition_is_inverse_count():
    _, eig = _k0_eigensystem(6, 0.9, 1.3, 0.0)
    d = 7
    psi = eig.vectors[:, :d].sum(axis=1) / math.sqrt(d)
    assert ipr(psi, eig) == pytest.approx(1.0 / d, abs=1e-12)


def test_ipr_batch_matches_single_states():
    b, eig = _k0_eigensystem(8, 0.4, 1.3, 0.1)
    angles = ((0.3, 1.0), (1.5, 3.5), (2.8, 4.8))
    psis = np.stack([build_coherent_state(CoherentSpec(t, p), 8) for t, p in angles], axis=1)
    states = b.conj().T @ psis
    values = ipr(states, eig)
    assert values.shape == (3,)
    for j in range(3):
        assert values[j] == pytest.approx(ipr(states[:, j], eig), rel=1e-12)
    with pytest.raises(ValueError):
        ipr(np.concatenate([states, 0.5 * states[:, :1]], axis=1), eig)  # one column off norm


def test_ipr_rejects_state_outside_span():
    basis = build_sector(6, 0)
    b = sector_basis_matrix(basis)
    params = ChainParams(6, 0.9, 1.3, 0.0, Coupling.VJ)
    eig = unitary_eig(sector_matrix(build_floquet_pair(params).plus, basis))
    leaky = np.zeros(basis.dim, dtype=np.complex128)
    leaky[0] = 0.5  # norm far from 1
    assert b.shape[1] == basis.dim
    with pytest.raises(ValueError):
        ipr(leaky, eig)


def test_ipr_localization_reference_values():
    # Three coherent states spanning localized to delocalized at the
    # integrable point of the 10-qubit chain, measured against the bare
    # chain's zero-momentum eigenbasis.
    b, eig = _k0_eigensystem(10, 0.1, 1.4, 0.0)
    expected = {(2.8, 4.8): 0.457, (3.0, 2.2): 0.994, (1.5, 3.5): 0.046}
    for (theta, phi), target in expected.items():
        psi = build_coherent_state(CoherentSpec(theta, phi), 10)
        value = ipr(b.conj().T @ psi, eig)
        assert value == pytest.approx(target, abs=0.02)


def test_ipr_sector_and_full_bases_agree_for_sector_states():
    n = 8
    params = ChainParams(n, 0.7, 1.2, 0.0, Coupling.VJ)
    op = build_floquet_pair(params).plus
    basis = build_sector(n, 0)
    b = sector_basis_matrix(basis)
    sector_eig = unitary_eig(sector_matrix(op, basis))
    full_eig = unitary_eig(assemble_dense(op))
    psi = build_coherent_state(CoherentSpec(2.8, 4.8), n)
    # Mirror sectors k and N-k force exact cross-sector degeneracies in the
    # full spectrum; they carry no weight of a k = 0 state, so nothing warns.
    assert np.min(np.diff(full_eig.values)) < DEGENERACY_GAP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full_value = ipr(psi, full_eig)
        sector_value = ipr(b.conj().T @ psi, sector_eig)
    assert abs(full_value - sector_value) < 1e-8


def test_ipr_warns_for_weight_on_a_degenerate_pair():
    # Eigenphases 0, 0 (exactly degenerate), pi/2 and pi.
    eig = unitary_eig(np.diag([1.0, 1.0, 1j, -1.0]))
    assert np.min(np.diff(eig.values)) < DEGENERACY_GAP
    spread = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    with pytest.warns(UserWarning, match="degenerate"):
        assert ipr(spread, eig) == pytest.approx(0.5, abs=1e-12)
    outside = np.array([[0.0, 0.6], [0.0, 0.0], [1.0, 0.8], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one vector of the pair at most: no warning
        ipr(outside, eig)
    with pytest.warns(UserWarning, match="degenerate"):
        ipr(np.concatenate([outside, spread[:, np.newaxis]], axis=1), eig)


def test_ipr_degenerate_group_wraps_around_pi():
    # Phases -pi + 1e-12 and pi sit 1e-12 apart across the branch cut.
    eig = unitary_eig(np.diag([-1.0, np.exp(1j * (-np.pi + 1e-12)), 1.0, 1j]))
    across = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    with pytest.warns(UserWarning, match="degenerate"):
        ipr(across, eig)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ipr(np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0), eig)


def test_sector_spacings_count_and_mean():
    basis = build_sector(8, 1)
    params = ChainParams(8, 0.9, 1.3, 0.0, Coupling.VJ)
    eig = unitary_eig(sector_matrix(build_floquet_pair(params).plus, basis))
    spacings = sector_spacings(eig.values, basis.dim)
    assert spacings.shape == (basis.dim,)
    assert abs(spacings.mean() - 1.0) < 1e-12
    assert spacings.min() >= 0.0


def test_brody_pdf_endpoints():
    s = np.linspace(0.01, 4.0, 200)
    assert np.abs(brody_pdf(s, 0.0) - np.exp(-s)).max() < 1e-12
    wigner = (np.pi / 2.0) * s * np.exp(-np.pi * s**2 / 4.0)
    assert np.abs(brody_pdf(s, 1.0) - wigner).max() < 1e-12


def test_brody_cdf_matches_pdf_integral():
    s = np.linspace(0.0, 5.0, 2001)
    for q in (0.0, 0.5, 1.0):
        pdf = brody_pdf(s, q)
        trapz = np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(s))
        assert np.abs(brody_cdf(s[1:], q) - trapz).max() < 1e-4


def test_brody_fit_requires_enough_spacings():
    with pytest.raises(ValueError):
        brody_fit(np.ones(49))


def test_brody_fit_poisson_and_wigner_limits():
    rng = np.random.default_rng(100)
    poisson = brody_sample(0.0, 10_000, rng)
    wigner = brody_sample(1.0, 10_000, rng)
    q_poisson, _ = brody_fit(poisson)
    q_wigner, _ = brody_fit(wigner)
    assert q_poisson < 0.1
    assert q_wigner > 0.9


@pytest.mark.parametrize("q_true", [0.0, 0.5, 1.0])
def test_ks_statistic_matches_scipy_kstest(q_true):
    sample = brody_sample(q_true, 3000, np.random.default_rng(int(q_true * 10) + 41))
    q_fit, _ = brody_fit(sample)
    for q in (0.0, 1.0, q_fit):
        cdf = lambda x, q=q: brody_cdf(x, q)  # noqa: E731
        assert ks_statistic(sample, cdf) == scipy.stats.kstest(sample, cdf).statistic


def test_spectral_report_ks_distances_match_scipy(chain12_spectra):
    for report in chain12_spectra.values():
        s = report.spacings
        for q, value in ((0.0, report.ks_poisson), (1.0, report.ks_wigner),
                         (report.brody_q, report.ks_brody)):
            expected = scipy.stats.kstest(s, lambda x, q=q: brody_cdf(x, q)).statistic
            assert value == pytest.approx(expected, rel=0.0, abs=1e-15)


def test_spacing_statistics_excludes_reflection_sectors(chain12_spectra):
    report = chain12_spectra[1.0]
    assert 0 not in report.sectors_used
    assert 6 not in report.sectors_used
    assert set(report.sectors_used) == {1, 2, 3, 4, 5, 7, 8, 9, 10, 11}
    expected = sum(build_sector(12, k).dim for k in report.sectors_used)
    assert report.spacings.size == expected


def test_regime_ordering_against_reference_ensembles(chain12_spectra):
    integrable = chain12_spectra[0.1]
    chaotic = chain12_spectra[1.4]
    assert integrable.ks_poisson < integrable.ks_wigner
    assert chaotic.ks_wigner < chaotic.ks_poisson


def test_mixed_regime_brody_parameter(chain12_spectra):
    assert chain12_spectra[1.0].brody_q == pytest.approx(0.77, abs=0.10)


def test_brody_fit_beats_both_endpoints_in_mixed_regime(chain12_spectra):
    report = chain12_spectra[1.0]
    assert report.ks_brody < report.ks_poisson
    assert report.ks_brody < report.ks_wigner


def test_spacing_histogram_normalization():
    rng = np.random.default_rng(2)
    sample = rng.exponential(1.0, 5000)
    centers, density = spacing_histogram(sample)
    assert centers[0] == pytest.approx(0.05)
    assert centers[-1] == pytest.approx(4.95)
    inside = np.mean(sample < 5.0)
    assert np.sum(density) * 0.1 == pytest.approx(inside, abs=1e-12)


_OP4 = build_floquet_pair(ChainParams(4, 0.9, 1.4, 0.0, Coupling.VJ)).plus
_EIG4 = unitary_eig(np.diag(np.exp(1j * np.arange(4.0))))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_sector(4, 4), "k must lie in [0, 4)"),
        (lambda: build_sector(4, -1), "k must lie in [0, 4)"),
        (
            lambda: sector_matrix(_OP4, build_sector(6, 0)),
            "operator and sector qubit counts differ",
        ),
        (lambda: ipr(np.ones(3) / np.sqrt(3.0), _EIG4), "state dimension does not match eigenbasis"),
    ],
    ids=["k_past_n", "negative_k", "qubit_counts", "ipr_dimension"],
)
def test_sectors_and_ipr_refuse_mismatched_input(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (ValueError, message)
