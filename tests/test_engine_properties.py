"""Property tests of the echo engines on random chains (Hypothesis).

The orbit blocks that ``run_series`` and the sweep evolve in, and the
reflection-even blocks of the site couplings, must reproduce the gate path
on the full state, and a batched ``fidelity_series`` call must give
each column what a one-column run gives.

The chunked kick layer of ``apply_floquet``, and of VGUE's U+- as built, must
give what one 2x2 pass per qubit gives, on every chain length up to three full
chunks and one more qubit, so every remainder of the last chunk occurs.

The time blocks of the matrix path must give what one product per period
gives, for series that end on either side of a block boundary.

The orbit block of the symmetrised operator S = I^1/2 K I^1/2, which the
sweep's IPR eigensystem is solved from, must be symmetric with real
eigenvectors, and ``orbit_eig`` must give the eigenphases, eigenvectors and
IPR of U+'s own orbit block.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    match_phase_multisets, orbit_matrix, per_qubit_floquet, vgue_factors, vgue_pair,
)
from echochain.chain import (
    KICK_CHUNK,
    ChainParams,
    Coupling,
    FloquetOperator,
    FloquetPair,
    apply_floquet,
    build_floquet_pair,
)
from echochain.coherent import CoherentSpec, build_coherent_state
from echochain.config import RunConfig
from echochain.dynamics import PERIODS_PER_BLOCK, fidelity_series
from echochain.linalg import RngStream, unitary_eig
from echochain.sweep import run_series
from echochain.symmetry import circular_gaps, ipr, is_uniform, orbit_blocks
from test_symmetry import solved_s_block

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

n_qubits = st.integers(3, 8)
field = st.floats(0.0, 1.6)
epsilon = st.floats(0.0, 0.3, exclude_min=True)
t_cut = st.integers(1, 200)
specs = st.builds(
    CoherentSpec,
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
# One 1-D state, or that many columns.
columns = st.one_of(st.none(), st.integers(1, 4))
seeds = st.integers(0, 2**32 - 1)
MAX_QUBITS = 3 * KICK_CHUNK + 1
# Series ending just before, on and after a time-block boundary, or anywhere in a later block.
block_t_cuts = st.one_of(
    st.sampled_from([1, PERIODS_PER_BLOCK - 1, PERIODS_PER_BLOCK, PERIODS_PER_BLOCK + 1]),
    st.builds(
        lambda k, r: k * PERIODS_PER_BLOCK + r,
        st.integers(1, 12), st.integers(0, PERIODS_PER_BLOCK - 1),
    ),
)


def _random_states(dim, cols, seed):
    rng = np.random.default_rng(seed)
    shape = (dim,) if cols is None else (dim, cols)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@PROPERTY_SETTINGS
@given(
    st.integers(2, MAX_QUBITS),
    st.lists(st.tuples(field, field), min_size=MAX_QUBITS, max_size=MAX_QUBITS),
    st.lists(st.floats(0.0, 2.0), min_size=MAX_QUBITS, max_size=MAX_QUBITS),
    columns, seeds,
)
def test_apply_floquet_matches_per_qubit_kernel(n, fields, bonds, cols, seed):
    # Every qubit gets its own kick field, so a gate placed in the wrong slot
    # of its chunk shows.
    op = FloquetOperator(tuple(fields[:n]), tuple(bonds[:n]))
    states = _random_states(op.dim, cols, seed)
    reference = per_qubit_floquet(op.kick_fields, op.bond_strengths, states)
    assert np.max(np.abs(apply_floquet(op, states) - reference)) <= 1e-13


@PROPERTY_SETTINGS
@given(st.integers(2, 8), field, field, epsilon, columns, seeds)
def test_vgue_apply_floquet_matches_per_qubit_kernel(n, b_perp, b_par, eps, cols, seed):
    # VGUE's Floquet step is the product with its built U+-: the chunked kick
    # layer applied to exp(-i (H_I +- eps V)). N = 9, a last chunk of one qubit,
    # is the fixed test below; each N = 9 example costs six 512-dim eigensolves.
    params = ChainParams(n, b_perp, b_par, eps, Coupling.VGUE)
    pair = build_floquet_pair(params, RngStream(seed, 0))
    states = _random_states(1 << n, cols, seed)
    for u, factor in zip((pair.plus, pair.minus), vgue_factors(params, RngStream(seed, 0))):
        reference = per_qubit_floquet(((b_perp, b_par),) * n, (1.0,) * n, states, factor)
        assert np.max(np.abs(u @ states - reference)) <= 1e-13


def test_vgue_apply_floquet_matches_dense_product_at_nine_qubits():
    # Nine qubits: the last kick chunk holds a single qubit.
    params = ChainParams(9, 1.0, 1.4, 0.05, Coupling.VGUE)
    pair = build_floquet_pair(params, RngStream(73, 0))
    states = _random_states(1 << 9, 3, 5)
    for u, dense in zip((pair.plus, pair.minus), vgue_pair(params, RngStream(73, 0))):
        assert np.max(np.abs(u @ states - dense @ states)) <= 1e-13


@PROPERTY_SETTINGS
@given(
    n_qubits, field, field, epsilon,
    st.sampled_from([Coupling.VJ, Coupling.VB, Coupling.V0, Coupling.V01]), t_cut, specs,
)
def test_series_in_k0_blocks_matches_gate_path(n, b_perp, b_par, eps, coupling, t, spec):
    config = RunConfig(n, b_perp, b_par, eps, coupling, t_cut=t)
    pair = build_floquet_pair(config.chain_params)
    psi = build_coherent_state(spec, n)
    gate = fidelity_series(pair, psi, t)
    series = run_series(config, spec)
    basis, blocks = orbit_blocks((pair.plus, pair.minus))
    in_block = fidelity_series(FloquetPair(*blocks), orbit_matrix(basis).T @ psi, t)
    assert series.f.shape == in_block.f.shape == gate.f.shape
    # Relative to the amplitude's scale |f(0)| = 1, as in the fixed-parameter test.
    assert np.max(np.abs(series.f - gate.f)) <= 1e-12
    assert np.max(np.abs(in_block.f - gate.f)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    n_qubits, field, field, epsilon, st.sampled_from(list(Coupling)), t_cut,
    st.lists(specs, min_size=2, max_size=4),
)
def test_batched_echo_columns_match_single_runs(n, b_perp, b_par, eps, coupling, t, batch):
    pair = build_floquet_pair(ChainParams(n, b_perp, b_par, eps, coupling), RngStream(3, 0))
    states = np.stack([build_coherent_state(spec, n) for spec in batch], axis=1)
    if isinstance(pair.plus, FloquetOperator) and is_uniform((pair.plus, pair.minus)):
        basis, blocks = orbit_blocks((pair.plus, pair.minus))
        pair, states = FloquetPair(*blocks), orbit_matrix(basis).T @ states
    f = fidelity_series(pair, states, t).f
    for j in range(len(batch)):
        alone = fidelity_series(pair, states[:, j], t).f
        np.testing.assert_allclose(f[:, j], alone, rtol=1e-12, atol=0.0)


def _one_period_steps(blocks, states, t_cut):
    a = b = states
    f = [np.ones(states.shape[1:], dtype=np.complex128)]
    for _ in range(t_cut):
        a, b = np.matmul(blocks[0], a), np.matmul(blocks[1], b)
        f.append(np.vecdot(b, a, axis=0))
    return np.array(f)


@PROPERTY_SETTINGS
@given(
    n_qubits, field, field, epsilon, st.sampled_from([Coupling.VJ, Coupling.VB, Coupling.VGUE]),
    block_t_cuts, columns, seeds,
)
def test_time_blocks_match_one_period_steps(n, b_perp, b_par, eps, coupling, t, cols, seed):
    # VJ and VB step in orbit blocks, VGUE in its dense matrices.
    pair = build_floquet_pair(ChainParams(n, b_perp, b_par, eps, coupling), RngStream(seed, 0))
    blocks = (pair.plus, pair.minus)
    if coupling is not Coupling.VGUE:
        _, blocks = orbit_blocks(blocks)
    states = _random_states(len(blocks[0]), cols, seed)
    states /= np.linalg.norm(states, axis=0)
    f = fidelity_series(FloquetPair(*blocks), states, t).f
    reference = _one_period_steps(blocks, states, t)
    assert f.shape == reference.shape
    assert np.max(np.abs(f - reference)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    st.integers(2, 8), field, field, st.floats(0.0, 0.3),
    st.sampled_from([Coupling.VJ, Coupling.VB, Coupling.V0, Coupling.V01]),
    st.lists(specs, min_size=1, max_size=4),
)
def test_symmetrized_block_gives_the_plus_block_ipr(n, b_perp, b_par, eps, coupling, batch):
    # At N = 2 a perturbed site or bond leaves the identity basis.
    plus = build_floquet_pair(ChainParams(n, b_perp, b_par, eps, coupling)).plus
    basis, block, s_eig, eig = solved_s_block(plus)
    plus_basis, (plus_block,) = orbit_blocks([plus])
    assert np.array_equal(basis, orbit_matrix(plus_basis))
    assert np.max(np.abs(block - block.T)) <= 1e-14
    assert s_eig.vectors.dtype == np.float64
    plus_eig = unitary_eig(plus_block)
    assert match_phase_multisets(eig.values, plus_eig.values, 1e-13) <= 1e-13
    # orbit_eig's vectors are U+'s own block eigenvectors: B W = W e^{i phi}.
    residual = plus_block @ eig.vectors - eig.vectors * np.exp(1j * eig.values)
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-12
    # Near a gap g, rounding of 1e-16 turns eigenvectors by about 1e-16 / g, and the
    # IPR with them: 1e-12 holds where every gap exceeds 1e-3.
    if circular_gaps(plus_eig.values).min() > 1e-3:
        psis = np.stack([build_coherent_state(spec, n) for spec in batch], axis=1)
        coords = basis.T @ psis
        np.testing.assert_allclose(ipr(coords, eig), ipr(coords, plus_eig), rtol=1e-12, atol=0.0)
