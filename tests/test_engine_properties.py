"""Property tests of the echo engines on random chains (Hypothesis).

The orbit blocks that ``run_series`` and the sweep evolve in, and the
reflection-even blocks of the site couplings, must reproduce the gate path
on the full state, and a batched ``fidelity_series`` call must give
each column what a one-column run gives.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from echochain.chain import ChainParams, Coupling, build_floquet_pair
from echochain.coherent import CoherentSpec, build_coherent_state
from echochain.config import RunConfig
from echochain.dynamics import fidelity_series
from echochain.sweep import run_series
from echochain.symmetry import is_uniform, orbit_blocks

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
    in_block = fidelity_series(pair, basis.T @ psi, t, blocks)
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
    pair = build_floquet_pair(ChainParams(n, b_perp, b_par, eps, coupling, gue_seed=3))
    states = np.stack([build_coherent_state(spec, n) for spec in batch], axis=1)
    blocks = None
    if is_uniform((pair.plus, pair.minus)):
        basis, blocks = orbit_blocks((pair.plus, pair.minus))
        states = basis.T @ states
    f = fidelity_series(pair, states, t, blocks).f
    for j in range(len(batch)):
        alone = fidelity_series(pair, states[:, j], t, blocks).f
        np.testing.assert_allclose(f[:, j], alone, rtol=1e-12, atol=0.0)
