"""Property tests of the echo engines on random chains (Hypothesis).

The k=0 blocks that ``run_series`` and the sweep evolve in must reproduce the
gate path on the full state, and a batched ``echo_overlaps`` call must give
each column what a one-column run gives.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from echochain.chain import ChainParams, Coupling, build_floquet_pair
from echochain.coherent import CoherentSpec, build_coherent_state
from echochain.config import RunConfig
from echochain.dynamics import echo_overlaps, fidelity_series
from echochain.sweep import run_series
from echochain.symmetry import build_sector, sector_basis_matrix, sector_matrix

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
@given(n_qubits, field, field, epsilon, st.sampled_from([Coupling.VJ, Coupling.VB]), t_cut, specs)
def test_series_in_k0_blocks_matches_gate_path(n, b_perp, b_par, eps, coupling, t, spec):
    config = RunConfig(n, b_perp, b_par, eps, coupling, t_cut=t)
    gate = fidelity_series(build_floquet_pair(config.chain_params), build_coherent_state(spec, n), t)
    series = run_series(config, spec)
    assert series.f.shape == gate.f.shape
    # Relative to the amplitude's scale |f(0)| = 1, as in the fixed-parameter test.
    assert np.max(np.abs(series.f - gate.f)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    n_qubits, field, field, epsilon, st.sampled_from(list(Coupling)), t_cut,
    st.lists(specs, min_size=2, max_size=4),
)
def test_batched_echo_columns_match_single_runs(n, b_perp, b_par, eps, coupling, t, batch):
    pair = build_floquet_pair(ChainParams(n, b_perp, b_par, eps, coupling, gue_seed=3))
    states = np.stack([build_coherent_state(spec, n) for spec in batch], axis=1)
    blocks = None
    if coupling.translation_invariant:
        basis = build_sector(n, 0)
        blocks = (sector_matrix(pair.plus, basis), sector_matrix(pair.minus, basis))
        states = sector_basis_matrix(basis).conj().T @ states
    f = echo_overlaps(pair, states, t, blocks)
    for j in range(len(batch)):
        alone = echo_overlaps(pair, states[:, j], t, blocks)
        np.testing.assert_allclose(f[:, j], alone, rtol=1e-12, atol=0.0)
