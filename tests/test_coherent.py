import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echochain.coherent as coherent_module
from echochain.coherent import (
    CoherentSpec,
    SphereGrid,
    build_coherent_state,
    enumerate_grid,
)

from _oracles import axis_values, coherent_overlap, inner_product, kron_coherent

AXIS_SETTINGS = settings(derandomize=True, database=None, max_examples=400, deadline=None)


def test_north_pole_is_index_zero():
    psi = build_coherent_state(CoherentSpec(0.0, 0.0), 5)
    assert psi[0] == 1.0
    assert np.abs(psi[1:]).max() == 0.0


def test_equator_single_qubit():
    psi = build_coherent_state(CoherentSpec(np.pi / 2.0, 0.0), 1)
    assert np.abs(psi - np.array([1.0, 1.0]) / np.sqrt(2.0)).max() < 1e-15


def test_two_qubit_equator_amplitudes():
    phi = 1.234
    psi = build_coherent_state(CoherentSpec(np.pi / 2.0, phi), 2)
    expected = 0.5 * np.array(
        [1.0, np.exp(1j * phi), np.exp(1j * phi), np.exp(2j * phi)]
    )
    assert np.abs(psi - expected).max() < 1e-14


def test_south_pole_is_all_ones_index():
    psi = build_coherent_state(CoherentSpec(np.pi, 0.0), 3)
    assert abs(psi[7]) == pytest.approx(1.0)
    assert np.abs(psi[:7]).max() < 1e-15


@pytest.mark.parametrize("theta,phi", [(0.7, 0.8), (2.3, 5.9), (1.5707, 3.0)])
def test_matches_kron_oracle(theta, phi):
    for n in (1, 3, 6):
        psi = build_coherent_state(CoherentSpec(theta, phi), n)
        assert np.abs(psi - kron_coherent(theta, phi, n)).max() < 1e-12


def test_unit_norm_across_sphere():
    rng = np.random.default_rng(8)
    for _ in range(50):
        spec = CoherentSpec(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        psi = build_coherent_state(spec, 7)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        CoherentSpec(-0.1, 0.0)
    with pytest.raises(ValueError):
        CoherentSpec(np.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        CoherentSpec(1.0, -0.1)
    with pytest.raises(ValueError):
        CoherentSpec(1.0, 2.0 * np.pi)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="outside"):
        CoherentSpec(bad, 0.0)
    with pytest.raises(ValueError, match="outside"):
        CoherentSpec(1.0, bad)


def test_hemisphere_tag():
    assert CoherentSpec(0.3, 0.0).hemisphere == "N"
    assert CoherentSpec(np.pi / 2.0, 0.0).hemisphere == "N"
    assert CoherentSpec(2.0, 0.0).hemisphere == "S"


def test_overlap_with_self_is_one():
    spec = CoherentSpec(1.1, 2.2)
    assert coherent_overlap(spec, spec, 6) == pytest.approx(1.0)


def test_overlap_antipodal_states_vanish():
    a = CoherentSpec(0.8, 1.0)
    b = CoherentSpec(np.pi - 0.8, 1.0 + np.pi)
    for n in (1, 2, 5):
        assert abs(coherent_overlap(a, b, n)) < 1e-14


def test_overlap_matches_built_vectors():
    a = CoherentSpec(0.7, 0.8)
    b = CoherentSpec(1.1, 2.0)
    built = inner_product(build_coherent_state(a, 4), build_coherent_state(b, 4))
    assert abs(coherent_overlap(a, b, 4) - built) < 1e-10


def test_paper_grid_point_count():
    grid = SphereGrid(0.0, np.pi, 0.1, 0.0, 2.0 * np.pi, 0.1)
    assert len(grid.thetas) == 32
    assert len(grid.phis) == 63
    assert len(enumerate_grid(grid)) == 2016


def test_coarse_grid_point_count():
    grid = SphereGrid(0.0, np.pi, 0.3, 0.0, 2.0 * np.pi, 0.3)
    assert len(grid.thetas) == 11
    assert len(grid.phis) == 21
    assert len(enumerate_grid(grid)) == 231


def test_single_point_grid():
    grid = SphereGrid(1.0, 1.0, 0.1, 2.0, 2.0, 0.5)
    points = enumerate_grid(grid)
    assert len(points) == 1
    assert points[0] == CoherentSpec(1.0, 2.0)


def test_grid_enumeration_is_theta_major():
    grid = SphereGrid(0.0, 0.2, 0.2, 0.0, 0.1, 0.1)
    points = enumerate_grid(grid)
    assert [(p.theta, p.phi) for p in points] == [
        (0.0, 0.0),
        (0.0, 0.1),
        (0.2, 0.0),
        (0.2, 0.1),
    ]


def test_grid_endpoint_inclusion_is_robust():
    # 0.1 is not exact in binary; accumulated error must not drop the endpoint.
    grid = SphereGrid(0.0, 3.1, 0.1, 0.0, 0.0, 1.0)
    assert len(grid.thetas) == 32
    assert grid.thetas[-1] == pytest.approx(3.1)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        SphereGrid(1.0, 0.5, 0.1, 0.0, 1.0, 0.1)


def test_empty_axis_with_a_vanishing_step_is_empty():
    # (max - min) / step is -inf: the axis has no candidate, and no count overflows.
    with pytest.raises(ValueError, match="empty grid range"):
        SphereGrid(1.0, 0.5, 1e-320, 0.0, 1.0, 0.5)


@AXIS_SETTINGS
@given(
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 10.0),
    st.integers(-3, 300),
    st.one_of(st.sampled_from([0.0, 1e-9, -1e-9, 0.5, -0.5]), st.floats(-2e-9, 2e-9)),
)
def test_axis_values_match_the_stepping_loop(lo, step, steps, nudge):
    # The closed form against the loop it replaced, bit for bit (float.hex tells -0.0
    # apart), with the upper end at or near a multiple of the step, where the endpoint
    # rule decides. Steps stay above the rounding of the axis values, below which the
    # loop repeats a value.
    hi = lo + (steps + nudge) * step
    expected = axis_values(lo, hi, step)
    assert list(map(float.hex, coherent_module._axis_values(lo, hi, step))) == list(
        map(float.hex, expected)
    )


def test_grid_point_cap_is_inclusive(monkeypatch):
    # 3 x 3 points: (1 - 0) / 0.5 + 1 = 3 per axis, exact in floats.
    monkeypatch.setattr(coherent_module, "MAX_GRID_POINTS", 9)
    assert len(enumerate_grid(SphereGrid(0.0, 1.0, 0.5, 0.0, 1.0, 0.5))) == 9
    monkeypatch.setattr(coherent_module, "MAX_GRID_POINTS", 8)
    with pytest.raises(ValueError, match="grid of up to 9 points, over the cap of 8"):
        SphereGrid(0.0, 1.0, 0.5, 0.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "grid, points",
    [
        ((1.0, 3.0, 1e-320, 2.0, 2.0, 0.5), "inf"),  # the quotient overflows
        ((1.0, 0.5, 0.1, 0.0, 3.0, 1e-17), r"3e\+17"),  # an empty axis hides no long one
    ],
    ids=["step_overflows_the_count", "long_axis_beside_empty_one"],
)
def test_grid_over_the_point_cap_refused_before_enumeration(grid, points):
    with pytest.raises(ValueError, match=f"grid of up to {points} points, over the cap of 1048576"):
        SphereGrid(*grid)


def test_pole_row_states_identical_across_phi():
    base = build_coherent_state(CoherentSpec(0.0, 0.0), 4)
    for phi in (0.5, 1.7, 4.4):
        psi = build_coherent_state(CoherentSpec(0.0, phi), 4)
        assert np.abs(psi - base).max() < 1e-15


def test_coherent_state_needs_a_qubit():
    with pytest.raises(ValueError) as refused:
        build_coherent_state(CoherentSpec(1.0, 2.0), 0)
    assert (type(refused.value), str(refused.value)) == (ValueError, "n_qubits must be >= 1")
