import numpy as np
import pytest

from echochain.coherent import (
    CoherentSpec,
    SphereGrid,
    build_coherent_state,
    coherent_overlap,
    enumerate_grid,
)
from echochain.linalg import inner_product

from _oracles import kron_coherent


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
    grid = SphereGrid(1.0, 0.5, 0.1, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        enumerate_grid(grid)


def test_pole_row_states_identical_across_phi():
    base = build_coherent_state(CoherentSpec(0.0, 0.0), 4)
    for phi in (0.5, 1.7, 4.4):
        psi = build_coherent_state(CoherentSpec(0.0, phi), 4)
        assert np.abs(psi - base).max() < 1e-15
