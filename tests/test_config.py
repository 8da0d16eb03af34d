import math

import numpy as np
import pytest

from echochain.chain import Coupling, build_floquet_pair
from echochain.coherent import CoherentSpec
from echochain.config import (
    ConfigError,
    IprBasisChoice,
    RunConfig,
    parse_config,
    parse_config_text,
)
from echochain.linalg import RngStream
from echochain.sweep import _propagators

MINIMAL = """
n_qubits = 6
b_perp = 0.1
b_par = 1.4
epsilon = 0.1
coupling = VJ
"""


def test_minimal_config_and_defaults():
    config = parse_config_text(MINIMAL)
    assert config.n_qubits == 6
    assert config.coupling is Coupling.VJ
    assert config.t_cut == 10000
    assert config.theta_min == 0.0
    assert config.theta_max == pytest.approx(math.pi)
    assert config.theta_step == 0.1
    assert config.phi_max == pytest.approx(2.0 * math.pi)
    assert config.seed == 0
    assert config.gue_samples == 1
    assert config.normalize_by_tcut is False
    assert config.ipr_basis is IprBasisChoice.AUTO
    assert config.output_path == "sweep.csv"
    assert config.tail_window_fraction == 0.5


def test_comments_and_blank_lines_ignored():
    text = MINIMAL + "\n# full-line comment\n\nt_cut = 500  # trailing comment\n"
    assert parse_config_text(text).t_cut == 500


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 7.*unknown key"):
        parse_config_text(MINIMAL + "mystery = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(MINIMAL + "n_qubits = 8\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 7.*key = value"):
        parse_config_text(MINIMAL + "just some words\n")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="bad value for n_qubits"):
        parse_config_text(MINIMAL.replace("n_qubits = 6", "n_qubits = six"))


@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf"])
def test_non_finite_floats_rejected_with_line(bad):
    for key, lineno in (("b_perp", 3), ("epsilon", 5)):
        text = MINIMAL.replace(f"{key} = 0.1", f"{key} = {bad}")
        with pytest.raises(ConfigError, match=f"line {lineno}: bad value for {key}: .*finite"):
            parse_config_text(text)
    for key in ("theta_step", "tail_window_fraction"):
        with pytest.raises(ConfigError, match=f"line 7: bad value for {key}: .*finite"):
            parse_config_text(MINIMAL + f"{key} = {bad}\n")


def test_bad_enum_value_lists_choices():
    with pytest.raises(ConfigError, match="VJ, V01, VB, V0, VGUE"):
        parse_config_text(MINIMAL.replace("coupling = VJ", "coupling = VX"))


def test_coupling_parse_is_case_insensitive():
    assert parse_config_text(MINIMAL.replace("= VJ", "= vgue") + "seed = 3\n").coupling \
        is Coupling.VGUE


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match="missing required keys.*b_par"):
        parse_config_text("n_qubits = 4\nb_perp = 0.1\nepsilon = 0\ncoupling = VJ\n")


@pytest.mark.parametrize("coupling", ["VJ", "VGUE"])
def test_negative_seed_is_a_config_error(coupling):
    # A VGUE draw would otherwise fail at run time without naming the key.
    text = MINIMAL.replace("= VJ", f"= {coupling}") + "seed = -3\n"
    with pytest.raises(ConfigError, match="^seed must be >= 0$"):
        parse_config_text(text)


def test_gue_samples_requires_vgue():
    with pytest.raises(ConfigError, match="gue_samples"):
        parse_config_text(MINIMAL + "gue_samples = 4\n")
    config = parse_config_text(
        MINIMAL.replace("coupling = VJ", "coupling = VGUE") + "gue_samples = 4\n"
    )
    assert config.gue_samples == 4


def test_tail_window_fraction_bounds():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "tail_window_fraction = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "tail_window_fraction = 1.5\n")


def test_invalid_chain_parameters_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL.replace("epsilon = 0.1", "epsilon = -1"))
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "t_cut = 0\n")


def test_explicit_basis_overrides_auto():
    config = parse_config_text(MINIMAL + "ipr_basis = FULL\n")
    assert config.ipr_basis is IprBasisChoice.FULL


@pytest.mark.parametrize("coupling", ["V01", "V0", "VGUE"])
def test_sector_ipr_basis_needs_translation_invariant_coupling(coupling):
    with pytest.raises(ConfigError, match="SECTOR_K0"):
        parse_config_text(MINIMAL.replace("= VJ", f"= {coupling}") + "ipr_basis = SECTOR_K0\n")
    explicit = parse_config_text(MINIMAL.replace("= VJ", "= VB") + "ipr_basis = SECTOR_K0\n")
    assert explicit.ipr_basis is IprBasisChoice.SECTOR_K0


def test_vgue_config_pair_draws_from_seed_stream_zero():
    # The seed reaches the VGUE draw as RngStream(seed, sample), not through ChainParams.
    config = parse_config_text(MINIMAL.replace("= VJ", "= VGUE") + "seed = 9\n")
    basis, _, pair = _propagators(config, 0)
    expected = build_floquet_pair(config.chain_params, RngStream(9, 0))
    assert basis is None
    assert np.array_equal(pair.plus, expected.plus)
    assert np.array_equal(pair.minus, expected.minus)


def test_normalize_flag_parsing():
    assert parse_config_text(MINIMAL + "normalize_by_tcut = true\n").normalize_by_tcut
    assert not parse_config_text(MINIMAL + "normalize_by_tcut = false\n").normalize_by_tcut
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "normalize_by_tcut = yes\n")


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + "output_path = out.csv\n", encoding="utf-8")
    config = parse_config(str(path))
    assert config.output_path == "out.csv"
    assert isinstance(config, RunConfig)


def test_grid_property_round_trip():
    config = parse_config_text(MINIMAL + "theta_step = 0.3\nphi_step = 0.3\n")
    assert len(config.grid.thetas) == 11
    assert len(config.grid.phis) == 21


def test_quarter_turn_phi_axis_stops_below_two_pi():
    config = parse_config_text(MINIMAL + "phi_step = 0.7853981633974483\n")
    phis = config.grid.phis
    assert len(phis) == 8
    assert phis[-1] == pytest.approx(7.0 * math.pi / 4.0)
    assert phis[-1] < 2.0 * math.pi


@pytest.mark.parametrize(
    "axis, message",
    [
        ("theta_max = 4.0\ntheta_step = 0.5\n", "theta 3.5 outside"),
        ("theta_min = 2.0\ntheta_max = 1.0\n", "empty grid range"),
        ("phi_min = -0.5\n", "phi -0.5 outside"),
        # Steps below the rounding of the axis: 1 + 1e-17 == 1, so points would repeat.
        (
            "theta_min = 1.0\ntheta_max = 1.0\ntheta_step = 1e-17\n",
            "grid step 1e-17 is below the rounding of its axis values",
        ),
        (
            "theta_min = 1.0\ntheta_max = 1.0000000000000002\ntheta_step = 1e-17\n",
            "grid step 1e-17 is below the rounding of its axis values",
        ),
    ],
    ids=["theta_past_pi", "empty_theta", "negative_phi", "repeated_point", "repeated_points"],
)
def test_bad_grid_axis_is_a_config_error_at_parse(axis, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(MINIMAL + axis)


def test_parse_checks_the_grid_axis_by_axis(monkeypatch):
    # A point is valid iff its theta and its phi are, and both axes ascend: the first
    # point and the first theta past pi are checked, not all 231 points.
    made = []
    check = CoherentSpec.__post_init__

    def counted(spec):
        made.append(spec)
        check(spec)

    monkeypatch.setattr(CoherentSpec, "__post_init__", counted)
    config = parse_config_text(MINIMAL + "theta_step = 0.3\nphi_step = 0.3\n")
    assert (len(config.grid.thetas), len(config.grid.phis)) == (11, 21)
    assert len(made) <= 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("theta_step = 0\n", "grid steps must be positive"),
        ("gue_samples = 0\n", "gue_samples must be >= 1"),
    ],
    ids=["zero_theta_step", "zero_gue_samples"],
)
def test_nonpositive_count_or_step_is_a_config_error(line, message):
    with pytest.raises(ConfigError) as refused:
        parse_config_text(MINIMAL + line)
    assert (type(refused.value), str(refused.value)) == (ConfigError, message)
