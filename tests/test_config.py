import math

import pytest

from echochain.chain import Coupling
from echochain.config import (
    ConfigError,
    IprBasisChoice,
    RunConfig,
    parse_config,
    parse_config_text,
)

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


def test_auto_basis_resolution():
    for coupling, expected in [
        ("VJ", IprBasisChoice.SECTOR_K0),
        ("VB", IprBasisChoice.SECTOR_K0),
        ("V01", IprBasisChoice.FULL),
        ("V0", IprBasisChoice.FULL),
    ]:
        config = parse_config_text(MINIMAL.replace("= VJ", f"= {coupling}"))
        assert config.resolved_ipr_basis is expected
    vgue = parse_config_text(MINIMAL.replace("= VJ", "= VGUE"))
    assert vgue.resolved_ipr_basis is IprBasisChoice.FULL


def test_explicit_basis_overrides_auto():
    config = parse_config_text(MINIMAL + "ipr_basis = FULL\n")
    assert config.resolved_ipr_basis is IprBasisChoice.FULL


def test_chain_params_carries_seed_only_for_vgue():
    plain = parse_config_text(MINIMAL + "seed = 9\n")
    assert plain.chain_params.gue_seed is None
    vgue = parse_config_text(MINIMAL.replace("= VJ", "= VGUE") + "seed = 9\n")
    assert vgue.chain_params.gue_seed == 9


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
