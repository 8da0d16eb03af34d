import os
import subprocess
import sys
from pathlib import Path

import pytest

import echochain
import echochain.chain as chain_module
import echochain.sweep as sweep_module
import echochain.symmetry as symmetry_module
from echochain.chain import ChainParams, Coupling, FloquetPair, build_floquet_pair
from echochain.cli import main
from echochain.linalg import unitary_eig
from echochain.symmetry import orbit_blocks

SMALL = """
n_qubits = 4
b_perp = 0.3
b_par = 1.4
epsilon = 0.1
coupling = VJ
t_cut = 50
theta_min = 1.0
theta_max = 1.0
phi_min = 2.0
phi_max = 2.0
"""


# Child interpreters import the package these tests import, also when only pytest's
# `pythonpath` setting put it on the path.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(echochain.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL + f"output_path = {tmp_path / 'out.csv'}\n", encoding="utf-8")
    return path


def test_sweep_command(small_config, tmp_path, capsys):
    assert main(["sweep", str(small_config)]) == 0
    out = tmp_path / "out.csv"
    assert out.exists()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("theta,phi,hemisphere,")
    assert len(lines) == 2
    assert "wrote 1 rows" in capsys.readouterr().out


def test_sweep_out_override(small_config, tmp_path):
    other = tmp_path / "other.csv"
    assert main(["sweep", str(small_config), "--out", str(other)]) == 0
    assert other.exists()


def test_series_command(small_config, tmp_path, capsys):
    out = tmp_path / "series.dat"
    code = main(["series", str(small_config), "--theta", "1.0", "--phi", "2.0",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 51
    assert lines[0].split() == ["0", "1", "0"]
    assert "wrote 51 samples" in capsys.readouterr().out


def test_saturate_command(small_config, tmp_path, capsys):
    out = tmp_path / "sat.csv"
    code = main(["saturate", str(small_config), "--theta", "1.0", "--phi", "2.0",
                 "--checkpoints", "10,20,40", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("t_cut,blp,")
    assert len(lines) == 4
    assert "wrote 3 checkpoints" in capsys.readouterr().out


def test_saturate_rejects_unsorted_checkpoints(small_config, capsys):
    code = main(["saturate", str(small_config), "--theta", "1.0", "--phi", "2.0",
                 "--checkpoints", "40,10"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_spectral_command(tmp_path, capsys):
    path = tmp_path / "spectral.cfg"
    path.write_text(
        "n_qubits = 8\nb_perp = 1.0\nb_par = 1.4\nepsilon = 0.0\ncoupling = VJ\n"
        f"output_path = {tmp_path / 'hist.txt'}\n",
        encoding="utf-8",
    )
    assert main(["spectral", str(path)]) == 0
    assert (tmp_path / "hist.txt").exists()
    out = capsys.readouterr().out
    assert "brody_q" in out
    assert "186 spacings" in out


def test_spectral_at_two_qubits_gives_the_brody_error(tmp_path, capsys):
    # N = 2 has no sector besides k = 0 and N/2, so no spacings at all.
    path = tmp_path / "spectral.cfg"
    path.write_text(
        "n_qubits = 2\nb_perp = 1.0\nb_par = 1.4\nepsilon = 0.0\ncoupling = VJ\n"
        f"output_path = {tmp_path / 'hist.txt'}\n",
        encoding="utf-8",
    )
    assert main(["spectral", str(path)]) == 1
    assert capsys.readouterr().err == "error: need at least 50 spacings, got 0\n"
    assert not (tmp_path / "hist.txt").exists()


VGUE_SPECTRAL = "n_qubits = 6\nb_perp = 1.0\nb_par = 1.4\nepsilon = 0.1\ncoupling = VGUE\nseed = 3\n"


def test_spectral_of_vgue_gives_one_error_line(tmp_path, capsys):
    # VGUE's U+ is a dense matrix with no translation symmetry: refused before any sector.
    path = tmp_path / "spectral.cfg"
    path.write_text(VGUE_SPECTRAL + f"output_path = {tmp_path / 'hist.txt'}\n", encoding="utf-8")
    assert main(["spectral", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the operator breaks translation symmetry")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "hist.txt").exists()


def test_spectral_refuses_vgue_before_the_draw(tmp_path, capsys, monkeypatch):
    # The refusal needs only the config: no GUE draw and no dense exponentials first.
    def no_draw(*args):
        raise AssertionError("sample_gue was called")

    monkeypatch.setattr(chain_module, "sample_gue", no_draw)
    path = tmp_path / "spectral.cfg"
    path.write_text(VGUE_SPECTRAL, encoding="utf-8")
    assert main(["spectral", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: the operator breaks translation symmetry")


@pytest.mark.parametrize("n_qubits", [16, 17])
def test_spectral_refuses_a_sector_over_the_cap_before_any_apply(
    n_qubits, tmp_path, capsys, monkeypatch
):
    # N = 17: 2^17 states over at most 17 translations exceed 17 x 4,096, refused before
    # the (2^17, 17) translation table; its sectors k != 0 would hold 7,710 orbits each.
    # N = 16 passes that rule, but its sector k = 2 holds 4,110 orbits: refused before the
    # 4,080-orbit sector k = 1 is built.
    applies, images, tables = [], [], []
    monkeypatch.setattr(symmetry_module, "apply_floquet", lambda *args: applies.append(args))
    monkeypatch.setattr(symmetry_module, "basis_images", lambda *args: images.append(args))
    permuted = symmetry_module._permuted_states
    monkeypatch.setattr(
        symmetry_module, "_permuted_states", lambda n, perms: tables.append(n) or permuted(n, perms)
    )
    path = tmp_path / "spectral.cfg"
    path.write_text(
        f"n_qubits = {n_qubits}\nb_perp = 1.0\nb_par = 1.4\nepsilon = 0.0\ncoupling = VJ\n"
        f"output_path = {tmp_path / 'hist.txt'}\n",
        encoding="utf-8",
    )
    assert main(["spectral", str(path)]) == 1
    assert capsys.readouterr().err == "error: dense assembly refused beyond dimension 4096\n"
    assert applies == [] and images == []
    assert 17 not in tables
    assert not (tmp_path / "hist.txt").exists()


def test_quarter_turn_phi_axis_sweeps_eight_points(small_config, capsys):
    text = small_config.read_text(encoding="utf-8")
    grid = "phi_min = 0.0\nphi_max = 6.283185307179586\nphi_step = 0.7853981633974483\n"
    text = text.replace("phi_min = 2.0\nphi_max = 2.0\n", grid)
    small_config.write_text(text, encoding="utf-8")
    assert main(["sweep", str(small_config)]) == 0
    assert "wrote 8 rows" in capsys.readouterr().out


@pytest.mark.parametrize(
    "axis, message",
    [
        ("theta_max = 4.0\ntheta_step = 0.5\n", "theta 3.5 outside [0, pi]"),
        ("theta_max = 0.5\n", "empty grid range"),
        # 1 + 1e-17 == 1: enumerating this axis would never end.
        (
            "theta_max = 3.0\ntheta_step = 1e-17\n",
            "grid of up to 2e+17 points, over the cap of 1048576",
        ),
        # Under the cap, a step below the rounding of the axis repeats its points.
        (
            "theta_max = 1.0\ntheta_step = 1e-17\n",
            "grid step 1e-17 is below the rounding of its axis values",
        ),
        (
            "theta_max = 1.0000000000000002\ntheta_step = 1e-17\n",
            "grid step 1e-17 is below the rounding of its axis values",
        ),
    ],
    ids=["theta_past_pi", "empty_theta", "step_below_rounding", "repeated_point", "repeated_points"],
)
def test_bad_grid_axis_fails_before_set_up(
    small_config, tmp_path, capsys, monkeypatch, axis, message
):
    def refuse(config, sample):
        raise AssertionError("the context was built for a config that cannot run")

    monkeypatch.setattr(sweep_module, "_prepare_context", refuse)
    text = small_config.read_text(encoding="utf-8").replace("theta_max = 1.0\n", axis)
    small_config.write_text(text, encoding="utf-8")
    assert main(["sweep", str(small_config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    code = main(["sweep", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL + "mystery = 1\n", encoding="utf-8")
    code = main(["sweep", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "mystery" in err


def test_module_entry_point(small_config, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "echochain", "sweep", str(small_config)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert "wrote 1 rows" in result.stdout
    assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "series", "saturate"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_field_gives_one_error_line(tmp_path, capsys, command, bad):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL.replace("b_perp = 0.3", f"b_perp = {bad}"), encoding="utf-8")
    extra = {
        "sweep": [],
        "series": ["--theta", "1.0", "--phi", "2.0"],
        "saturate": ["--theta", "1.0", "--phi", "2.0", "--checkpoints", "10,20"],
    }[command]
    out = tmp_path / "out.dat"
    assert main([command, str(path), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: bad value for b_perp")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "series"])
def test_overflowing_vgue_draw_gives_one_error_line(tmp_path, capsys, command):
    # epsilon = 1e308 sends eigh's eigenvalues of H_I + eps V to inf: refused before exp
    # would turn them into NaN with a RuntimeWarning.
    path = tmp_path / "gue.cfg"
    text = SMALL.replace("epsilon = 0.1", "epsilon = 1e308").replace("= VJ", "= VGUE")
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.dat"
    extra = ["--theta", "1.0", "--phi", "2.0"] if command == "series" else []
    assert main([command, str(path), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == "error: Hermitian matrix has non-finite eigenvalues\n"
    assert not out.exists()


BONDS_OVERFLOW = "error: Ising phases overflow: sum |J_i| of the bond strengths is not finite\n"
KICKS_OVERFLOW = "error: kick phases overflow: hypot(bx, bz) of a kick field is not finite\n"
HUGE_FIELDS = {"b_perp = 0.3": "b_perp = 1.7e308", "b_par = 1.4": "b_par = 1.7e308"}


@pytest.mark.parametrize(
    "edits, command, message",
    [
        ({"epsilon = 0.1": "epsilon = 1e308"}, "sweep", BONDS_OVERFLOW),
        ({"epsilon = 0.1": "epsilon = 1e308"}, "series", BONDS_OVERFLOW),
        ({"epsilon = 0.1": "epsilon = 1e308"}, "saturate", BONDS_OVERFLOW),
        ({"epsilon = 0.1": "epsilon = 1e308"}, "spectral", BONDS_OVERFLOW),
        ({"n_qubits = 4": "n_qubits = 2", "epsilon = 0.1": "epsilon = 1e308"}, "sweep",
         BONDS_OVERFLOW),
        ({"b_perp = 0.3": "b_perp = 1.7e308", "epsilon = 0.1": "epsilon = 1.7e308",
          "= VJ": "= VB"}, "series", KICKS_OVERFLOW),
        ({**HUGE_FIELDS, "= VJ": "= V0"}, "saturate", KICKS_OVERFLOW),
        ({**HUGE_FIELDS, "= VJ": "= VGUE"}, "sweep", KICKS_OVERFLOW),
    ],
    ids=["vj_sweep", "vj_series", "vj_saturate", "vj_spectral", "vj_two_qubits", "vb_kick",
         "v0_fields", "vgue_fields"],
)
def test_overflowing_phases_give_one_error_line(tmp_path, edits, command, message):
    # Finite inputs whose phase angles overflow: refused where the operator is made,
    # in a child process so that any RuntimeWarning would reach its stderr.
    text = SMALL
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "huge.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.dat"
    extra = {
        "series": ["--theta", "1.0", "--phi", "2.0"],
        "saturate": ["--theta", "1.0", "--phi", "2.0", "--checkpoints", "10,20"],
    }.get(command, [])
    result = subprocess.run(
        [sys.executable, "-m", "echochain", command, str(path), "--out", str(out), *extra],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", message)
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, message",
    [
        ("theta_min = 0.0\ntheta_max = 1e308\ntheta_step = 1e308\n",
         "theta 1e+308 outside [0, pi]"),
        ("theta_min = 1e308\ntheta_max = 1.7e308\ntheta_step = 1.7e308\n",
         "theta 1e+308 outside [0, pi]"),
    ],
    ids=["product", "sum"],
)
def test_overflowing_grid_axis_gives_one_error_line(tmp_path, axis, message):
    # Grid candidates past the largest float (lo + i * step) are refused by the range
    # check, in a child process so that any RuntimeWarning would reach its stderr.
    text = SMALL.replace("theta_min = 1.0\ntheta_max = 1.0\n", axis)
    path, out = tmp_path / "huge.cfg", tmp_path / "out.csv"
    path.write_text(text, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "echochain", "sweep", str(path), "--out", str(out)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_runtime_error_gives_one_error_line(small_config, capsys, monkeypatch):
    def broken(config):
        raise RuntimeError("row invariant nd_avg <= nd_max violated")

    monkeypatch.setattr("echochain.cli.run_sweep", broken)
    assert main(["sweep", str(small_config)]) == 1
    assert capsys.readouterr().err == "error: row invariant nd_avg <= nd_max violated\n"


def test_memory_error_gives_one_error_line(small_config, tmp_path, capsys, monkeypatch):
    def broken(config, spec):
        raise MemoryError("Unable to allocate 320. TiB for an array")

    monkeypatch.setattr("echochain.cli.run_series", broken)
    out = tmp_path / "f.dat"
    assert main(["series", str(small_config), "--theta", "1", "--phi", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 320. TiB for an array\n"
    assert not out.exists()


def test_cli_import_leaves_scipy_out():
    code = "import sys, echochain.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_exhausted_cayley_shifts_give_one_error_line(small_config, tmp_path, capsys, monkeypatch):
    # Place every shift exactly on an eigenphase of the orbit block the sweep diagonalises.
    op = build_floquet_pair(ChainParams(4, 0.3, 1.4, 0.1, Coupling.VJ)).plus
    phases = unitary_eig(orbit_blocks([op])[1][0]).values
    monkeypatch.setattr("echochain.linalg.CAYLEY_SHIFTS", tuple(phases))
    assert main(["sweep", str(small_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: none of the {len(phases)} Cayley shifts")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_non_unitary_vgue_plus_gives_one_error_line(small_config, tmp_path, capsys, monkeypatch):
    # VGUE's dense U+ has no orbit block and so no leak check: unitary_eig's residual
    # guard is the one unitarity check on its way to the IPR eigensystem.
    build = sweep_module.build_floquet_pair

    def scaled(params, rng=None):
        pair = build(params, rng)
        return FloquetPair(pair.plus * (1.0 + 1e-8), pair.minus)

    monkeypatch.setattr(sweep_module, "build_floquet_pair", scaled)
    small_config.write_text(small_config.read_text().replace("= VJ", "= VGUE"))
    assert main(["sweep", str(small_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix is not unitary: eigenpair residual")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["series", "run.cfg", "--phi", "2.0"], "the following arguments are required: --theta"),
        (["sweeps", "run.cfg"], "argument command: invalid choice: 'sweeps'"),
    ],
    ids=["missing_option", "unknown_subcommand"],
)
def test_usage_error_gives_one_error_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["series", "-h"])
    assert exit_info.value.code == 0
    assert "--theta" in capsys.readouterr().out
