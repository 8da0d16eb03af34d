import subprocess
import sys

import pytest

from echochain.cli import main

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


def test_runtime_error_gives_one_error_line(small_config, capsys, monkeypatch):
    def broken(config):
        raise RuntimeError("row identity rhp == ng_max violated")

    monkeypatch.setattr("echochain.cli.run_sweep", broken)
    assert main(["sweep", str(small_config)]) == 1
    assert capsys.readouterr().err == "error: row identity rhp == ng_max violated\n"


def test_memory_error_gives_one_error_line(small_config, tmp_path, capsys, monkeypatch):
    def broken(config, spec):
        raise MemoryError("Unable to allocate 320. TiB for an array")

    monkeypatch.setattr("echochain.cli.run_series", broken)
    out = tmp_path / "f.dat"
    assert main(["series", str(small_config), "--theta", "1", "--phi", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 320. TiB for an array\n"
    assert not out.exists()
