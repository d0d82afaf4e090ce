"""Smoke runs of the scripts under scripts/."""

import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    # run_path with its default run_name does not execute the __main__ block
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]


def test_orbit_gallery(tmp_path):
    assert script_main("orbit_gallery")(["--out-dir", str(tmp_path), "--t-end", "0.5"]) == 0
    runs = json.loads((tmp_path / "summary.json").read_text())["runs"]
    assert len(runs) == 6
    for name, run in runs.items():
        assert (tmp_path / f"{name}.csv").exists()
        assert run["terminated_by"] == "t_end"
        assert run["frame_deviation"] <= 1e-6


def test_orbit_gallery_reads_the_cli_literal_form(tmp_path):
    # the gallery parses --z0/--p0 as every holomech command does
    argv = ["--out-dir", str(tmp_path), "--t-end", "0.5", "--z0=0.2+0.1i", "--p0=1"]
    assert script_main("orbit_gallery")(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["z0"] == [0.2, 0.1]
    assert summary["p0"] == [1.0, 0.0]


def test_orbit_gallery_writes_a_summary_beside_each_csv(tmp_path):
    # each potential is one `simulate --frame both` run: its JSON summary
    # sits beside its CSV and counts the CSV's data rows
    assert script_main("orbit_gallery")(["--out-dir", str(tmp_path), "--t-end", "0.5"]) == 0
    runs = json.loads((tmp_path / "summary.json").read_text())["runs"]
    for name, run in runs.items():
        rows = len((tmp_path / f"{name}.csv").read_text().splitlines()) - 1
        summary = json.loads((tmp_path / f"{name}.json").read_text())
        assert summary["frame"] == "both"
        assert summary["samples"] == run["samples"] == rows
        assert summary["max_frame_deviation"] == run["frame_deviation"]


@pytest.mark.parametrize("z0", ["nan", "1.5e308"])
def test_orbit_gallery_rejects_a_start_in_one_line(z0, tmp_path, capsys):
    # the CLI's start check: exit 1 and its one-line message, no traceback
    argv = ["--out-dir", str(tmp_path), "--t-end", "0.5", f"--z0={z0}"]
    assert script_main("orbit_gallery")(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Darboux image" in err, err
    assert "Traceback" not in err
    assert list(tmp_path.glob("*.csv")) == []


def test_symplectic_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    assert script_main("symplectic_sweep")(["--trials", "5", "--out", str(out)]) == 0
    stats = json.loads(out.read_text())["stats"]
    assert stats["canonicity"]["max"] <= 1e-10
    assert stats["momentum_equation"]["max"] <= 1e-10


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_symplectic_sweep_rejects_trials_below_one(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        script_main("symplectic_sweep")(["--trials", trials])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_symplectic_sweep_fails_on_nan_residuals(tmp_path, capsys):
    # p / m overflows at this mass: the equation residuals are NaN, which
    # no limit admits, as in verify-symplectic
    out = tmp_path / "sweep.json"
    argv = ["--trials", "3", "--mass", "1e-320", "--out", str(out)]
    assert script_main("symplectic_sweep")(argv) == 2
    captured = capsys.readouterr()
    assert "position_equation" in captured.out
    assert captured.err == "3/3 trials have a residual outside RESIDUAL_LIMITS\n"
    assert json.loads(out.read_text())["stats"]["momentum_equation"]["max"] is None


def test_symplectic_sweep_defaults_are_verify_symplectic(tmp_path, monkeypatch):
    # potential and mass as `holomech verify-symplectic` parses them; the seed
    # is the CLI's default, whatever $HOLOMECH_SEED says
    from holomech.cli import DEFAULT_SEED, SEED_ENV_VAR, build_parser

    monkeypatch.setenv(SEED_ENV_VAR, str(DEFAULT_SEED + 1))
    out = tmp_path / "sweep.json"
    assert script_main("symplectic_sweep")(["--trials", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    cli = build_parser().parse_args(["verify-symplectic"])
    assert (report["potential"], report["mass"], report["seed"]) == (
        cli.potential, cli.mass, DEFAULT_SEED)
