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


@pytest.mark.parametrize("blocker", ["f", "summary.json", "z2.csv", "iz3.json"])
def test_orbit_gallery_refuses_an_out_dir_before_any_run(blocker, tmp_path, capsys):
    # --out-dir is a file, or an output in it is a directory: one line and
    # exit 1, with no run started
    if blocker == "f":
        out_dir = tmp_path / "f"
        out_dir.write_text("")
    else:
        out_dir = tmp_path
        (out_dir / blocker).mkdir()
    assert script_main("orbit_gallery")(["--out-dir", str(out_dir), "--t-end", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert [path for path in tmp_path.iterdir() if path.is_file() and path != out_dir] == []


def test_orbit_gallery_exits_2_on_a_numerical_failure(tmp_path):
    # exp(i z) and i sin(z) overflow at this start; every run and the
    # summary are still written
    argv = ["--out-dir", str(tmp_path), "--t-end", "1", "--z0=0-800i", "--p0=1"]
    assert script_main("orbit_gallery")(argv) == 2
    runs = json.loads((tmp_path / "summary.json").read_text())["runs"]
    assert len(runs) == 6 and len(list(tmp_path.glob("*.csv"))) == 6
    failed = {name for name, run in runs.items() if run["terminated_by"] == "step_failure"}
    assert failed == {"exp_iz", "i_sin_z"}
