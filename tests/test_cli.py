"""Command-line surface: exit codes, file outputs, reproducibility."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import holomech
from holomech.cli import main, parse_complex
from holomech.output import TRAJECTORY_HEADER, trajectory_csv


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


class TestComplexLiterals:
    def test_full_form(self):
        assert parse_complex("1.0+0.5i") == 1.0 + 0.5j

    def test_bare_real(self):
        assert parse_complex("2.5") == 2.5 + 0j

    def test_negative_imaginary(self):
        assert parse_complex("-1.5-2i") == -1.5 - 2j

    def test_pure_imaginary(self):
        assert parse_complex("2i") == 2j

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("nope")


class TestSimulate:
    def test_harmonic_period(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["simulate", "--potential", "z^2", "--z0", "1", "--p0", "0",
                    "--t-end", "3.14159265", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        # final row returns to the initial condition (period pi)
        assert abs(rows[-1, 1] - 1.0) <= 1e-6  # x
        assert abs(rows[-1, 3]) <= 1e-6        # p
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["terminated_by"] == "t_end"

    def test_both_frames_drift_and_deviation(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["simulate", "--potential", "i*z^3", "--mass", "0.5",
                    "--z0", "0", "--p0", "1", "--t-end", "5", "--frame", "both",
                    "--out", str(out)])
        assert code == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["drift_Hr"] <= 1e-8
        assert summary["drift_Hi"] <= 1e-8
        assert summary["max_frame_deviation"] <= 1e-6
        rows = read_csv(out)
        assert rows.shape[1] == 11
        # darboux columns are the mapped complex columns on the shared grid
        assert np.allclose(rows[:, 5], math.sqrt(2) * rows[:, 1], atol=1e-5)

    def test_unsupported_potential_exit_1(self, tmp_path, capsys):
        code = run(["simulate", "--potential", "sqrt(z)",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "entire" in capsys.readouterr().err

    def test_overflowing_literal_exit_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["simulate", "--potential", "1e400*z", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "potential error" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_step_failure_exit_2(self, tmp_path):
        code = run(["simulate", "--potential=-(z^4)", "--z0", "3",
                    "--t-end", "10", "--escape-radius", "1e300",
                    "--out", str(tmp_path / "b.csv")])
        assert code == 2

    def test_escape_exit_0(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run(["simulate", "--potential=-(z^4)", "--z0", "3",
                    "--t-end", "10", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["terminated_by"] == "escape"

    def test_both_frames_with_early_escape(self, tmp_path):
        # the two frames escape at slightly different times: no common grid,
        # reported rather than raised, and still a successful run
        out = tmp_path / "esc.csv"
        code = run(["simulate", "--potential=-(z^4)", "--z0", "3",
                    "--t-end", "10", "--frame", "both", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["terminated_by"] == "escape"
        assert summary["frames_equivalent"] is False
        assert summary["max_frame_deviation"] is None
        assert "grid_mismatch" in summary

    def test_overflowing_invariants_warn_nothing(self, tmp_path):
        # the last sample of this escaping run overflows v and p^2: its H
        # columns are NaN, and the array evaluation says nothing on stderr
        out = tmp_path / "esc.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(holomech.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "holomech.cli", "simulate", "--potential", "z^3",
             "--z0", "3", "--method", "split", "--dt", "0.01", "--t-end", "10",
             "--escape-radius", "1e120", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["terminated_by"] == "escape"
        assert np.isnan(read_csv(out)[-1, 9:]).all()

    def test_darboux_frame_with_xi0(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run(["simulate", "--potential", "z^2", "--frame", "darboux",
                    "--xi0", "1.4142135623730951,0,0,0", "--t-end", "1",
                    "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert abs(rows[0, 5] - math.sqrt(2)) < 1e-15

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        code = run(["simulate", "--potential", "z^2", "--rel-tol", "0.5",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--potential", "i*z^3", "--z0", "0.1+0.2i",
                "--p0", "1", "--t-end", "2", "--frame", "both"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        a_json = a.with_suffix(".json").read_text()
        b_json = b.with_suffix(".json").read_text()
        assert a_json.replace("a.csv", "") == b_json.replace("b.csv", "")

    def test_stray_temp_directory_does_not_block_write(self, tmp_path):
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.tmp").mkdir()
        code = run(["simulate", "--potential", "z^2", "--t-end", "1",
                    "--out", str(out)])
        assert code == 0
        assert read_csv(out).shape[1] == 11
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.csv", "out.csv.tmp", "out.json"]


class TestTrajectoryCsv:
    @staticmethod
    def per_cell(t, w_rows, xi_rows, hr, hi):
        """The renderer as it stood before the one-pass table, as oracle."""
        lines = [TRAJECTORY_HEADER]
        for k in range(len(t)):
            w, xi = w_rows[k], xi_rows[k]
            cells = (t[k], w[0], w[2], w[1], w[3], xi[0], xi[1], xi[2], xi[3], hr[k], hi[k])
            lines.append(",".join(f"{float(c):.17g}" for c in cells))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n", [1, 2, 257])
    def test_matches_per_cell_rendering(self, n):
        rng = np.random.default_rng(n)
        cols = rng.standard_normal((11, n)) * 10.0 ** rng.integers(-300, 300, (11, n))
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324, 0.1]
        cols.ravel()[:len(specials)] = specials[:cols.size]
        t, w, xi, hr, hi = cols[0], cols[1:5].T, cols[5:9].T, cols[9], cols[10]
        assert trajectory_csv(t, w, xi, hr, hi) == self.per_cell(t, w, xi, hr, hi)


class TestVerifyTable1:
    def test_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify-table1", "--seed", "42", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_pass"] == 10
        flagged = {(r["potential"], r["column"]) for r in report["rows"]
                   if r["status"] == "DISCREPANT"}
        assert flagged == {("iz", "h"), ("neg_z4", "Hi")}
        assert report["seed"] == 42

    def test_stdout_default(self, capsys):
        assert run(["verify-table1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["n_discrepant"] == 2

    def test_points_must_be_positive(self, capsys):
        assert run(["verify-table1", "--points=0"]) == 1
        assert "positive integer" in capsys.readouterr().err


class TestVerifySymplectic:
    def test_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "vs.json"
        code = run(["verify-symplectic", "--random", "25", "--seed", "42",
                    "--out", str(out)])
        assert code == 0
        assert "25/25 PASS" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["passed"] and report["n_pass"] == 25
        assert report["worst_residuals"]["canonicity"] <= 1e-10

    def test_seed_reproducibility(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["verify-symplectic", "--random", "10", "--seed", "7", "--out", str(a)])
        run(["verify-symplectic", "--random", "10", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_random_must_be_positive(self, capsys):
        assert run(["verify-symplectic", "--random=-1"]) == 1
        captured = capsys.readouterr()
        assert "positive integer" in captured.err and "PASS" not in captured.out


class TestDarboux:
    def test_zero_params(self, capsys):
        code = run(["darboux", "--a", "0", "--b", "0", "--alpha", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "r_plus  = 0.5" in out
        assert "PASS" in out

    def test_degenerate_exit_3(self, capsys):
        code = run(["darboux", "--a", "0", "--b", "0", "--alpha", "1"])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_generic_params_pass(self, capsys):
        code = run(["darboux", "--a", "1.2", "--b", "-0.4", "--alpha", "0.3+0.2i"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--a", "1e200", "--b", "1e200"],
        ["--a", "nan"],
        ["--alpha", "nan+0j"],
        ["--a", "inf"],
        ["--alpha", "1e200+0j"],
    ])
    def test_non_finite_structure_exit_1(self, argv, capsys):
        # parameters, or eigen-magnitudes, out of float range: a usage error
        # with one line, not a traceback, a warning or a degenerate verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["darboux", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("holomech: error:") and "finite" in captured.err


class TestHiFlow:
    def test_flow_output(self, tmp_path):
        out = tmp_path / "flow.csv"
        code = run(["hi-flow", "--potential", "i*z^3", "--xi0", "0.4,0.3,-0.2,0.5",
                    "--eps-end", "1.0", "--d-eps", "0.001", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["drift_Hr"] <= 1e-8
        assert summary["drift_Hi"] <= 1e-8
        rows = read_csv(out)
        assert rows[-1, 0] == pytest.approx(1.0)

    def test_backwards_flow_starts_at_zero(self, tmp_path):
        out = tmp_path / "back.csv"
        code = run(["hi-flow", "--potential", "i*z^3", "--xi0", "0.4,0.3,-0.2,0.5",
                    "--eps-end=-0.05", "--d-eps", "0.01", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "0"
        assert read_csv(out)[-1, 0] == pytest.approx(-0.05)


class TestConstrain:
    def test_solved(self, capsys):
        code = run(["constrain", "--potential", "i*z", "--x1", "1.4142135623730951",
                    "--p1", "1", "--p2", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "solved"
        assert report["x2"] == pytest.approx(-1.0, abs=1e-12)
        assert abs(report["hi_residual"]) <= 1e-12

    def test_unsolvable_exit_2(self, capsys):
        code = run(["constrain", "--potential", "i*z", "--x1", "1",
                    "--p1", "0", "--p2", "0"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["status"] == "unsolvable"

    def test_any_value(self, capsys):
        code = run(["constrain", "--potential", "z^2", "--x1", "0",
                    "--p1", "0", "--p2", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "any"

    @pytest.mark.parametrize("potential, x1", [("exp(z)", "1e4"), ("sin(z*z*z*z*z)", "1e70")])
    def test_overflowing_potential_exit_1(self, potential, x1, capsys):
        # exp overflows; sin of an infinite argument is a cmath domain error
        code = run(["constrain", "--potential", potential, "--x1", x1,
                    "--p1", "1", "--p2", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("holomech: potential error: overflow")
        assert len(captured.err.strip().splitlines()) == 1


class TestUsage:
    @pytest.mark.parametrize("command", ["simulate", "hi-flow"])
    def test_out_equal_to_summary_path_exit_1(self, command, tmp_path, capsys):
        # traj.json would be overwritten by its own JSON summary
        out = tmp_path / "traj.json"
        code = run([command, "--potential", "z^2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert "summary" in captured.err and captured.out == ""
        assert not out.exists()

    def test_missing_required_exit_1(self, capsys):
        assert run(["simulate"]) == 1

    def test_unknown_command_exit_1(self, capsys):
        assert run(["frobnicate"]) == 1


class TestSeedEnvironment:
    def test_env_var_overrides_default(self, monkeypatch, capsys):
        from holomech.cli import SEED_ENV_VAR

        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        assert run(["verify-table1"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 1234

    def test_invalid_env_var_falls_back(self, monkeypatch, capsys):
        from holomech.cli import SEED_ENV_VAR

        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert run(["verify-table1"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 42
