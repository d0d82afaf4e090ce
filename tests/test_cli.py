"""Command-line surface: exit codes, file outputs, reproducibility."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holomech
from holomech import closed_forms
from holomech import (BUILTIN_SOURCES, FlowConfig, IntegratorConfig, SystemSpec, get_builtin,
                      output)
from holomech.cli import DEFAULT_SEED, build_parser, main, parse_complex
from holomech.output import TRAJECTORY_HEADER
from holomech.symplectic import RESIDUAL_LIMITS, structure_trials


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

    @pytest.mark.parametrize("text, value", [
        ("inf+0.1i", complex(math.inf, 0.1)),
        ("1+infi", complex(1.0, math.inf)),
        ("-infinity-2i", complex(-math.inf, -2.0)),
        # as the structure check prints it (tests/test_symplectic.py)
        ("0.1+infi", complex(0.1, math.inf)),
        ("-INFI", complex(0.0, -math.inf)),
        ("(1+2i)", 1 + 2j),
        ("(I)", 1j),
    ])
    def test_infinite_parts(self, text, value):
        # only the trailing unit is Python's j: the i of inf stays an i
        assert parse_complex(text) == value

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--potential=z^2", "--z0=inf+0.1i"],
         "initial data z0=inf+0.1i, p0=0.0+0.0i has no finite Darboux image"),
        (["hi-flow", "--potential=z^2", "--p0=1+infi"],
         "initial data z0=0.0+0.0i, p0=1.0+infi has no finite Darboux image"),
        (["darboux", "--alpha=-infinity-2i"],
         "structure parameters must be finite: a=0 b=0 alpha=-inf-2i"),
    ])
    def test_infinite_parts_reach_the_command(self, argv, message, tmp_path, capsys):
        out = [f"--out={tmp_path / 'run.csv'}"] if argv[0] != "darboux" else []
        assert run([*argv, *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"holomech: error: {message}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, position", [
    (["simulate", "--potential=exp(1000)", "--z0=0.1", "--p0=1", "--t-end=0.1"], 0),
    (["hi-flow", "--potential=cosh(800)*z^2"], 0),
    (["constrain", "--potential=exp(1000)", "--x1=1", "--p1=1", "--p2=0"], 0),
    (["verify-symplectic", "--potential=z/exp(10000)", "--random=3"], 2),
])
def test_overflowing_constant_call_exit_1_one_line(argv, position, tmp_path, capsys):
    # the constant folds when the potential is read: no run, no file
    ext = ".csv" if argv[0] in ("simulate", "hi-flow") else ".json"
    assert run([*argv, f"--out={tmp_path / ('run' + ext)}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("holomech: potential error: constant ")
    assert captured.err.endswith(f" overflows double precision (at position {position})\n")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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

    def test_fixed_grid_ends_on_t_end(self, tmp_path):
        # 0.07 / 0.01 is 7.000000000000001 in floats: the grid takes 7 steps,
        # not 8, and its last sample is t_end itself
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--potential=z^2", "--method=rk4", "--dt=0.01",
                    "--t-end=0.07", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows.shape[0] == 8 and rows[-1, 0] == 0.07
        assert json.loads(out.with_suffix(".json").read_text())["samples"] == 8

    @pytest.mark.parametrize("method", ["rk4", "split"])
    def test_step_longer_than_span_is_one_step(self, method, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--potential=z^2", "--z0=0.1", "--p0=0.2+0.1i",
                    f"--method={method}", "--dt=0.1", "--t-end=0.05", "--out", str(out)]) == 0
        assert read_csv(out)[:, 0].tolist() == [0.0, 0.05]
        assert json.loads(out.with_suffix(".json").read_text())["samples"] == 2

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

    @pytest.mark.parametrize("potential", ["sin(1e400)", "z^\u00b2"])
    def test_rejected_literal_exit_1_one_line(self, potential, tmp_path, capsys):
        code = run(["simulate", "--potential", potential,
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("holomech: potential error:")
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_step_failure_exit_2(self, tmp_path):
        code = run(["simulate", "--potential=-(z^4)", "--z0", "3",
                    "--t-end", "10", "--escape-radius", "1e300",
                    "--out", str(tmp_path / "b.csv")])
        assert code == 2

    def test_rk45_step_limit_exit_2(self, tmp_path, lower_step_cap):
        # an rk45 run stops at the cap on accepted steps, and still writes
        # its samples and summary
        lower_step_cap(50)
        out = tmp_path / "cap.csv"
        code = run(["simulate", "--method", "rk45", "--potential", "z^2", "--z0", "1",
                    "--t-end", "1000", "--out", str(out)])
        assert code == 2
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["terminated_by"] == "step_limit"
        assert summary["n_steps"] == 50
        assert summary["samples"] == len(read_csv(out)) == 51

    def test_run_leaves_numpy_ma_unloaded(self, tmp_path):
        # the cross-frame grid of an rk45 --frame both run sorts its times
        # without the numpy set routines, whose first call imports numpy.ma;
        # compared with the state after import, so that a numpy which loads
        # numpy.ma eagerly passes
        code = """if True:
            import sys
            import holomech.cli
            before = "numpy.ma" in sys.modules
            code = holomech.cli.main(["simulate", "--potential", "i*sin(z)",
                                      "--z0", "0.2+0.1i", "--p0", "1", "--frame", "both",
                                      "--t-end", "1", "--out", sys.argv[1]])
            print(code, before, "numpy.ma" in sys.modules)
            """
        env = {**os.environ, "PYTHONPATH": str(Path(holomech.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "both.csv")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        exit_code, before, after = proc.stdout.split()[-3:]
        assert exit_code == "0"
        assert after == before

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

    @pytest.mark.parametrize("argv", [
        ["--potential=i*z^3", "--z0=0.3+0.2i", "--p0=0.5-0.1i", "--method=rk4", "--dt=0.01",
         "--t-end=1"],
        ["--potential=i*sin(z)", "--z0=0.2+0.1i", "--p0=1", "--t-end=1"],
        ["--potential=-(z^4)", "--z0=3", "--t-end=10"],
    ])
    def test_both_frames_rows_end_where_both_runs_end(self, argv, tmp_path):
        # the CSV holds the complex run's times up to the earlier of the two
        # runs' last times, that one included
        out = tmp_path / "both.csv"
        assert run(["simulate", *argv, "--frame=both", f"--out={out}"]) == 0
        args = holomech.cli.build_parser().parse_args(["simulate", *argv])
        spec = holomech.SystemSpec.from_source(args.potential, args.mass)
        cfg = holomech.IntegratorConfig(method=args.method, dt=args.dt, t_end=args.t_end)
        tc = holomech.integrate_complex(spec, args.z0, args.p0, cfg).t
        td = holomech.integrate_darboux(
            spec, holomech.w_to_darboux([args.z0.real, args.p0.real, args.z0.imag,
                                         args.p0.imag]), cfg).t
        assert np.array_equal(read_csv(out)[:, 0], tc[tc <= min(tc[-1], td[-1])])

    @pytest.mark.parametrize("method", ["rk4", "split"])
    @pytest.mark.parametrize("potential, z0, p0", [
        ("i*z", "-0", "-0"),
        ("z^2", "0.5-0i", "-0+0.25i"),
        ("i*z^3", "-0", "-0"),
        ("-(z^4)", "0.5-0i", "-0+0.25i"),
        ("i*sin(z)", "0.2+0.1i", "1"),
        ("exp(i*z)", "-0+0.3i", "0.4-0i"),
    ])
    def test_both_frames_darboux_columns_are_the_darboux_run(self, potential, z0, p0, method,
                                                            tmp_path):
        # both fixed-step frames share one grid, so the Darboux columns of a
        # --frame both run are its Darboux run's samples, signed zeros included
        def darboux_cells(frame):
            out = tmp_path / f"{frame}.csv"
            assert run(["simulate", f"--potential={potential}", f"--z0={z0}", f"--p0={p0}",
                        f"--method={method}", "--dt=0.01", "--t-end=1", f"--frame={frame}",
                        f"--out={out}"]) == 0
            return [line.split(",")[5:9] for line in out.read_text().splitlines()]

        assert darboux_cells("both") == darboux_cells("darboux")

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

    @pytest.mark.parametrize("argv, code, drifts", [
        # p0 = 1e200 overflows H_r at the only sample: the run escapes
        (["simulate", "--potential=z^2", "--p0=1e200"], 0, ("drift_Hr",)),
        # v = exp(800) overflows: the flow fails at its first step
        (["hi-flow", "--potential=exp(z)", "--z0=800"], 2, ("drift_Hr", "drift_Hi")),
        # an infinite escape radius is echoed in the summary as null
        (["simulate", "--potential=z^2", "--z0=1", "--method=rk4", "--t-end=0.01",
          "--escape-radius=inf"], 0, ()),
    ])
    def test_non_finite_drift_is_null(self, argv, code, drifts, tmp_path, capsys):
        out = tmp_path / "nf.csv"
        assert run([*argv, f"--out={out}"]) == code
        text = out.with_suffix(".json").read_text()
        summary = json.loads(text, parse_constant=lambda c: pytest.fail(c))
        for key in ("drift_Hr", "drift_Hi"):
            assert (summary[key] is None) == (key in drifts)


def csv_text(t, w_rows, xi_rows, hr, hi):
    """The CSV text of the samples, as the writer's blocks join up."""
    return b"".join(output._csv_blocks(t, w_rows, xi_rows, hr, hi)).decode()


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
    def test_matches_per_cell_rendering(self, n, tmp_path):
        rng = np.random.default_rng(n)
        cols = rng.standard_normal((11, n)) * 10.0 ** rng.integers(-300, 300, (11, n))
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324, 0.1]
        cols.ravel()[:len(specials)] = specials[:cols.size]
        t, w, xi, hr, hi = cols[0], cols[1:5].T, cols[5:9].T, cols[9], cols[10]
        path = tmp_path / "t.csv"
        output.trajectory_csv(path, t, w, xi, hr, hi)
        assert path.read_bytes() == self.per_cell(t, w, xi, hr, hi).encode()

    @classmethod
    def assert_renders(cls, cells):
        """Cells laid out row by row (the last row padded with 1.0) render as
        the per-cell oracle renders them."""
        cells = np.asarray(cells, dtype=float).ravel()
        table = np.ones((-(-cells.size // 11), 11))
        table.ravel()[:cells.size] = cells
        t, w, xi, hr, hi = table[:, 0], table[:, 1:5], table[:, 5:9], table[:, 9], table[:, 10]
        assert csv_text(t, w, xi, hr, hi) == cls.per_cell(t, w, xi, hr, hi)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=44))
    def test_any_float(self, cells):
        self.assert_renders(cells)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=44))
    def test_any_bit_pattern(self, bits):
        self.assert_renders(np.array(bits, dtype=np.uint64).view(np.float64))

    @staticmethod
    def ties():
        """Doubles exactly half-way between two 17-digit decimals, two per
        fixed-notation exponent X = -4 .. 15: odd multiples of 2**-(k + 1)
        in [10**X, 10**(X + 1)) with k = 16 - X."""
        out = []
        for X in range(-4, 16):
            k = 16 - X
            base = 2 * int(Fraction(10) ** X * 2**k) + 1
            for odd in (base + 2, base + 2 * (base // 10)):
                x = Fraction(odd, 2 ** (k + 1))
                assert 10 ** Fraction(X) <= x < 10 ** Fraction(X + 1)
                assert (x * 10**k).denominator == 2  # a tie at 17 digits
                assert Fraction(float(x)) == x
                out.append(float(x))
        return out

    def boundary_cells(self):
        powers = [float(f"1e{k}") for k in range(-5, 18)]
        cells = []
        # zero digit groups inside the 17 digits, before and after the point
        inner = [1234.03125, 1.00390625, 10002.5, 12300004.0, 0.000100390625]
        for v in powers + [0.1, 9.9999999999999995, 99999999999999984.0] + inner + self.ties():
            cells += [v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
        cells += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  math.inf, math.nan]
        return cells + [-c for c in cells]

    def test_boundaries(self):
        # no 17-digit rounding carries a fixed-notation cell to the next
        # power of ten: the doubles nearest the inexact powers lie above them
        for k in range(-4, 0):
            assert Fraction(float(f"1e{k}")) > Fraction(10) ** k
        self.assert_renders(self.boundary_cells())

    def test_boundaries_one_row_each(self):
        for c in self.boundary_cells():
            self.assert_renders([c] * 11)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_block_edges(self, blocks, extra):
        n = blocks * output._BLOCK_ROWS + extra
        rng = np.random.default_rng(n)
        cells = rng.standard_normal(11 * n) * 10.0 ** rng.integers(-8, 20, 11 * n)
        cells[::97] = 0.0
        self.assert_renders(cells)

    def test_memory_stays_bounded(self):
        # 10**5 rows, each block dropped once counted: about one block's
        # buffers; one %-format pass over a tuple of every cell needs about
        # 3.4x the text
        n = 10**5
        rng = np.random.default_rng(0)
        t, w, xi = np.linspace(0.0, 100.0, n), rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
        hr, hi = rng.standard_normal(n), rng.standard_normal(n) * 1e-12
        tracemalloc.start()
        try:
            lines = sum(block.count(b"\n") for block in output._csv_blocks(t, w, xi, hr, hi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == n + 1
        assert peak < 4_000_000, peak


class TestWriteTrajectoryCsv:
    """The CSV streamed into its atomic temp file, block by block."""

    @staticmethod
    def columns(n, seed=0):
        rng = np.random.default_rng(seed)
        t, w, xi = np.linspace(0.0, 100.0, n), rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
        return t, w, xi, rng.standard_normal(n), rng.standard_normal(n) * 1e-12

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_memory_stays_flat(self, n, tmp_path):
        # about one block's buffers, whatever the row count; building the
        # text first held about three copies of it (about 45 MB at 10**5 rows)
        cols = self.columns(n)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            output.trajectory_csv(path, *cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes().count(b"\n") == n + 1
        assert peak < 4_000_000, peak

    @pytest.mark.parametrize("n", [0, 1, output._BLOCK_ROWS - 1, output._BLOCK_ROWS,
                                   output._BLOCK_ROWS + 1, 2 * output._BLOCK_ROWS + 1])
    def test_file_is_the_text(self, n, tmp_path):
        t, w, xi, hr, hi = self.columns(n, seed=n)
        specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-309, math.nan, math.inf,
                    -math.inf, 1e16, 1e-5]
        k = min(len(specials), w.size)
        w.ravel()[:k] = specials[:k]
        xi.ravel()[:k] = specials[::-1][:k]
        path = tmp_path / "t.csv"
        # None: the benchmark's tracer reads a patched writer's return value as text
        assert output.trajectory_csv(path, t, w, xi, hr, hi) is None
        assert path.read_bytes() == TestTrajectoryCsv.per_cell(t, w, xi, hr, hi).encode()
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_failed_block_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")
        real, blocks = output._csv_block, []

        def second_fails(table):
            blocks.append(1)
            if len(blocks) == 2:
                raise MemoryError("block 2")
            return real(table)

        monkeypatch.setattr(output, "_csv_block", second_fails)
        with pytest.raises(MemoryError, match="block 2"):
            output.trajectory_csv(path, *self.columns(2 * output._BLOCK_ROWS + 1))
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.glob("*.tmp")) == []
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestRunWriter:
    """``simulate`` and ``hi-flow`` write through one run writer."""

    RUNS = {
        "complex": ["simulate", "--frame=complex", "--method=rk4", "--dt=0.01", "--t-end=0.5"],
        "darboux": ["simulate", "--frame=darboux", "--method=rk4", "--dt=0.01", "--t-end=0.5"],
        "both": ["simulate", "--frame=both", "--method=rk4", "--dt=0.01", "--t-end=0.5"],
        "hi-flow": ["hi-flow", "--d-eps=0.01", "--eps-end=0.5"],
    }
    SHARED = {"command", "potential", "mass", "seed", "drift_Hr", "drift_Hi",
              "terminated_by", "n_steps", "n_rhs", "n_rejected", "samples"}

    def write(self, name, tmp_path):
        out = tmp_path / f"{name}.csv"
        assert run([*self.RUNS[name], "--potential=i*z^3", "--z0=0.3+0.2i",
                    "--p0=0.5-0.1i", f"--out={out}"]) == 0
        return out

    @pytest.mark.parametrize("name", list(RUNS))
    def test_one_csv_two_writes(self, name, tmp_path, monkeypatch):
        # the benchmark's tracer counts these names on the cli module
        import holomech.cli as cli

        calls = []
        for fn_name in ("trajectory_csv", "write_text_atomic"):
            fn = getattr(cli, fn_name)
            monkeypatch.setattr(cli, fn_name, lambda *a, _fn=fn, _name=fn_name:
                                calls.append(_name) or _fn(*a))
        self.write(name, tmp_path)
        # the CSV streamed to its file, then the summary
        assert calls == ["trajectory_csv", "write_text_atomic"]

    @pytest.mark.parametrize("name", list(RUNS))
    def test_shared_run_fields(self, name, tmp_path, capsys):
        out = self.write(name, tmp_path)
        summary = json.loads(out.with_suffix(".json").read_text())
        assert self.SHARED <= summary.keys()
        assert summary["command"] == self.RUNS[name][0]
        assert summary["potential"] == "i*z^3" and summary["seed"] == DEFAULT_SEED
        assert summary["terminated_by"] == "t_end"
        assert summary["samples"] == len(read_csv(out))
        assert capsys.readouterr().out.startswith(f"wrote {out} ({summary['samples']} samples)")

    @pytest.mark.parametrize("command", [["simulate", "--method=rk4"], ["hi-flow"]])
    def test_failed_run_line_names_its_ending(self, command, tmp_path, capsys):
        # v' = exp(800) overflows at the start: both commands say so, not
        # only in the summary and the exit code
        out = tmp_path / "fail.csv"
        assert run([*command, "--potential=exp(z)", "--z0=800", f"--out={out}"]) == 2
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["terminated_by"] == "step_failure"
        assert capsys.readouterr().out.startswith(
            f"wrote {out} (1 samples), terminated by step_failure; drift ")


    @pytest.mark.parametrize("argv, rhs_per_step", [
        (["simulate", "--frame=complex", "--method=rk4", "--dt=0.01", "--t-end=0.5"], 4),
        (["simulate", "--frame=both", "--method=rk4", "--dt=0.01", "--t-end=0.5"], 4),
        (["hi-flow", "--d-eps=0.01", "--eps-end=0.5"], 4),
        (["simulate", "--frame=complex", "--method=rk45", "--t-end=3"], 6),
        (["simulate", "--frame=darboux", "--method=rk45", "--t-end=3"], 6),
    ])
    def test_field_evaluation_counts(self, argv, rhs_per_step, tmp_path):
        # rk4: 1 + 4 n_steps; rk45 (FSAL): 1 + 6 per attempted step
        out = tmp_path / "run.csv"
        assert run([*argv, "--potential=i*z^3", "--z0=0.3+0.2i", "--p0=0.5-0.1i",
                    f"--out={out}"]) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        attempted = summary["n_steps"] + summary["n_rejected"]
        assert summary["n_steps"] > 0
        assert summary["n_rhs"] == 1 + rhs_per_step * attempted
        if rhs_per_step == 4:
            assert summary["n_rejected"] == 0


class TestWriteTextAtomic:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_umask_without_setting_it(self, umask, tmp_path, monkeypatch):
        # another thread must never see the umask cleared, even briefly
        path = tmp_path / "m.csv"
        old = os.umask(umask)
        try:
            with monkeypatch.context() as m:
                m.setattr(os, "umask", lambda *a: pytest.fail("os.umask called"))
                output.write_text_atomic(path, "t\n0\n")
        finally:
            os.umask(old)
        assert path.read_text() == "t\n0\n"
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(fd):
            raise OSError("disk full")
        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            output.write_text_atomic(tmp_path / "x.csv", "text")
        assert list(tmp_path.iterdir()) == []


class TestJsonText:
    def test_golden(self):
        obj = {"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-3),
               "u8": np.uint8(200), "b": np.bool_(True), "arr": np.array([1.5, -0.0, 1e300]),
               "grid": np.arange(4).reshape(2, 2), "carr": np.array([1 + 2j, -0.5j]),
               "c128": np.complex128(1.5 - 0.25j), "c": 2j,
               "tup": (1, np.float64(2.5), (np.int32(4), "x")), "none": None}
        assert output.json_text(obj) == (
            '{\n  "arr": [\n    1.5,\n    -0.0,\n    1e+300\n  ],\n  "b": true,\n'
            '  "c": [\n    0.0,\n    2.0\n  ],\n  "c128": [\n    1.5,\n    -0.25\n  ],\n'
            '  "carr": [\n    [\n      1.0,\n      2.0\n    ],\n    [\n      -0.0,\n'
            '      -0.5\n    ]\n  ],\n  "f32": 0.10000000149011612,\n  "f64": 0.1,\n'
            '  "grid": [\n    [\n      0,\n      1\n    ],\n    [\n      2,\n      3\n'
            '    ]\n  ],\n  "i64": -3,\n  "none": null,\n  "tup": [\n    1,\n    2.5,\n'
            '    [\n      4,\n      "x"\n    ]\n  ],\n  "u8": 200\n}\n')

    def test_non_finite_floats_are_null(self):
        obj = {"nan": math.nan, "inf": np.float64(math.inf), "arr": np.array([1.0, -math.inf]),
               "c": complex(math.nan, 1.0), "carr": np.array([complex(2.0, math.inf)]),
               "nested": [(np.float32("nan"), {"x": -math.inf})]}
        parsed = json.loads(output.json_text(obj), parse_constant=lambda c: pytest.fail(c))
        assert parsed == {"nan": None, "inf": None, "arr": [1.0, None], "c": [None, 1.0],
                          "carr": [[2.0, None]], "nested": [[None, {"x": None}]]}

    def test_unknown_object_raises(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            output.json_text({"x": object()})


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

    @pytest.mark.parametrize("table, corrections", [
        # a wrong entry with no correction
        ([closed_forms.ReferenceEntry("z2", "h", "p1^2")], {}),
        # a known-bad entry whose correction is wrong too
        (closed_forms.REFERENCE_TABLE[:1],
         {("iz", "h"): ("p1^2", closed_forms._compile_form("p1^2"))}),
    ])
    def test_inconsistent_table_exit_2(self, table, corrections, monkeypatch, capsys):
        monkeypatch.setattr(closed_forms, "REFERENCE_TABLE", table)
        monkeypatch.setattr(closed_forms, "CORRECTED_FORMS", corrections)
        assert run(["verify-table1", "--points=10"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"] is False and report["n_discrepant"] == 1
        [row] = report["rows"]
        assert row["status"] == "DISCREPANT"
        if corrections:
            assert row["corrected_form"] == "p1^2" and row["corrected_max_deviation"] > 1e-12
        else:
            assert "corrected_form" not in row

    def test_stdout_default(self, capsys):
        assert run(["verify-table1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["n_discrepant"] == 2

    def test_points_must_be_positive(self, capsys):
        assert run(["verify-table1", "--points=0"]) == 1
        assert "positive integer" in capsys.readouterr().err

    def test_points_over_cap_exit_1_one_line(self, tmp_path, capsys):
        # rejected before any sample is drawn, so nothing is allocated
        out = tmp_path / "table.json"
        assert run(["verify-table1", "--points", str(10**15), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "points" in lines[0], captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


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

    def test_non_finite_residual_is_worst(self, tmp_path, capsys):
        # p / m overflows at this mass: both Hamilton-equation residuals are
        # NaN, which the worst residuals report (as null) and do not hide
        out = tmp_path / "vs.json"
        assert run(["verify-symplectic", "--random", "2", "--potential", "z^2",
                    "--mass", "1e-320", "--out", str(out)]) == 2
        assert "0/2 PASS" in capsys.readouterr().out
        report = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))
        for key in ("position_equation", "momentum_equation"):
            assert report["worst_residuals"][key] is None
            assert [f["residuals"][key] for f in report["failures"]] == [None, None]
        assert 0.0 < report["worst_residuals"]["canonicity"] <= 1e-10

    def test_failure_entry_shape(self, tmp_path, capsys):
        # a failure names its trial, the structure's parameters and all five
        # residuals, here the NaN Hamilton-equation ones as null
        out = tmp_path / "vs.json"
        assert run(["verify-symplectic", "--random", "1", "--mass", "1e-320",
                    "--out", str(out)]) == 2
        [entry] = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))["failures"]
        assert set(entry) == {"trial", "params", "residuals"} and entry["trial"] == 0
        assert set(entry["params"]) == {"a", "b", "alpha_re", "alpha_im"}
        assert set(entry["residuals"]) == set(RESIDUAL_LIMITS)

    def test_random_must_be_positive(self, capsys):
        assert run(["verify-symplectic", "--random=-1"]) == 1
        captured = capsys.readouterr()
        assert "positive integer" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("seed, potential, trials", [
        (1, "i*z^3", 1), (7, "exp(i*z)", 3), (42, "-(z^4)", 40), (3, "z^2", 17)])
    def test_statistics_of_the_trials(self, seed, potential, trials, tmp_path):
        # the report's statistics are those of each residual over the trials,
        # column by column, and the range of the frames' r_minus
        out = tmp_path / "vs.json"
        assert run(["verify-symplectic", f"--random={trials}", f"--seed={seed}",
                    f"--potential={potential}", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        drawn = list(structure_trials(SystemSpec.from_source(potential),
                                      np.random.default_rng(seed), trials))
        for key in RESIDUAL_LIMITS:
            column = np.array([res[key] for _, _, res in drawn])
            p50, p95 = np.percentile(column, [50, 95]).tolist()
            assert report["p50_residuals"][key] == p50
            assert report["p95_residuals"][key] == p95
            assert report["worst_residuals"][key] == column.max()
        r_minus = [frame.r_minus for _, frame, _ in drawn]
        assert report["r_minus_range"] == [min(r_minus), max(r_minus)]

    def test_non_finite_residual_percentiles_are_null(self, tmp_path):
        # the NaN equation residuals of test_non_finite_residual_is_worst
        # reach both percentiles, as null, without a warning
        out = tmp_path / "vs.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify-symplectic", "--random", "3", "--potential", "z^2",
                        "--mass", "1e-320", "--out", str(out)]) == 2
        report = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))
        for stat in ("p50_residuals", "p95_residuals"):
            for key in ("position_equation", "momentum_equation"):
                assert report[stat][key] is None
            assert 0.0 < report[stat]["canonicity"] <= 1e-10

    def test_percentile_between_infinite_residuals(self, capsys):
        # the 95th percentile of the position residuals at this mass falls
        # between two infinite values, whose difference is NaN: it is null,
        # and no warning is printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify-symplectic", "--seed=0", "--mass=1.1125369292536007e-308"]) == 2
        captured = capsys.readouterr()
        report, end = json.JSONDecoder(parse_constant=lambda c: pytest.fail(c)).raw_decode(
            captured.out)
        assert captured.out[end:] == "\n0/100 PASS (seed 0)\n" and captured.err == ""
        drawn = structure_trials(SystemSpec.from_source("i*z^3", 1.1125369292536007e-308),
                                 np.random.default_rng(0), 100)
        column = np.sort([res["position_equation"] for _, _, res in drawn])
        assert np.isinf(column[94:96]).all()
        assert report["p95_residuals"]["position_equation"] is None

    def test_refused_out_runs_no_trial(self, tmp_path, monkeypatch, capsys):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("holomech.cli.structure_trials", no_trials)
        out = tmp_path / "missing" / "vs.json"
        assert run(["verify-symplectic", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "No such file or directory" in captured.err


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

    @pytest.mark.parametrize("eps_end", [0.05, -0.05])
    def test_step_longer_than_span_is_one_step(self, eps_end, tmp_path):
        out = tmp_path / "flow.csv"
        assert run(["hi-flow", "--potential", "i*z^3", "--xi0", "0.4,0.3,-0.2,0.5",
                    f"--eps-end={eps_end}", "--d-eps=0.1", "--out", str(out)]) == 0
        assert read_csv(out)[:, 0].tolist() == [0.0, eps_end]
        assert json.loads(out.with_suffix(".json").read_text())["samples"] == 2


class TestGridOverflow:
    # t_end / dt beyond the float range: one line and exit 1, no traceback;
    # each command names its own flags
    PHRASE = {"simulate": "t_end / dt", "hi-flow": "|eps_end| / d_eps"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--potential=z", "--method=rk4", "--t-end=1e300", "--dt=1e-300"],
        ["simulate", "--potential=z", "--method=split", "--t-end=1e300", "--dt=1e-300"],
        ["hi-flow", "--potential=z", "--eps-end=1e300", "--d-eps=1e-300"],
        ["hi-flow", "--potential=z", "--eps-end=-1e300", "--d-eps=1e-300"],
        # one step past the longest fixed-step grid
        ["simulate", "--potential=z", "--method=rk4", "--t-end=1000001", "--dt=1"],
        ["simulate", "--potential=z", "--method=split", "--t-end=1000001", "--dt=1"],
        ["hi-flow", "--potential=z", "--eps-end=1000001", "--d-eps=1"],
        ["hi-flow", "--potential=z", "--eps-end=-1000001", "--d-eps=1"],
    ])
    def test_exit_1_one_line(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and self.PHRASE[argv[0]] in lines[0], captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--potential=z", "--method=rk4", "--t-end=1000001", "--dt=1"],
        ["hi-flow", "--potential=z", "--eps-end=-1000001", "--d-eps=1"],
    ])
    def test_values_keep_every_digit(self, argv, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            f"holomech: error: {self.PHRASE[argv[0]]} = 1000001.0 / 1.0 exceeds the 1000000 "
            "steps of the longest fixed-step grid\n")


class TestHugeStart:
    # a start whose sqrt(2)-scaled Darboux image overflows: one line and
    # exit 1 before any integration, no numpy warning, no file
    @pytest.mark.parametrize("argv", [
        ["simulate", "--frame=complex", "--z0=1.7e308+1.7e308i"],
        ["simulate", "--frame=darboux", "--z0=1.7e308+1.7e308i"],
        ["simulate", "--frame=both", "--z0=1.7e308+1.7e308i"],
        ["simulate", "--frame=complex", "--method=split", "--p0=-1.5e308"],
        ["hi-flow", "--z0=1.7e308+1.7e308i"],
    ])
    def test_exit_1_one_line(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run([*argv, "--potential=z", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Darboux image" in lines[0], captured.err
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_largest_finite_image_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--potential=z", "--z0=1.2e308", "--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["terminated_by"] == "escape"


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

    def test_non_finite_solution_exit_2(self, capsys):
        # x2 = -2 m v_i / p1 overflows to -inf: unsolvable, and the report
        # stays strict JSON
        code = run(["constrain", "--potential", "i*z", "--x1", "1",
                    "--p1", "1e-320", "--p2", "0"])
        assert code == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=lambda c: pytest.fail(c))
        assert report["status"] == "unsolvable" and "x2" not in report
        assert captured.err.startswith("constrain: ")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--x1", "--p1", "--p2"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_argument_exit_1(self, flag, value, capsys):
        # a usage error with one line, not a "solved" report with NaN in it
        argv = {"--x1": "1", "--p1": "1", "--p2": "0", flag: value}
        code = run(["constrain", "--potential", "i*z", *(f"{k}={v}" for k, v in argv.items())])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("holomech: error:") and "finite" in captured.err

    @pytest.mark.parametrize("potential, x1", [("exp(z)", "1e4"), ("sin(z*z*z*z*z)", "1e70")])
    def test_overflowing_potential_exit_1(self, potential, x1, capsys):
        # exp overflows; sin of an infinite argument is NaN in numpy, which the
        # point split reports as overflow evaluating v
        code = run(["constrain", "--potential", potential, "--x1", x1,
                    "--p1", "1", "--p2", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("holomech: potential error: overflow")
        assert len(captured.err.strip().splitlines()) == 1


class TestRejectedInput:
    """Malformed input ends with exit 1 and one error line, before any run."""

    @pytest.mark.parametrize("xi0, message", [
        ("1,2,3", "expected four comma-separated reals: x1,p1,x2,p2"),
        ("a,b,c,d", "invalid Darboux point 'a,b,c,d'"),
    ])
    def test_bad_xi0(self, xi0, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["hi-flow", "--potential=z", f"--xi0={xi0}", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse prints its usage above the one error line
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [f"holomech hi-flow: error: argument --xi0: {message}"]
        assert captured.err.splitlines()[-1] == errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_non_positive_escape_radius(self, radius, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--potential=z", f"--escape-radius={radius}",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "holomech: error: escape_radius must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("potential, message", [
        ("(z", "expected ')' (at position 2)"),
        ("sin z", "expected '(' (at position 4)"),
        ("exp(z", "expected ')' (at position 5)"),
    ])
    def test_unbalanced_potential(self, potential, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", f"--potential={potential}", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"holomech: potential error: {message}\n"
        assert not out.exists()


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


class TestUnwritableOut:
    # the atomic write's temp name is random: the message names --out instead
    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--potential=z", "--t-end=0.01"], "missing/run.csv"),
        (["verify-table1", "--points=1"], "missing/t.json"),
        (["simulate", "--potential=z", "--t-end=0.01"], "dir"),
    ])
    def test_exit_1_names_the_path(self, argv, name, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        out = tmp_path / name
        errors = []
        for _ in range(2):
            assert run([*argv, "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert len(errors[0].splitlines()) == 1 and repr(str(out)) in errors[0], errors[0]
        assert list(tmp_path.rglob("*.tmp")) == []
        assert (tmp_path / "dir").is_dir()


class TestParserDefaults:
    # each run default is stated once, on its config dataclass or in cli
    def test_simulate_defaults_are_integrator_config(self):
        args = build_parser().parse_args(["simulate", "--potential=z"])
        assert {f.name: getattr(args, f.name) for f in fields(IntegratorConfig)} == asdict(
            IntegratorConfig())

    def test_hi_flow_defaults_are_flow_config(self):
        args = build_parser().parse_args(["hi-flow", "--potential=z"])
        assert FlowConfig(epsilon_end=args.eps_end, d_epsilon=args.d_eps) == FlowConfig()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--potential=z"],
        ["hi-flow", "--potential=z"],
        ["verify-symplectic"],
        ["constrain", "--potential=z", "--x1=0", "--p1=0", "--p2=0"],
    ])
    def test_mass_is_system_spec_mass(self, argv):
        assert build_parser().parse_args(argv).mass == SystemSpec(get_builtin("iz")).mass

    @pytest.mark.parametrize("argv", [
        ["simulate", "--potential=z"],
        ["hi-flow", "--potential=z"],
        ["verify-table1"],
        ["verify-symplectic"],
    ])
    def test_seed_is_default_seed(self, argv):
        assert build_parser().parse_args(argv).seed == DEFAULT_SEED


class TestSeedDefault:
    def test_environment_does_not_set_the_seed(self, monkeypatch, tmp_path, capsys):
        # one command line, one report: only --seed moves the draws
        reports = [["verify-table1", "--points", "5"], ["verify-symplectic", "--random", "5"]]
        before = []
        for argv in reports:
            assert run(argv) == 0
            before.append(capsys.readouterr().out)
        monkeypatch.setenv("HOLOMECH_SEED", "7")
        for argv, out in zip(reports, before):
            assert run(argv) == 0
            assert capsys.readouterr().out == out
        assert json.loads(before[0])["seed"] == 42
        assert before[1].endswith("5/5 PASS (seed 42)\n")
        traj = tmp_path / "traj.csv"
        assert run(["simulate", "--potential=z", "--t-end=0.01", f"--out={traj}"]) == 0
        assert json.loads(traj.with_suffix(".json").read_text())["seed"] == 42
        capsys.readouterr()
        assert run(["verify-table1", "--points", "5", "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7


class TestSplitBothFrames:
    """``simulate --method split`` integrates once, from the Darboux start, for
    every start and in every frame: its complex columns are that run mapped."""

    ARGS = ["simulate", "--potential=i*z^3", "--frame=both", "--method=split",
            "--dt=0.01", "--t-end=2"]

    def outputs(self, argv, tmp_path, capsys):
        tmp_path.mkdir()
        out = tmp_path / "traj.csv"
        code = run(argv + [f"--out={out}"])
        captured = capsys.readouterr()
        return (code, out.read_bytes(), out.with_suffix(".json").read_bytes(),
                captured.out.replace(str(tmp_path), "<dir>"), captured.err)

    # --z0/--p0 give the mapped start exactly; an --xi0 does when the round
    # trip through (z0, p0) is exact, and the last one is off by an ulp
    @pytest.mark.parametrize("start, exact_round_trip", [
        (["--z0=0.3+0.2i", "--p0=0.5-0.1i"], True),
        (["--xi0=0.4,0.3,-0.2,0.5"], True),
        (["--xi0=0.548,-0.921,-1.836,-1.934"], False)])
    def test_matches_two_run_path(self, start, exact_round_trip, tmp_path, monkeypatch,
                                  capsys):
        import holomech.cli as cli

        calls = []
        for name in ("integrate_complex", "integrate_darboux"):
            fn = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _fn=fn, _name=name:
                                calls.append(_name) or _fn(*a))
        got = self.outputs(self.ARGS + start, tmp_path / "one", capsys)
        assert calls == ["integrate_darboux"]
        calls.clear()
        # the oracle: both frames integrated, as for the other methods
        monkeypatch.setattr(cli, "_frame_runs", lambda spec, frame, z0, p0, xi0, cfg: (
            cli.integrate_complex(spec, z0, p0, cfg), cli.integrate_darboux(spec, xi0, cfg)))
        want = self.outputs(self.ARGS + start, tmp_path / "two", capsys)
        assert sorted(calls) == ["integrate_complex", "integrate_darboux"]
        if exact_round_trip:
            assert got == want
            return
        # the two-run path starts its complex run an ulp away; the one run's
        # x, y, p, q columns are its x1, p2, p1, x2 over sqrt(2), bit for bit
        table = read_csv(tmp_path / "one" / "traj.csv")
        assert table[:, 1:5].tobytes() == (table[:, [5, 8, 6, 7]] / math.sqrt(2)).tobytes()
        deviation = json.loads(got[2])["max_frame_deviation"]
        assert deviation <= 1e-13 < json.loads(want[2])["max_frame_deviation"]
        assert (got[0], got[4]) == (want[0], want[4])

    # signed zeros, a generic start, and an --xi0 whose round trip through
    # (z0, p0) is exact and one whose round trip is not
    STARTS = {
        "zeros": ["--z0=-0", "--p0=-0"],
        "zero-parts": ["--z0=0.5-0i", "--p0=-0+0.25i"],
        "generic": ["--z0=0.3+0.2i", "--p0=0.5-0.1i"],
        "xi0-exact": ["--xi0=0.4,0.3,-0.2,0.5"],
        "xi0-ulp": ["--xi0=0.548,-0.921,-1.836,-1.934"],
    }

    @pytest.mark.parametrize("source", sorted(BUILTIN_SOURCES.values()))
    @pytest.mark.parametrize("start", STARTS.values(), ids=STARTS)
    def test_one_csv_in_every_frame(self, source, start, tmp_path, capsys):
        argv = ["simulate", f"--potential={source}", "--method=split", "--dt=0.01",
                "--t-end=1", *start]
        runs = {frame: self.outputs(argv + [f"--frame={frame}"], tmp_path / frame, capsys)
                for frame in ("complex", "darboux", "both")}
        codes, csvs, _, outs, errs = (set(parts) for parts in zip(*runs.values()))
        assert len(codes) == len(csvs) == len(outs) == len(errs) == 1
        summaries = {frame: json.loads(run[2]) for frame, run in runs.items()}
        assert [summary.pop("frame") for summary in summaries.values()] == list(runs)
        both_only = {key: summaries["both"].pop(key)
                     for key in ("max_frame_deviation", "frames_equivalent")}
        assert both_only["frames_equivalent"] is True
        assert summaries["complex"] == summaries["darboux"] == summaries["both"]

    @pytest.mark.parametrize("method", holomech.dynamics.METHODS)
    @pytest.mark.parametrize("frame", ["complex", "darboux", "both"])
    def test_non_finite_xi0_in_every_frame(self, method, frame, tmp_path, capsys):
        # one message from every method too: each checks --xi0 as a Darboux point
        assert run(["simulate", "--potential=i*z^3", f"--method={method}", f"--frame={frame}",
                    "--xi0=1,2,3,nan", f"--out={tmp_path / 'traj.csv'}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "holomech: error: initial Darboux point must be 4 finite reals\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []


class TestOutCheckedFirst:
    """``main`` refuses an ``--out`` the command could not write before the
    command runs, with the message the atomic write would give, and writes
    nothing."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import holomech.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("the command ran")
        for name in ("integrate_complex", "integrate_darboux", "invariant_flow",
                     "verify_reference_table"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        # d/x.json is a directory, f a file, link a symlink to d
        (tmp_path / "d" / "x.json").mkdir(parents=True)
        (tmp_path / "f").write_text("")
        (tmp_path / "link").symlink_to("d")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["simulate", "--potential=z", "--t-end=0.01"],
        ["simulate", "--potential=z", "--frame=darboux", "--t-end=0.01"],
        ["hi-flow", "--potential=z", "--eps-end=0.01"],
        ["verify-table1", "--points=1"],
    ])
    @pytest.mark.parametrize("out, message", [
        ("missing/run.csv", "[Errno 2] No such file or directory: 'missing/run.csv'"),
        ("f/run.csv", "[Errno 20] Not a directory: 'f/run.csv'"),
        ("d", "[Errno 21] Is a directory: 'd'"),
    ], ids=["missing-parent", "file-parent", "directory"])
    def test_refused_without_work(self, argv, out, message, tree, no_work, capsys):
        before = sorted(tree.rglob("*"))
        assert run([*argv, f"--out={out}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"holomech: error: {message}\n" and captured.out == ""
        assert sorted(tree.rglob("*")) == before

    @pytest.mark.parametrize("command", ["simulate", "hi-flow"])
    def test_summary_directory_leaves_no_csv(self, command, tree, no_work, capsys):
        # the JSON summary d/x.json cannot be written: no d/x.csv without it
        assert run([command, "--potential=z", "--out=d/x.csv"]) == 1
        assert capsys.readouterr().err == "holomech: error: [Errno 21] Is a directory: 'd/x.json'\n"
        assert sorted(p.name for p in (tree / "d").iterdir()) == ["x.json"]

    def test_symlink_to_a_directory_is_replaced(self, tree, capsys):
        # os.replace replaces the link, not the directory it points to
        assert run(["verify-table1", "--points=1", "--out=link"]) == 0
        assert not (tree / "link").is_symlink()
        assert json.loads((tree / "link").read_text())["points"] == 1
        assert (tree / "d" / "x.json").is_dir()

    @pytest.mark.parametrize("out", ["missing/x", "f/x", "f/sub/x", "d", "d/x.json", ".", "..",
                                     "link", "dangling", "new", "f"])
    def test_check_matches_the_atomic_write(self, out, tree):
        # the oracle: what the write itself raises, or that it succeeds
        (tree / "dangling").symlink_to("nowhere")
        try:
            output.write_text_atomic(out, "")
        except OSError as exc:
            with pytest.raises(OSError) as refused:
                output.check_target(out)
            assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
        else:
            output.check_target(out)
        assert list(tree.rglob("*.tmp")) == []


class TestOutNamesAFile:
    """An ``--out`` that names no file is refused as typed, before any work:
    ``Path`` would read "x/" as "x" and "" as "."."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--potential=z", "--t-end=0.01"],
        ["hi-flow", "--potential=z", "--eps-end=0.01"],
        ["verify-table1", "--points=1"],
        ["verify-symplectic", "--random=1"],
        ["darboux"],
        ["constrain", "--potential=z", "--x1=0", "--p1=1", "--p2=0"],
    ])
    @pytest.mark.parametrize("out, message", [
        ("x/", "[Errno 21] Is a directory: 'x/'"),
        ("", "[Errno 2] No such file or directory: ''"),
        (".", "[Errno 16] Device or resource busy: '.'"),
    ], ids=["trailing-separator", "empty", "dot"])
    def test_refused(self, argv, out, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, f"--out={out}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"holomech: error: {message}\n" and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_separator_after_a_directory(self, tmp_path, monkeypatch, capsys):
        # the message keeps the separator as typed
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run(["verify-table1", "--points=1", "--out=d/"]) == 1
        assert capsys.readouterr().err == "holomech: error: [Errno 21] Is a directory: 'd/'\n"
        assert list((tmp_path / "d").iterdir()) == []


class TestDarbouxConditioning:
    def test_near_degenerate_warning(self, capsys):
        # r_minus = 5e-8 is under CONDITIONING_WARN_R_MINUS; the orthogonality
        # residual (8e-11) is over its limit, so the verdict is FAIL
        assert run(["darboux", "--alpha=1.0000001"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "r_minus = 5.0000000027195168e-08"
        assert lines[-2:] == ["warning: r_minus < 1e-06, near-degenerate structure", "FAIL"]

    def test_no_warning_away_from_the_surface(self, capsys):
        assert run(["darboux"]) == 0
        assert "warning" not in capsys.readouterr().out


class TestDefaultsStatedOnce:
    def test_from_source_mass_is_system_spec_mass(self):
        assert SystemSpec.from_source("z").mass == SystemSpec(get_builtin("iz")).mass
