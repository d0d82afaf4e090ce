"""The CLI contract under drawn command lines.

Every drawn ``simulate`` and ``hi-flow`` run must end in exit code 0 or 2
without a traceback, with a strict-JSON summary and a CSV whose header is
``TRAJECTORY_HEADER`` and whose data rows number the summary's ``samples``.
Every drawn ``verify-table1``, ``verify-symplectic``, ``darboux`` and
``constrain`` command, its values taken from edge pools, must end in exit
code 0, 1, 2 or 3 without a traceback or a warning, with at most one
stderr line besides argparse's usage, and with strict JSON wherever it
writes JSON.  So must a drawn ``simulate`` or ``hi-flow`` run some of whose
options, start or potential come from those pools; one that ends in 0 or 2
writes the summary and CSV above, and any other writes nothing.
"""

import contextlib
import io
import json
import warnings

import pytest
from conftest import NON_CATALOG_SOURCES
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from holomech import BUILTIN_SOURCES, closed_forms
from holomech.cli import main
from holomech.output import TRAJECTORY_HEADER

# Parts of a start: signed zeros, a box around the origin, and values that
# leave the default escape radius 1e3 at once or soon.
PARTS = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0) | st.sampled_from(
    [40.0, -250.0, 2e3, -1e5])


def literal(re, im):
    """A --z0/--p0 value that parses back to (re, im), signs of zero included."""
    return f"{re!r}{'-' if str(im)[0] == '-' else '+'}{abs(im)!r}i"


@st.composite
def starts(draw):
    re_z, im_z, re_p, im_p = (draw(PARTS) for _ in range(4))
    if draw(st.booleans()):
        return [f"--xi0={re_z!r},{im_z!r},{re_p!r},{im_p!r}"]
    return [f"--z0={literal(re_z, im_z)}", f"--p0={literal(re_p, im_p)}"]


@st.composite
def simulate_runs(draw):
    dt = draw(st.sampled_from([0.01, 0.05, 0.25]))
    t_end = draw(st.just(0.0) | st.floats(0.25, 2.0))
    return ["simulate", f"--potential={draw(st.sampled_from(sorted(BUILTIN_SOURCES.values())))}",
            *draw(starts()), f"--method={draw(st.sampled_from(['rk4', 'rk45', 'split']))}",
            f"--frame={draw(st.sampled_from(['complex', 'darboux', 'both']))}",
            f"--dt={dt!r}", f"--t-end={t_end!r}"]


@st.composite
def hi_flow_runs(draw):
    return ["hi-flow", f"--potential={draw(st.sampled_from(sorted(BUILTIN_SOURCES.values())))}",
            *draw(starts()), f"--eps-end={draw(st.floats(-1.0, 1.0))!r}",
            f"--d-eps={draw(st.sampled_from([0.01, 0.05, 0.25]))!r}"]


def fail_on_constant(name):
    pytest.fail(f"summary holds {name}, which strict JSON has not")


def check_run(argv, out):
    csv, summary = out / "run.csv", out / "run.json"
    for path in (csv, summary):
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, f"--out={csv}"])
    assert code in (0, 2), (code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    check_files(csv, summary)


def check_files(csv, summary):
    """A strict-JSON summary, and a CSV of its ``samples`` data rows."""
    fields = json.loads(summary.read_text(), parse_constant=fail_on_constant)
    lines = csv.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert fields["samples"] == len(lines) - 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=simulate_runs())
def test_simulate(argv, tmp_path):
    check_run(argv, tmp_path)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=hi_flow_runs())
def test_hi_flow(argv, tmp_path):
    check_run(argv, tmp_path)


# Edge pools, as command-line text: signed zeros, a subnormal, values near
# the float range, infinities, NaN and text that is no number at all.
REALS = st.sampled_from(["0", "-0.0", "1e-320", "-1e-320", "1e300", "-1e300", "inf", "-inf",
                         "nan", "1.5", "-0.75", "2", "x"]) | st.floats().map(repr)
COMPLEXES = REALS | st.sampled_from(
    ["1e300+1e300i", "-1e300-1e300i", "1.7e308+1.7e308i", "1e-320-1e-320i", "inf+infi",
     "nan+nani", "-inf-0.0i", "0.5-0.25i", "-0.0+0.0i", "3+4", "i"])
# integer options: a signed zero and text that int() refuses
INTEGER_EDGES = st.sampled_from(["-0", "1e300", "nan", "1.5", "x"])
SEEDS = st.integers(-3, 2**70).map(str) | INTEGER_EDGES
POTENTIALS = st.sampled_from(
    [*sorted(BUILTIN_SOURCES.values()), *NON_CATALOG_SOURCES,
     "", "z^", "1/z", "z^-1", "foo(z)", "sin(", "z**2", "1e400*z", "exp(exp(exp(z)))",
     "z^99999", "sin(z*z*z*z*z)", "(" * 101 + "z" + ")" * 101])
# verify-table1 evaluates every catalog form at --points points; the test
# lowers the program's cap on them, and larger draws are refused at once
TABLE_POINTS_CAP = 2000


def option(name, values):
    """``--name=value`` (a value may start with -), or the option left out."""
    return st.none() | values.map(lambda v: f"--{name}={v}")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["verify-table1", "verify-symplectic", "darboux",
                                    "constrain"]))
    if command == "verify-table1":
        points = (st.integers(-3, 2 * TABLE_POINTS_CAP) | st.integers(-3, 2**70)).map(str)
        opts = [option("seed", SEEDS), option("points", points | INTEGER_EDGES)]
    elif command == "verify-symplectic":
        # no cap bounds --random: its draws stop at 1000 trials
        trials = st.integers(-3, 1000).map(str) | INTEGER_EDGES
        opts = [option("random", trials), option("seed", SEEDS),
                option("potential", POTENTIALS), option("mass", REALS)]
    elif command == "darboux":
        opts = [option("a", REALS), option("b", REALS), option("alpha", COMPLEXES)]
    else:
        opts = [st.builds("--potential={}".format, POTENTIALS), option("mass", REALS),
                *(st.builds(f"--{name}={{}}".format, REALS) for name in ("x1", "p1", "p2"))]
    return [command, *(a for a in (draw(o) for o in opts) if a is not None),
            *draw(st.sampled_from([[], ["--out=report.out"]]))]


def message_lines(stderr):
    """stderr without argparse's usage line and its indented continuations."""
    lines = stderr.splitlines()
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    return lines


def run_contract(argv):
    """Run ``main(argv)``; check exit code 0-3, no traceback, no warning and
    at most one stderr line besides argparse's usage; return (code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    assert len(message_lines(err)) <= 1, err
    return code, stdout.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
# a percentile between two infinite residuals
@example(argv=["verify-symplectic", "--seed=0", "--mass=1.1125369292536007e-308"])
def test_other_commands(argv, tmp_path, monkeypatch):
    monkeypatch.setattr(closed_forms, "MAX_TABLE_POINTS", TABLE_POINTS_CAP)
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.out"
    report.unlink(missing_ok=True)
    code, stdout = run_contract(argv)
    if argv[0] == "darboux" or code == 1:
        return
    text = report.read_text() if report.exists() else stdout
    # verify-symplectic prints its pass count after a report on stdout
    json.JSONDecoder(parse_constant=fail_on_constant).raw_decode(text)


# simulate and hi-flow over the edge pools run at most this many steps: the
# test lowers the program's cap on a grid, and a longer grid is refused at
# once (an rk45 run stops at the cap with exit 2)
GRID_STEPS_CAP = 2000


@st.composite
def edge_runs(draw):
    """A drawn simulate or hi-flow run, up to three of whose options (the
    start and the potential among them) then take a value from the edge pools;
    the last value of an option is the one that counts."""
    if draw(st.booleans()):
        argv = draw(simulate_runs())
        names = ["dt", "t-end", "rel-tol", "abs-tol", "escape-radius"]
    else:
        argv, names = draw(hi_flow_runs()), ["eps-end", "d-eps"]
    pools = {"mass": REALS, **dict.fromkeys(names, REALS), "z0": COMPLEXES, "p0": COMPLEXES,
             "xi0": st.lists(REALS, min_size=4, max_size=4).map(",".join),
             "potential": POTENTIALS}
    for name in draw(st.lists(st.sampled_from(sorted(pools)), max_size=3, unique=True)):
        argv.append(f"--{name}={draw(pools[name])}")
    return [*argv, "--out=run.csv"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=edge_runs())
def test_runs_over_edge_pools(argv, tmp_path, monkeypatch, lower_step_cap):
    lower_step_cap(GRID_STEPS_CAP)
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "run.csv", tmp_path / "run.json"):
        path.unlink(missing_ok=True)
    code, _ = run_contract(argv)
    if code in (0, 2):
        check_files(tmp_path / "run.csv", tmp_path / "run.json")
    else:  # a refused run writes nothing
        assert sorted(tmp_path.iterdir()) == []
