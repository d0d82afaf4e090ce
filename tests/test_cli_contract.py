"""The run writer's contract under drawn ``simulate`` and ``hi-flow`` runs.

Every drawn run must end in exit code 0 or 2 without a traceback, with a
strict-JSON summary and a CSV whose header is ``TRAJECTORY_HEADER`` and
whose data rows number the summary's ``samples``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holomech import BUILTIN_SOURCES
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
