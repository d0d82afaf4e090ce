"""One workload in a fresh interpreter; started by run.py, not by hand.

Prints one JSON object on its last stdout line.  ``--setup-only`` stops
after set-up and reports ``setup_s``, the time since ``--t0`` (the parent's
wall clock just before it started this process) at which the first timed
op could start.  Otherwise ops run for ``--seconds``; with ``--trace 1``
each op runs a second time with recording wrappers installed, and the
per-layer metrics come from those traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

from speed import REFERENCE_S, SpeedProbe

# The machine speed before the program is imported.  Set-up time is scaled
# by the mean of this probe and one taken right after set-up; the probe's
# own time is not counted as set-up.
PROBE = SpeedProbe()
START_PROBE_S = PROBE.measure()

import holomech  # noqa: E402
from holomech.hamiltonian import SystemSpec  # noqa: E402
from holomech.potentials import BUILTIN_SOURCES, PotentialOverflowError  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CliFixedStep, Outcome, layers  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# The untimed loop never overruns --seconds by more than this.
MAX_OVERRUN_S = 60.0
METHODS = ("rk45", "rk4", "split")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_op(wl, lay, op, k):
    """Run one op; return its latency and checked outcome."""
    t0 = time.perf_counter()
    try:
        result = wl.run(lay, op)
    except Exception:
        latency = time.perf_counter() - t0
        outcome = Outcome()
        outcome.fail(f"op {k} raised:\n{traceback.format_exc()}")
    else:
        latency = time.perf_counter() - t0
        try:
            outcome = wl.check(op, result)
        except Exception:
            outcome = Outcome()
            outcome.fail(f"op {k} check raised:\n{traceback.format_exc()}")
    if outcome.failed:
        print(f"failed op {k}: {outcome.reason}", file=sys.stderr)
    return latency, outcome


def run_loop(wl, seconds, n_ops, min_ops, probe, tracer=None):
    """Run ops until the time (or the fixed count) is spent.

    With a tracer, each op runs untraced and then again with recording
    wrappers installed, so both passes see the same machine conditions; a
    traced op fails if it moves a counter of a layer the workload bypasses.
    Returns the input digest, the (latencies, outcomes) of each pass, and
    each op's latency scaled to the reference speed.
    """
    lay = layers()
    digest = hashlib.sha256()
    plain, traced, probe_before = ([], []), ([], []), []
    start = time.perf_counter()
    while True:
        k = len(probe_before)
        if n_ops is not None:
            if k >= n_ops:
                break
        else:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and k >= min_ops) or elapsed >= seconds + MAX_OVERRUN_S:
                break
        op = wl.make_op(k)
        digest.update(repr(op).encode())
        if probe.due():
            probe.measure()
        probe_before.append(len(probe.times) - 1)
        for series, value in zip(plain, timed_op(wl, lay, op, k)):
            series.append(value)
        if tracer is not None:
            tracer.op_id = k
            before = [tracer.counts[key] for key in wl.BYPASSED]
            try:
                result = timed_op(wl, layers(tracer), op, k)
            finally:
                tracer.restore()
            used = [key for key, n in zip(wl.BYPASSED, before) if tracer.counts[key] != n]
            if used and not result[1].failed:
                result[1].fail(f"op {k} ran a layer {wl.name} bypasses: {used}")
                print(f"failed op {k}: {result[1].reason}", file=sys.stderr)
            for series, value in zip(traced, result):
                series.append(value)
    probe.measure()
    speed = probe.times
    scaled = [lat * 2.0 * REFERENCE_S / (speed[i] + speed[i + 1])
              for lat, i in zip(plain[0], probe_before)]
    return digest.hexdigest()[:16], plain, traced, scaled, statistics.median(speed)


def latency_summary(latencies) -> dict:
    lat = sorted(latencies)
    return {"n": len(lat), "busy_s": sum(lat), "p50_s": statistics.median(lat),
            "p90_s": percentile(lat, 0.90)}


def median_or_none(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(statistics.median(vals)) if vals else None


def accuracy(outcomes) -> dict:
    return {
        "frame_dev_p50": median_or_none(o.frame_dev for o in outcomes),
        "drift_p50": median_or_none(o.drift for o in outcomes),
    }


def outcome_counts(outcomes) -> dict:
    return {
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "escape": sum(o.escape for o in outcomes),
        "step_failure": sum(o.step_failure for o in outcomes),
        "grid_mismatch": sum(o.grid_mismatch for o in outcomes),
    }


def dv_replay_ns(points, limit=100_000) -> float:
    """Mean ns per checked ``SystemSpec.dv`` call at recorded sample points."""
    calls, elapsed = 0, 0.0
    for spec, zs in points:
        zs = zs[: max(0, limit - calls)].tolist()
        t0 = time.perf_counter()
        for z in zs:
            try:
                spec.dv(z)
            except PotentialOverflowError:
                pass
        elapsed += time.perf_counter() - t0
        calls += len(zs)
    return 1e9 * elapsed / calls if calls else 0.0


def spec_build_us(repeats=20) -> float:
    """Median us per ``SystemSpec.from_source`` over the catalog."""
    times = []
    for _ in range(repeats):
        for src in BUILTIN_SOURCES.values():
            t0 = time.perf_counter()
            SystemSpec.from_source(src)
            times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def layer_metrics(tracer, n_ops) -> dict:
    agg = tracer.aggregate()
    c = tracer.counts

    def calls(*names):
        return sum(agg.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0))[1] for n in names)

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    m = {
        "potentials.spec_build_us": spec_build_us(),
        "potentials.dv_ns": dv_replay_ns(tracer.sample_points),
        "hamiltonian.split_calls": calls("hamiltonian.split"),
        "hamiltonian.split_self_s": self_s("hamiltonian.split"),
        "hamiltonian.darboux_eval_calls": calls("hamiltonian.darboux_eval"),
        "hamiltonian.darboux_eval_self_s": self_s("hamiltonian.darboux_eval"),
        "symplectic.frame_self_s": self_s("symplectic.frame"),
        "symplectic.residuals_self_s": self_s("symplectic.residuals"),
        "symplectic.compat_self_s": self_s("symplectic.compat"),
        "symplectic.calls": calls("symplectic.frame", "symplectic.residuals",
                                  "symplectic.compat"),
        "closed_forms.verify_self_s": self_s("closed_forms.verify"),
        "closed_forms.points": c["closed_forms.points"],
    }
    for meth in METHODS:
        span = f"dynamics.integrate.{meth}"
        steps = c[f"dynamics.steps.{meth}"]
        m[f"dynamics.integrate_self_s.{meth}"] = self_s(span)
        m[f"dynamics.steps.{meth}"] = steps
        m[f"dynamics.us_per_step.{meth}"] = per(self_s(span), steps, 1e6)
    eq_points = c["dynamics.equivalence_points"]
    m.update({
        "dynamics.samples": c["dynamics.samples"],
        "dynamics.escape_ratio": per(c["dynamics.escapes"], c["dynamics.trajectories"], 1.0),
        "dynamics.step_failures": c["dynamics.step_failures"],
        "dynamics.grid_mismatch": c["dynamics.grid_mismatch"],
        "dynamics.equivalence_self_s": self_s("dynamics.equivalence"),
        "dynamics.equivalence_points": eq_points,
        "dynamics.equivalence_us_per_point": per(self_s("dynamics.equivalence"),
                                                 eq_points, 1e6),
        "dynamics.state_at_calls": calls("dynamics.state_at"),
        "dynamics.state_at_self_s": self_s("dynamics.state_at"),
        "dynamics.flow_self_s": self_s("dynamics.flow"),
        "dynamics.flow_steps": c["dynamics.flow_steps"],
        "output.csv_self_s": self_s("output.csv"),
        "output.csv_bytes": c["output.csv_bytes"],
        "output.json_self_s": self_s("output.json"),
        "output.write_self_s": self_s("output.write"),
        "output.write_bytes": c["output.write_bytes"],
        "cli.main_calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "trace.ops": n_ops,
    })
    for code in ("0", "1", "2", "3", "other"):
        m[f"cli.exit_code.{code}"] = c[f"cli.exit_code.{code}"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops instead of --seconds")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(holomech.__file__).startswith(src + os.sep):
        print(f"holomech imported from {holomech.__file__}, not {src}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        cls = WORKLOADS[args.workload]
        wl = cls(args.seed, tmp) if cls is CliFixedStep else cls(args.seed)
        wl.setup()
        wl.warmup(layers())
        setup_wall_s = time.time() - args.t0 - START_PROBE_S
        PROBE.measure()
        setup_s = setup_wall_s * 2.0 * REFERENCE_S / (PROBE.times[0] + PROBE.times[1])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        tracer = Tracer() if args.trace else None
        digest, (latencies, outcomes), (t_lat, t_out), scaled, ref_s = run_loop(
            wl, args.seconds, args.ops, 1 if args.trace else MIN_OPS, PROBE, tracer)
        result = {
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "input_digest": digest,
            "accuracy": accuracy(outcomes),
            "outcomes": outcome_counts(outcomes),
            "latency": latency_summary(scaled),
            "wall_latency": latency_summary(latencies),
            "reference_us": 1e6 * ref_s,
        }
        if tracer is not None:
            layer = layer_metrics(tracer, len(t_out))
            layer["trace.overhead_ratio"] = sum(t_lat) / sum(latencies)
            # 0 where the workload integrates nothing
            layer.update({f"dynamics.{k}": v or 0.0 for k, v in accuracy(t_out).items()})
            result["layer"] = layer
            result["traced_outcomes"] = outcome_counts(t_out)
            if args.trace_out:
                tracer.dump(args.trace_out)
    result["env"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
