#!/usr/bin/env python3
"""holomech benchmark runner.

Run from the repository root::

    python3 perfbench/run.py --workload ensemble_rk45 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload runs in a fresh interpreter (``worker.py``) with the BLAS and
OpenMP thread counts pinned to 1, against the package in ``src/``.  With
``--trace 0`` the runner also starts the workload four more times up to the
first timed op and reports the median set-up time.  Human-readable lines
come first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

SETUP_SAMPLES = 5
# A run must end within 180 s, builds excluded.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.time()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args, "--t0", repr(t0)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, ops, deadline) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
              "--trace", str(trace), "--workdir", WORKDIR]
    if ops is not None:
        common += ["--ops", str(ops)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(common + ["--setup-only"], deadline))
    if trace:
        common += ["--trace-out", os.path.join(WORKDIR, f"trace_{name}.csv")]
    res = run_worker(common, deadline)
    setups.append(res)
    res["setup_wall_s"] = statistics.median(s["setup_wall_s"] for s in setups)
    lat = res["latency"]
    res["end_to_end"] = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": lat["n"] / lat["busy_s"],
        "op_p50_ms": 1e3 * lat["p50_s"],
        "op_p90_ms": 1e3 * lat["p90_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res


def report(name: str, seed: int, res: dict, spec: dict, trace: int) -> dict:
    """Print one workload's figures; return its metrics for the JSON line."""
    out = res["outcomes"]
    lat = res["latency"]
    wall = res["wall_latency"]
    print(f"== {name}  seed {seed}  closed loop, 1 client  {lat['n']} ops")
    print(f"  wall: set-up {res['setup_wall_s']:.4g} s, {wall['busy_s']:.2f} s busy, "
          f"p50 {1e3 * wall['p50_s']:.4g} ms, p90 {1e3 * wall['p90_s']:.4g} ms; "
          f"reference loops {res['reference_us']:.4g} us (times below are scaled to 500 us)")
    print(f"  inputs {res['input_digest']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = res["end_to_end"]
    for key, value in e2e.items():
        print(f"  {key:<34} {value:.6g} {units[key]}")
    print(f"  {'fail_ratio':<34} {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']}/{out['attempted']})")
    for key, value in res["accuracy"].items():
        print(f"  {key:<34} " + ("n/a (no trajectories)" if value is None else f"{value:.6g} abs"))
    print(f"  documented outcomes: escape {out['escape']}, step_failure "
          f"{out['step_failure']}, grid_mismatch {out['grid_mismatch']}")
    if not trace:
        return {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    layer = res["layer"]
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
    if missing:
        raise BenchError(f"per-layer metrics not measured: {missing}")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<34} {layer[m['name']]:.6g} {m['unit']}")
    return {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None) -> int:
    meta = load_json(os.path.join(HERE, "meta.json"))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=meta["default_seed"])
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "holomech", "__init__.py")):
        print("perfbench: src/holomech not found; run from a holomech checkout",
              file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; expected one of {names} or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    os.makedirs(WORKDIR, exist_ok=True)
    attempted, failed, metrics = 0, 0, {}
    env = None
    try:
        for name in names if args.workload == "all" else [args.workload]:
            deadline = time.monotonic() + DEADLINE_S
            res = run_workload(name, args.seed, seconds, args.trace, None, deadline)
            if env is None:
                env = {"git_sha": git_sha(), **res["env"],
                       "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}
                print("env " + json.dumps(env, sort_keys=True))
            got = report(name, args.seed, res, spec, args.trace)
            counts = [res["outcomes"]] + ([res["traced_outcomes"]] if args.trace else [])
            attempted += sum(c["attempted"] for c in counts)
            failed += sum(c["failed"] for c in counts)
            if args.workload == "all":
                got = {f"{name}.{k}": v for k, v in got.items()}
            metrics.update(got)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
