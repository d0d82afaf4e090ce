#!/usr/bin/env python3
"""Determinism self-check of the benchmark, at a tiny size.

Runs every workload's traced pass twice with one seed and once with
another, each time for a fixed number of ops.  The two same-seed runs must
give identical counts and accuracy figures; the other seed must give other
inputs.  Run from the repository root::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import run

OPS = 6
DETERMINISTIC = ("dynamics.steps.rk45", "dynamics.steps.rk4", "dynamics.steps.split",
                 "dynamics.samples", "dynamics.equivalence_points", "output.csv_bytes",
                 "closed_forms.points", "dynamics.frame_dev_p50", "dynamics.drift_p50")


def traced(name: str, seed: int) -> dict:
    deadline = time.monotonic() + run.DEADLINE_S
    return run.run_workload(name, seed, 0.0, 1, OPS, deadline)


def main() -> int:
    meta = run.load_json(os.path.join(run.HERE, "meta.json"))
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    seed, other = meta["default_seed"], meta["holdout_seed"]
    os.makedirs(run.WORKDIR, exist_ok=True)
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        a, b, c = traced(name, seed), traced(name, seed), traced(name, seed=other)
        values = {k: (a["layer"][k], b["layer"][k]) for k in DETERMINISTIC}
        differ = {k: v for k, v in values.items() if v[0] != v[1]}
        same_inputs = a["input_digest"] == b["input_digest"]
        new_inputs = a["input_digest"] != c["input_digest"]
        passed = not differ and same_inputs and new_inputs
        ok &= passed
        print(f"{name}: {'PASS' if passed else 'FAIL'}  "
              f"{json.dumps({k: v[0] for k, v in values.items()})}")
        if differ:
            print(f"  differ between runs with seed {seed}: {differ}")
        if not same_inputs or not new_inputs:
            print(f"  inputs: seed {seed} {a['input_digest']}, {b['input_digest']}; "
                  f"seed {other} {c['input_digest']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
