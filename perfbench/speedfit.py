#!/usr/bin/env python3
"""How well the speed probe tracks one workload's op times.

Runs a fixed set of six ops of the workload in turn for ``--seconds``, with
a probe before and after each op, and fits log(op time) against log(probe
time), each centred on its median (per op for the op times).  A slope near
1 means scaling op times by the probe is right for this workload.  It also
prints the coefficient of variation of the mean op time over blocks of 60
ops, raw and scaled, which is what one benchmark run averages.  Run from the
repository root::

    python3 perfbench/speedfit.py --workload cli_fixed_step --seconds 60
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, CliFixedStep, layers  # noqa: E402

BLOCK = 60


def block_cv(x: np.ndarray) -> float:
    blocks = [x[i:i + BLOCK].mean() for i in range(0, len(x) - BLOCK + 1, BLOCK)]
    return float(np.std(blocks) / np.mean(blocks)) if blocks else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args()

    workdir = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        cls = WORKLOADS[args.workload]
        wl = cls(1, tmp) if cls is CliFixedStep else cls(1)
        wl.setup()
        lay = layers()
        wl.warmup(lay)
        ops = [wl.make_op(k) for k in range(6)]
        probe = SpeedProbe()
        index, op_s, probe_s = [], [], []
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            j = len(index) % len(ops)
            probe.measure()
            t0 = time.perf_counter()
            wl.run(lay, ops[j])
            op_s.append(time.perf_counter() - t0)
            probe.measure()
            index.append(j)
            probe_s.append(0.5 * (probe.times[-1] + probe.times[-2]))

    index = np.array(index)
    log_op, log_probe = np.log(op_s), np.log(probe_s)
    for j in range(len(ops)):
        log_op[index == j] -= np.median(log_op[index == j])
    log_probe -= np.median(log_probe)
    slope = np.polyfit(log_probe, log_op, 1)[0]
    r = np.corrcoef(log_probe, log_op)[0, 1]
    print(f"{args.workload}: {len(index)} ops, probe {1e6 * min(probe_s):.0f} to "
          f"{1e6 * max(probe_s):.0f} us; slope {slope:.3f}, r {r:.3f}; "
          f"{BLOCK}-op block cv raw {block_cv(np.exp(log_op)):.4f}, "
          f"scaled {block_cv(np.exp(log_op - log_probe)):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
