#!/usr/bin/env python3
"""Residual statistics for the Darboux construction over random structures.

Samples structure parameters (a, b, alpha) away from the degenerate surface,
builds each frame, and histograms the block-form / orthogonality /
canonicity residuals together with the bracket-compatibility residuals of a
chosen potential.  Prints percentile statistics; optionally dumps the raw
sweep as JSON.  Exits 2, after one line on stderr, when any trial has a
residual outside RESIDUAL_LIMITS (a NaN residual is outside).

Usage:
    python scripts/symplectic_sweep.py --trials 500 --seed 42 --out sweep.json
"""

import argparse
import sys

import numpy as np

from holomech import SystemSpec
from holomech.cli import DEFAULT_SEED, build_parser, positive_int
from holomech.output import json_text, write_text_atomic
from holomech.symplectic import RESIDUAL_LIMITS, structure_trials, within_limits


def main(argv=None) -> int:
    # the defaults of `holomech verify-symplectic`; the seed ignores $HOLOMECH_SEED
    cli = build_parser().parse_args(["verify-symplectic"])
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=positive_int, default=500)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--potential", default=cli.potential)
    ap.add_argument("--mass", type=float, default=cli.mass)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = SystemSpec.from_source(args.potential, args.mass)
    data = {k: [] for k in RESIDUAL_LIMITS}
    r_minus_values = []
    n_fail = 0

    for _, frame, res in structure_trials(spec, np.random.default_rng(args.seed), args.trials):
        r_minus_values.append(frame.r_minus)
        n_fail += not within_limits(res)
        for k, values in data.items():
            values.append(res[k])

    print(f"sweep: {args.trials} trials, seed {args.seed}, "
          f"potential {args.potential}")
    print(f"{'residual':20s} {'p50':>10s} {'p95':>10s} {'max':>10s}")
    stats = {}
    for k, values in data.items():
        arr = np.array(values)
        p50, p95, mx = np.percentile(arr, [50, 95]).tolist() + [float(arr.max())]
        stats[k] = {"p50": p50, "p95": p95, "max": mx}
        print(f"{k:20s} {p50:10.2e} {p95:10.2e} {mx:10.2e}")
    print(f"r_minus range: [{min(r_minus_values):.3e}, {max(r_minus_values):.3e}]")

    if args.out:
        write_text_atomic(args.out, json_text({
            "trials": args.trials, "seed": args.seed,
            "potential": args.potential, "mass": args.mass,
            "stats": stats}))
        print(f"wrote {args.out}")
    if n_fail:
        print(f"{n_fail}/{args.trials} trials have a residual outside RESIDUAL_LIMITS",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
