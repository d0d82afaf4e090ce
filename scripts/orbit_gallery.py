#!/usr/bin/env python3
"""Integrate every catalog potential from a common initial condition and
write plot-ready CSVs plus a drift summary.

The run cross-checks both descriptions of the motion: each potential is
integrated in the complex frame and in the Darboux frame, the maximum
pointwise deviation between the two is recorded, and the energy-split drift
is tabulated.  Escape terminations (quartic/cubic potentials) are normal.

Usage:
    python scripts/orbit_gallery.py --out-dir out --t-end 8 --z0=0.2+0.1i --p0=1
"""

import argparse
import sys
from pathlib import Path

from holomech import (
    BUILTIN_SOURCES,
    GridMismatchError,
    IntegratorConfig,
    SystemSpec,
    equivalence_report,
    get_builtin,
    integrate_complex,
    integrate_darboux,
    w_to_darboux,
)
from holomech.cli import parse_complex
from holomech.hamiltonian import complex_to_darboux
from holomech.output import json_text, write_text_atomic, write_trajectory_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--t-end", type=float, default=8.0)
    ap.add_argument("--z0", type=parse_complex, default=0.2 + 0.1j)
    ap.add_argument("--p0", type=parse_complex, default=1.0 + 0j)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = IntegratorConfig(method="rk45", t_end=args.t_end)
    xi0 = complex_to_darboux(args.z0, args.p0)

    summary = {}
    print(f"{'potential':10s} {'terminated':12s} {'drift Hr':>10s} "
          f"{'drift Hi':>10s} {'frame dev':>10s}")
    for name in BUILTIN_SOURCES:
        spec = SystemSpec(get_builtin(name), 0.5)
        traj_c = integrate_complex(spec, args.z0, args.p0, cfg)
        traj_d = integrate_darboux(spec, xi0, cfg)
        try:
            dev = equivalence_report(traj_c, traj_d).max_deviation
        except GridMismatchError:
            dev = float("nan")  # one frame escaped earlier than the other
        write_trajectory_csv(out_dir / f"{name}.csv", traj_c.t, traj_c.states,
                             w_to_darboux(traj_c.states), traj_c.hr, traj_c.hi)
        summary[name] = {
            "terminated_by": traj_c.terminated_by,
            "drift_Hr": traj_c.drift_hr,
            "drift_Hi": traj_c.drift_hi,
            "frame_deviation": dev,
            "samples": int(len(traj_c.t)),
        }
        print(f"{name:10s} {traj_c.terminated_by:12s} {traj_c.drift_hr:10.2e} "
              f"{traj_c.drift_hi:10.2e} {dev:10.2e}")

    write_text_atomic(out_dir / "summary.json", json_text({
        "z0": args.z0, "p0": args.p0, "t_end": args.t_end, "runs": summary}))
    print(f"CSV files and summary.json written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
