#!/usr/bin/env python3
"""Integrate every catalog potential from a common initial condition and
write plot-ready CSVs plus a drift summary.

Each potential runs through ``holomech simulate --frame both``: the motion
is integrated in the complex frame and in the Darboux frame, each CSV holds
both runs' rows with the run's JSON summary beside it, and summary.json
tabulates the energy-split drift and the maximum deviation between the
frames.  Escape terminations (quartic/cubic potentials) are normal.  A start
the CLI rejects ends the script with the CLI's exit code and message, and an
output directory or output file it cannot write ends it with exit 1 and one
line, both before any run.  When a run fails numerically (the CLI's exit 2),
every run and summary.json are still written and the script exits 2.

Usage:
    python scripts/orbit_gallery.py --out-dir out --t-end 8 --z0=0.2+0.1i --p0=1
"""

import argparse
import json
import math
import sys
from pathlib import Path

from holomech import BUILTIN_SOURCES, cli
from holomech.output import check_target, json_text, write_text_atomic


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--t-end", type=float, default=8.0)
    ap.add_argument("--z0", type=cli.parse_complex, default=0.2 + 0.1j)
    ap.add_argument("--p0", type=cli.parse_complex, default=1.0 + 0j)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    outs = {name: out_dir / f"{name}.csv" for name in BUILTIN_SOURCES}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for out in outs.values():
            check_target(out)
            check_target(cli._summary_path(out))
        check_target(out_dir / "summary.json")
    except OSError as exc:
        print(f"orbit_gallery: error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    status = cli.EXIT_OK
    runs = {}
    for name, src in BUILTIN_SOURCES.items():
        out = outs[name]
        code = cli.main(["simulate", "--frame=both", f"--potential={src}",
                         f"--t-end={args.t_end!r}", f"--z0={cli._literal(args.z0)}",
                         f"--p0={cli._literal(args.p0)}", f"--out={out}"])
        if code in (cli.EXIT_USAGE, cli.EXIT_DEGENERATE):
            return code
        status = max(status, code)
        run = json.loads(cli._summary_path(out).read_text())
        run["frame_deviation"] = run["max_frame_deviation"]
        runs[name] = {key: run[key] for key in (
            "terminated_by", "drift_Hr", "drift_Hi", "frame_deviation", "samples")}

    print(f"{'potential':10s} {'terminated':12s} {'drift Hr':>10s} "
          f"{'drift Hi':>10s} {'frame dev':>10s}")
    for name, run in runs.items():
        # the summaries write a value that is not finite as null
        hr, hi, dev = (math.nan if run[k] is None else run[k]
                       for k in ("drift_Hr", "drift_Hi", "frame_deviation"))
        print(f"{name:10s} {run['terminated_by']:12s} {hr:10.2e} {hi:10.2e} {dev:10.2e}")

    write_text_atomic(out_dir / "summary.json", json_text({
        "z0": args.z0, "p0": args.p0, "t_end": args.t_end, "runs": runs}))
    print(f"CSV files, their JSON summaries and summary.json written to {out_dir}/")
    return status


if __name__ == "__main__":
    sys.exit(main())
