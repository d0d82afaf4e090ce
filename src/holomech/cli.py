"""Command-line interface.

Subcommands::

    simulate          integrate a trajectory (complex, darboux, or both frames)
    verify-table1     cross-check the bundled closed-form table against the
                      generic h / H_i construction
    verify-symplectic randomized sweep over structure parameters: Darboux
                      residuals and bracket compatibility
    darboux           build and print the Darboux frame of one structure
    hi-flow           integrate the symmetry flow generated by H_i
    constrain         solve H_i = 0 for x2

Exit codes: 0 success (including escape terminations), 1 usage or parse
errors, 2 numerical failure, 3 degenerate structure.  Complex literals on
the command line use the RE+IMi form (e.g. ``--z0 1.0+0.5i``); bare reals
are accepted as purely real.  All randomized verifications are seeded; the
seed is printed in every report and defaults to 42.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from array import array
from dataclasses import asdict

import numpy as np

from .closed_forms import verify_reference_table
from .dynamics import (
    ConstraintFreeError,
    ConstraintUnsolvableError,
    FlowConfig,
    GridMismatchError,
    METHODS,
    IntegratorConfig,
    _initial_xi,
    complex_view,
    equivalence_report,
    integrate_complex,
    integrate_darboux,
    invariant_flow,
    solve_invariant_zero,
)
from .hamiltonian import (SystemSpec, _row_to_pair, complex_to_darboux, darboux_invariant,
                          darboux_to_w, w_to_darboux)
from .output import check_target, json_text, summary_path, trajectory_csv, write_text_atomic
from .potentials import PotentialError
from .symplectic import (
    CONDITIONING_WARN_R_MINUS,
    RESIDUAL_LIMITS,
    DegenerateStructureError,
    SymplecticParams,
    build_real_J,
    darboux_frame,
    format_matrix,
    frame_residuals,
    structure_trials,
    within_limits,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_DEGENERATE = 3

DEFAULT_SEED = 42


def parse_complex(text: str) -> complex:
    """Parse 'RE+IMi' literals in one ``complex()`` call; bare reals are purely real."""
    s = text.strip().replace(" ", "")
    try:
        # the unit ends the literal or precedes its ")"; the i of inf stays
        return complex(re.sub(r"[iI](?=\)?$)", "j", s))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid complex literal {text!r}; expected RE+IMi, e.g. 1.0+0.5i"
        ) from None


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def parse_xi(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected four comma-separated reals: x1,p1,x2,p2")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid Darboux point {text!r}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _check_out(args) -> None:
    """Refuse, before any work, an ``--out`` the command could not write;
    ``simulate`` and ``hi-flow`` write their JSON summary after it."""
    if args.out is None:  # the report goes to stdout
        return
    check_target(args.out)
    if args.command in ("simulate", "hi-flow"):
        check_target(summary_path(args.out))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Run settings default to
    the field defaults of ``IntegratorConfig``, ``FlowConfig`` and ``SystemSpec``,
    the seed to ``DEFAULT_SEED``."""
    parser = _Parser(prog="holomech", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_args(p):
        p.add_argument("--potential", required=True,
                       help="potential expression, e.g. 'i*z^3'")
        p.add_argument("--mass", type=float, default=SystemSpec.mass)

    def add_start_args(p):
        p.add_argument("--z0", type=parse_complex, default=0j)
        p.add_argument("--p0", type=parse_complex, default=0j)
        p.add_argument("--xi0", type=parse_xi, default=None,
                       help="Darboux initial point x1,p1,x2,p2 (overrides --z0/--p0)")

    sim = sub.add_parser("simulate", help="integrate a trajectory")
    add_system_args(sim)
    add_start_args(sim)
    sim.add_argument("--frame", choices=["complex", "darboux", "both"],
                     default="complex")
    sim.add_argument("--method", choices=METHODS, default=IntegratorConfig.method)
    sim.add_argument("--dt", type=float, default=IntegratorConfig.dt)
    sim.add_argument("--rel-tol", type=float, default=IntegratorConfig.rel_tol)
    sim.add_argument("--abs-tol", type=float, default=IntegratorConfig.abs_tol)
    sim.add_argument("--t-end", type=float, default=IntegratorConfig.t_end)
    sim.add_argument("--escape-radius", type=float, default=IntegratorConfig.escape_radius)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--out", default="traj.csv")

    vt = sub.add_parser("verify-table1",
                        help="cross-check the closed-form reference table")
    vt.add_argument("--seed", type=int, default=DEFAULT_SEED)
    vt.add_argument("--points", type=positive_int, default=100)
    vt.add_argument("--out", default=None)

    vs = sub.add_parser("verify-symplectic",
                        help="randomized Darboux + compatibility sweep")
    vs.add_argument("--random", type=positive_int, default=100, metavar="N")
    vs.add_argument("--seed", type=int, default=DEFAULT_SEED)
    vs.add_argument("--potential", default="i*z^3")
    vs.add_argument("--mass", type=float, default=SystemSpec.mass)
    vs.add_argument("--out", default=None)

    db = sub.add_parser("darboux", help="Darboux frame of one structure")
    db.add_argument("--a", type=float, default=0.0)
    db.add_argument("--b", type=float, default=0.0)
    db.add_argument("--alpha", type=parse_complex, default=0j)
    db.add_argument("--out", default=None)

    hf = sub.add_parser("hi-flow", help="integrate the H_i symmetry flow")
    add_system_args(hf)
    add_start_args(hf)
    hf.add_argument("--eps-end", type=float, default=FlowConfig.epsilon_end)
    hf.add_argument("--d-eps", type=float, default=FlowConfig.d_epsilon)
    hf.add_argument("--seed", type=int, default=DEFAULT_SEED)
    hf.add_argument("--out", default="traj.csv")

    cn = sub.add_parser("constrain", help="solve H_i = 0 for x2")
    add_system_args(cn)
    cn.add_argument("--x1", type=float, required=True)
    cn.add_argument("--p1", type=float, required=True)
    cn.add_argument("--p2", type=float, required=True)
    cn.add_argument("--out", default=None)

    return parser


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _start(args):
    """(z0, p0, xi0) of --xi0 if given, else of --z0/--p0, whose Darboux
    image must be finite (a part above about 1.27e308 overflows it)."""
    if args.xi0 is not None:
        _initial_xi(args.xi0)  # one message for a bad --xi0 in every method and frame
        return *_row_to_pair(darboux_to_w(args.xi0), "complex"), args.xi0
    z0, p0 = args.z0, args.p0
    xi0 = complex_to_darboux(z0, p0)
    if not np.isfinite(xi0).all():
        raise ValueError(f"initial data z0={_literal(z0)}, p0={_literal(p0)} has no "
                         "finite Darboux image sqrt(2)*(x, p, q, y)")
    return z0, p0, xi0


def _literal(value: complex) -> str:
    """``value`` in the RE+IMi form that ``parse_complex`` reads back exactly."""
    return f"{value.real}{value.imag:+}i"


def _frame_runs(spec, frame, z0, p0, xi0, cfg):
    """(complex, Darboux) trajectories that ``--frame`` writes, None for one it
    does not.  ``split`` steps in the Darboux frame, so in every frame its one
    run from xi0 and that run's ``complex_view`` serve both; the other methods
    integrate each frame asked for from its own start."""
    split = cfg.method == "split"
    traj_d = integrate_darboux(spec, xi0, cfg) if split or frame != "complex" else None
    if split:
        return complex_view(traj_d), traj_d
    return (integrate_complex(spec, z0, p0, cfg) if frame != "darboux" else None), traj_d


def _write_run(args, summary, traj_c, traj_d) -> int:
    """Add the shared run fields to ``summary``, write the CSV and then the
    summary, print the run's line; exit 0 if it ran to the end or escaped.
    One run fills the other frame's columns with its states mapped; given two,
    the Darboux rows are read on the complex grid up to where both runs end."""
    traj = traj_c or traj_d
    t, states = traj.t, traj.states
    if traj_c is None:
        w_rows, xi_rows = darboux_to_w(states), states
    elif traj_d is None:
        w_rows, xi_rows = states, w_to_darboux(states)
    else:
        t = t[:np.searchsorted(t, min(t[-1], traj_d.t[-1]), side="right")]
        w_rows, xi_rows = states[:len(t)], traj_d.state_at(t)
    summary.update({
        "command": args.command,
        "potential": args.potential,
        "mass": args.mass,
        "seed": args.seed,
        "drift_Hr": traj.drift_hr,
        "drift_Hi": traj.drift_hi,
        "terminated_by": traj.terminated_by,
        "n_steps": traj.n_steps,
        "n_rhs": traj.n_rhs,
        "n_rejected": traj.n_rejected,
        "samples": len(t),
    })
    trajectory_csv(args.out, t, w_rows, xi_rows, traj.hr[:len(t)], traj.hi[:len(t)])
    write_text_atomic(summary_path(args.out), json_text(summary))
    print(f"wrote {args.out} ({len(t)} samples), terminated by {traj.terminated_by}; "
          f"drift Hr={traj.drift_hr:.3e} Hi={traj.drift_hi:.3e}")
    return EXIT_OK if traj.terminated_by in ("t_end", "escape") else EXIT_NUMERICAL


def cmd_simulate(args) -> int:
    spec = SystemSpec.from_source(args.potential, args.mass)
    cfg = IntegratorConfig(method=args.method, dt=args.dt,
                           rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                           t_end=args.t_end, escape_radius=args.escape_radius)
    z0, p0, xi0 = _start(args)
    summary = {"frame": args.frame, **asdict(cfg), "z0": z0, "p0": p0, "xi0": xi0}
    traj_c, traj_d = _frame_runs(spec, args.frame, z0, p0, xi0, cfg)
    if args.frame == "both":
        try:
            eq = equivalence_report(traj_c, traj_d)
            summary["max_frame_deviation"] = eq.max_deviation
            summary["frames_equivalent"] = eq.passed
        except GridMismatchError as exc:
            summary["max_frame_deviation"] = None
            summary["frames_equivalent"] = False
            summary["grid_mismatch"] = str(exc)
    return _write_run(args, summary, traj_c, traj_d)


def cmd_verify_table1(args) -> int:
    report = verify_reference_table(seed=args.seed, points=args.points)
    _emit(json_text(report), args.out)
    return EXIT_OK if report["consistent"] else EXIT_NUMERICAL


def cmd_verify_symplectic(args) -> int:
    spec = SystemSpec.from_source(args.potential, args.mass)
    values = array("d")  # per trial: the RESIDUAL_LIMITS residuals, then r_minus
    failures = []
    trials = structure_trials(spec, np.random.default_rng(args.seed), args.random)
    for k, (params, frame, res) in enumerate(trials):
        values.extend([res[key] for key in RESIDUAL_LIMITS])
        values.append(frame.r_minus)
        if not within_limits(res):
            failures.append({"trial": k,
                             "params": params,
                             "residuals": res})
    table = np.frombuffer(values).reshape(args.random, -1)
    residuals, r_minus = table[:, :-1], table[:, -1]
    # a NaN propagates through max and percentile: it is the worst value; one
    # between two infinite residuals is inf - inf, NaN, which prints null too
    with np.errstate(invalid="ignore"):
        p50, p95 = np.percentile(residuals, [50, 95], axis=0)
    n_pass = args.random - len(failures)
    report = {
        "command": "verify-symplectic",
        "seed": args.seed,
        "potential": args.potential,
        "mass": args.mass,
        "trials": args.random,
        "n_pass": n_pass,
        "worst_residuals": dict(zip(RESIDUAL_LIMITS, residuals.max(axis=0))),
        "p50_residuals": dict(zip(RESIDUAL_LIMITS, p50)),
        "p95_residuals": dict(zip(RESIDUAL_LIMITS, p95)),
        "r_minus_range": [r_minus.min(), r_minus.max()],
        "failures": failures,
        "passed": n_pass == args.random,
    }
    _emit(json_text(report), args.out)
    print(f"{n_pass}/{args.random} PASS (seed {args.seed})")
    return EXIT_OK if n_pass == args.random else EXIT_NUMERICAL


def cmd_darboux(args) -> int:
    params = SymplecticParams(args.a, args.b, args.alpha)
    J = build_real_J(params)  # raises DegenerateStructureError
    frame = darboux_frame(params)
    res = frame_residuals(frame, J)
    lines = [
        f"params: a={args.a:g} b={args.b:g} "
        f"alpha={args.alpha.real:g}{args.alpha.imag:+g}i",
        f"r_plus  = {frame.r_plus:.17g}",
        f"r_minus = {frame.r_minus:.17g}",
        "J =",
        format_matrix(J),
        "S =",
        format_matrix(frame.S),
        f"residual |S^T J S - J'|   = {res['block_form']:.3e}",
        f"residual |S^T S - I|      = {res['orthogonality']:.3e}",
        f"residual canonicity       = {res['canonicity']:.3e}",
    ]
    if frame.r_minus < CONDITIONING_WARN_R_MINUS:
        lines.append(f"warning: r_minus < {CONDITIONING_WARN_R_MINUS:g}, "
                     "near-degenerate structure")
    ok = within_limits(res)
    lines.append("PASS" if ok else "FAIL")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_hi_flow(args) -> int:
    spec = SystemSpec.from_source(args.potential, args.mass)
    xi0 = _start(args)[2]
    flow = FlowConfig(epsilon_end=args.eps_end, d_epsilon=args.d_eps)
    return _write_run(args, {"xi0": xi0, **asdict(flow)}, None,
                      invariant_flow(spec, xi0, flow))


def cmd_constrain(args) -> int:
    if not np.isfinite([args.x1, args.p1, args.p2]).all():
        raise ValueError(f"x1, p1 and p2 must be finite, got {args.x1}, {args.p1}, {args.p2}")
    spec = SystemSpec.from_source(args.potential, args.mass)
    report = {
        "command": "constrain",
        "potential": args.potential,
        "mass": args.mass,
        "x1": args.x1,
        "p1": args.p1,
        "p2": args.p2,
    }
    try:
        x2 = solve_invariant_zero(spec, args.x1, args.p1, args.p2)
    except ConstraintFreeError:
        report["status"] = "any"
        report["x2"] = 0.0
        report["note"] = "p1 = 0 and v_i = 0: every x2 satisfies H_i = 0"
        _emit(json_text(report), args.out)
        return EXIT_OK
    except ConstraintUnsolvableError as exc:
        report["status"] = "unsolvable"
        report["error"] = str(exc)
        _emit(json_text(report), args.out)
        print(f"constrain: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report["status"] = "solved"
    report["x2"] = x2
    report["hi_residual"] = darboux_invariant(
        spec, np.array([args.x1, args.p1, x2, args.p2]))
    _emit(json_text(report), args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify-table1": cmd_verify_table1,
    "verify-symplectic": cmd_verify_symplectic,
    "darboux": cmd_darboux,
    "hi-flow": cmd_hi_flow,
    "constrain": cmd_constrain,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(args)
        return _COMMANDS[args.command](args)
    except PotentialError as exc:
        print(f"holomech: potential error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateStructureError as exc:
        print(f"holomech: degenerate structure: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError) as exc:
        print(f"holomech: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
