"""The three benchmark workloads: seeded inputs, one op each, and its checks.

Every workload is a closed loop with one client: the next op starts only
when the previous one has returned.  Each op is built from ``(seed, k)``
alone, so the same seed gives the same inputs.  Only the call into the
program is timed; inputs are made before and checks run after.

The correctness checks share no code with the path under test: the exact
solutions of ``z^2`` and ``i*z`` at m = 1/2 are written out here, the CLI's
CSV is parsed back from disk, and the frame and table verdicts are compared
with limits restated here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import holomech.cli as cli
from holomech import closed_forms, dynamics, symplectic
from holomech.dynamics import GridMismatchError, IntegratorConfig, Trajectory
from holomech.hamiltonian import SystemSpec, w_to_darboux
from holomech.potentials import BUILTIN_SOURCES

CATALOG = tuple(BUILTIN_SOURCES)  # catalog names, in catalog order
MASS = 0.5
SQRT2 = math.sqrt(2.0)

# Documented outcomes: counted, never failures.
TERMINATIONS = ("t_end", "escape", "step_failure")


@dataclass
class Outcome:
    failed: bool = False
    reason: str = ""
    escape: int = 0
    step_failure: int = 0
    grid_mismatch: int = 0
    frame_dev: float | None = None
    drift: float | None = None

    def fail(self, reason: str) -> None:
        self.failed = True
        self.reason = self.reason or reason


# --------------------------------------------------------------------------
# Seeded inputs
# --------------------------------------------------------------------------


def _rd_step(d: int) -> np.ndarray:
    # Additive recurrence on the generalised golden ratio (Roberts' R_d
    # sequence).  Consecutive points fill the unit cube evenly, so the op-cost
    # mix of a few hundred ops varies little from seed to seed, which keeps
    # the end-to-end figures steady; the seed picks a random shift.
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return phi ** -np.arange(1.0, d + 1.0)


class _Points:
    """Seed-shifted low-discrepancy points in [0, 1)^d."""

    def __init__(self, seed: int, stream: int, d: int):
        self.shift = np.random.default_rng([seed, stream]).random(d)
        self.step = _rd_step(d)

    def __getitem__(self, k: int) -> np.ndarray:
        return (self.shift + (k + 1) * self.step) % 1.0


def _box(u: float) -> float:
    # [0, 1) -> [-1, 1), rounded so the CLI literal carries the exact value
    return round(2.0 * float(u) - 1.0, 6)


def complex_arg(z: complex) -> str:
    """RE+IMi literal, as the CLI parses it."""
    return f"{z.real!r}{z.imag:+}i"


# --------------------------------------------------------------------------
# Oracles: exact motion of z^2 and i*z at m = 1/2
# --------------------------------------------------------------------------


def exact_motion(name: str, z0: complex, p0: complex, t):
    """(z(t), p(t)) for v = z^2 or v = i*z at m = 1/2.

    A complex ``t`` gives the H_i symmetry flow: flowing by epsilon is the
    motion over complex time t = -i*epsilon/2.
    """
    t = np.asarray(t, dtype=complex)
    if name == "z2":
        c, s = np.cos(2.0 * t), np.sin(2.0 * t)
        return z0 * c + p0 * s, p0 * c - z0 * s
    if name == "iz":
        return z0 + 2.0 * p0 * t - 1j * t * t, p0 - 1j * t
    raise KeyError(name)


def _energy(name: str, z0: complex, p0: complex) -> complex:
    v = z0 * z0 if name == "z2" else 1j * z0
    return p0 * p0 / (2.0 * MASS) + v


ORACLES = ("z2", "iz")
# Max error against the exact motion, relative to 1 + |state|.  rk45 runs at
# tolerance 1e-10 and rk4 at dt = 2e-3 reach about 1e-9; Strang splitting is
# second order, about 1e-5 on z^2 over t = 4 at dt = 2e-3.
ORACLE_TOL = {"rk45": 1e-6, "rk4": 1e-6, "split": 1e-4}


def oracle_error(name, z0, p0, t, z, p, hr, hi) -> float:
    """Largest scaled deviation of states and invariants from the exact ones."""
    ze, pe = exact_motion(name, z0, p0, t)
    scale = 1.0 + np.maximum(np.abs(ze), np.abs(pe))
    err = np.maximum(np.abs(z - ze), np.abs(p - pe)) / scale
    h0 = _energy(name, z0, p0)
    err_h = np.maximum(np.abs(hr - h0.real), np.abs(hi - h0.imag)) / scale ** 2
    return float(max(np.max(err), np.max(err_h)))


def _z_p_complex_rows(w):
    """(x, p, y, q) rows -> z, p."""
    return w[:, 0] + 1j * w[:, 2], w[:, 1] + 1j * w[:, 3]


def _z_p_darboux_rows(xi):
    """(x1, p1, x2, p2) = sqrt(2) (x, p, q, y) rows -> z, p."""
    return (xi[:, 0] + 1j * xi[:, 3]) / SQRT2, (xi[:, 1] + 1j * xi[:, 2]) / SQRT2


def _finite_max(values) -> float | None:
    vals = [v for v in values if v is not None and math.isfinite(v)]
    return max(vals) if vals else None


# --------------------------------------------------------------------------
# Layer functions, plain or recorded
# --------------------------------------------------------------------------


def layers(tracer=None) -> SimpleNamespace:
    """The program functions the ops call.

    With a tracer, each is a recording copy, and the public names the
    program looks up internally are patched until ``tracer.restore()``.
    """
    lay = SimpleNamespace(
        integrate_complex=dynamics.integrate_complex,
        integrate_darboux=dynamics.integrate_darboux,
        equivalence_report=dynamics.equivalence_report,
        darboux_frame=symplectic.darboux_frame,
        build_real_J=symplectic.build_real_J,
        frame_residuals=symplectic.frame_residuals,
        verify_compatibility=symplectic.verify_compatibility,
        verify_reference_table=closed_forms.verify_reference_table,
        cli_main=cli.main,
    )
    if tracer is None:
        return lay
    counts = tracer.counts

    def on_traj(cfg_index):
        """Counts for integrate_* (config at ``args[cfg_index]``) or, with
        None, for invariant_flow."""
        def observe(args, traj, exc):
            if traj is None:
                return
            if cfg_index is None:
                counts["dynamics.flow_steps"] += traj.n_steps
            else:
                counts[f"dynamics.steps.{args[cfg_index].method}"] += traj.n_steps
                counts["dynamics.trajectories"] += 1
                counts["dynamics.escapes"] += traj.terminated_by == "escape"
            counts["dynamics.samples"] += len(traj.t)
            counts["dynamics.step_failures"] += traj.terminated_by == "step_failure"
            rows = _z_p_complex_rows if traj.frame == "complex" else _z_p_darboux_rows
            tracer.sample_points.append((args[0], rows(traj.states)[0]))
        return observe

    def on_equivalence(args, report, exc):
        if isinstance(exc, GridMismatchError):
            counts["dynamics.grid_mismatch"] += 1
        elif report is not None:
            counts["dynamics.equivalence_points"] += report.n_points

    def on_bytes(key, text_index):
        def observe(args, result, exc):
            text = result if text_index is None else args[text_index]
            if text is not None:
                counts[key] += len(text.encode())
        return observe

    def on_table(args, report, exc):
        if report is not None:
            counts["closed_forms.points"] += report["points"] * len(report["rows"])

    def on_compat(args, report, exc):
        spec, w = args[1], args[2]
        tracer.sample_points.append((spec, np.array([complex(w[0], w[2])])))

    def on_main(args, code, exc):
        counts[f"cli.exit_code.{code if code in (0, 1, 2, 3) else 'other'}"] += 1

    def integrate_name(cfg_index):
        return lambda args: f"dynamics.integrate.{args[cfg_index].method}"

    lay = SimpleNamespace(
        integrate_complex=tracer.wrap(integrate_name(3), lay.integrate_complex, on_traj(3)),
        integrate_darboux=tracer.wrap(integrate_name(2), lay.integrate_darboux, on_traj(2)),
        equivalence_report=tracer.wrap("dynamics.equivalence", lay.equivalence_report,
                                       on_equivalence),
        darboux_frame=tracer.wrap("symplectic.frame", lay.darboux_frame),
        build_real_J=tracer.wrap("symplectic.residuals", lay.build_real_J),
        frame_residuals=tracer.wrap("symplectic.residuals", lay.frame_residuals),
        verify_compatibility=tracer.wrap("symplectic.compat", lay.verify_compatibility,
                                         on_compat),
        verify_reference_table=tracer.wrap("closed_forms.verify",
                                           lay.verify_reference_table, on_table),
        cli_main=tracer.wrap("cli.main", lay.cli_main, on_main),
    )
    # Where the CLI looks the layer functions up.
    tracer.patch(cli, "integrate_complex", integrate_name(3), on_traj(3))
    tracer.patch(cli, "integrate_darboux", integrate_name(2), on_traj(2))
    tracer.patch(cli, "equivalence_report", "dynamics.equivalence", on_equivalence)
    tracer.patch(cli, "invariant_flow", "dynamics.flow", on_traj(None))
    tracer.patch(cli, "trajectory_csv", "output.csv", on_bytes("output.csv_bytes", None))
    tracer.patch(cli, "json_text", "output.json")
    tracer.patch(cli, "write_text_atomic", "output.write", on_bytes("output.write_bytes", 1))
    tracer.patch(Trajectory, "state_at", "dynamics.state_at")
    # Where the dynamics and closed-form layers call the hamiltonian layer.
    tracer.patch(dynamics, "hamiltonian_split", "hamiltonian.split")
    tracer.patch(closed_forms, "darboux_hamiltonian", "hamiltonian.darboux_eval")
    tracer.patch(closed_forms, "darboux_invariant", "hamiltonian.darboux_eval")
    return lay


def catalog_specs() -> dict[str, SystemSpec]:
    return {name: SystemSpec.from_source(src, MASS) for name, src in BUILTIN_SOURCES.items()}


# --------------------------------------------------------------------------
# ensemble_rk45
# --------------------------------------------------------------------------


class EnsembleRK45:
    """rk45 in both frames plus the cross-frame report, over the catalog."""

    name = "ensemble_rk45"
    # Traced counters that must stay 0: this workload writes no output.
    BYPASSED = ("output.csv_bytes", "output.write_bytes")
    T_END = 4.0
    CFG = IntegratorConfig(method="rk45", t_end=T_END)

    def __init__(self, seed: int):
        self.points = _Points(seed, 1, 4)

    def setup(self):
        self.specs = catalog_specs()

    def make_op(self, k: int):
        name = CATALOG[k % len(CATALOG)]
        u = self.points[k // len(CATALOG)]
        return name, complex(_box(u[0]), _box(u[1])), complex(_box(u[2]), _box(u[3]))

    def warmup(self, lay):
        self.run(lay, ("z2", 0.5 + 0.1j, -0.25 + 0.5j))

    def run(self, lay, op):
        name, z0, p0 = op
        spec = self.specs[name]
        tc = lay.integrate_complex(spec, z0, p0, self.CFG)
        xi0 = w_to_darboux(np.array([z0.real, p0.real, z0.imag, p0.imag]))
        td = lay.integrate_darboux(spec, xi0, self.CFG)
        try:
            report = lay.equivalence_report(tc, td)
        except GridMismatchError:
            report = None
        return tc, td, report

    def check(self, op, result) -> Outcome:
        name, z0, p0 = op
        tc, td, report = result
        out = Outcome(grid_mismatch=int(report is None))
        for traj in (tc, td):
            if traj.terminated_by not in TERMINATIONS:
                out.fail(f"unexpected termination {traj.terminated_by!r}")
            out.escape += traj.terminated_by == "escape"
            out.step_failure += traj.terminated_by == "step_failure"
        out.drift = _finite_max([tc.drift_hr, tc.drift_hi, td.drift_hr, td.drift_hi])
        if report is not None:
            out.frame_dev = report.max_deviation
        if name in ORACLES:
            errs = [oracle_error(name, z0, p0, tc.t, *_z_p_complex_rows(tc.states), tc.hr, tc.hi),
                    oracle_error(name, z0, p0, td.t, *_z_p_darboux_rows(td.states), td.hr, td.hi)]
            if not max(errs) <= ORACLE_TOL["rk45"]:
                out.fail(f"{name}: deviation {max(errs):.3e} from the exact motion")
        return out


# --------------------------------------------------------------------------
# cli_fixed_step
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    command: str  # "rk4", "split" or "hi-flow"
    name: str
    z0: complex
    p0: complex
    samples: int
    argv: tuple = field(repr=False)  # names the temporary directory


class CliFixedStep:
    """``holomech.cli.main`` in-process, writing CSV + JSON per op."""

    name = "cli_fixed_step"
    BYPASSED = ("dynamics.steps.rk45",)
    COMMANDS = ("rk4", "split", "hi-flow")
    DT = 2e-3
    D_EPS = 1e-3
    EXPECTED_EXIT = (0, 2)  # 2 is the documented step_failure outcome
    HEADER = ["t", "x", "y", "p", "q", "x1", "p1", "x2", "p2", "Hr", "Hi"]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.points = _Points(seed, 2, 4)
        self.sizes = _Points(seed, 3, 1)
        self.out = os.path.join(workdir, "traj.csv")
        self.summary = os.path.join(workdir, "traj.json")

    def setup(self):
        pass

    def _op(self, command, name, z0, p0, samples) -> CliOp:
        common = (f"--potential={BUILTIN_SOURCES[name]}", f"--z0={complex_arg(z0)}",
                  f"--p0={complex_arg(p0)}", f"--seed={self.seed}", f"--out={self.out}")
        if command == "hi-flow":
            argv = ("hi-flow",) + common + (f"--d-eps={self.D_EPS!r}",
                                            f"--eps-end={round(samples * self.D_EPS, 9)!r}")
        else:
            argv = ("simulate", "--frame=both", f"--method={command}") + common + (
                f"--dt={self.DT!r}", f"--t-end={round(samples * self.DT, 9)!r}")
        return CliOp(command, name, z0, p0, samples, argv)

    def make_op(self, k: int) -> CliOp:
        command = self.COMMANDS[k % 3]
        name = CATALOG[(k // 3) % len(CATALOG)]
        u = self.points[k]
        samples = 1000 + int(1000 * self.sizes[k][0])
        return self._op(command, name, complex(_box(u[0]), _box(u[1])),
                        complex(_box(u[2]), _box(u[3])), samples)

    def warmup(self, lay):
        for command in self.COMMANDS:
            self.run(lay, self._op(command, "z2", 0.5 + 0.1j, -0.25 + 0.5j, 50))

    def run(self, lay, op: CliOp):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = lay.cli_main(list(op.argv))
        return code, err.getvalue()

    def check(self, op: CliOp, result) -> Outcome:
        code, err = result
        out = Outcome()
        if code not in self.EXPECTED_EXIT:
            out.fail(f"exit code {code}: {err.strip()[:200]}")
            return out
        with open(self.summary) as fh:
            summary = json.load(fh)
        with open(self.out, newline="") as fh:
            rows = list(csv.reader(fh))
        terminated = summary["terminated_by"]
        out.escape = int(terminated == "escape")
        out.step_failure = int(terminated == "step_failure")
        out.grid_mismatch = int("grid_mismatch" in summary)
        if (code == 2) != (terminated == "step_failure") or terminated not in TERMINATIONS:
            out.fail(f"exit code {code} with termination {terminated!r}")
        if rows[0] != self.HEADER:
            out.fail(f"CSV header {rows[0]!r}")
            return out
        data = np.array(rows[1:], dtype=float)
        if len(data) != summary["samples"] or (
                terminated == "t_end" and len(data) != op.samples + 1):
            out.fail(f"{len(data)} CSV rows for {summary['samples']} samples")
        out.drift = _finite_max([summary["drift_Hr"], summary["drift_Hi"]])
        out.frame_dev = summary.get("max_frame_deviation")
        if op.name in ORACLES and terminated == "t_end":
            t = data[:, 0] if op.command != "hi-flow" else -0.5j * data[:, 0]
            x, y, p, q, x1, p1, x2, p2, hr, hi = data[:, 1:].T
            tol = ORACLE_TOL["rk4" if op.command == "hi-flow" else op.command]
            err = max(
                oracle_error(op.name, op.z0, op.p0, t, x + 1j * y, p + 1j * q, hr, hi),
                oracle_error(op.name, op.z0, op.p0, t, (x1 + 1j * p2) / SQRT2,
                             (p1 + 1j * x2) / SQRT2, hr, hi))
            if not err <= tol:
                out.fail(f"{op.command} {op.name}: deviation {err:.3e} from the exact motion")
        return out


# --------------------------------------------------------------------------
# structure_sweep
# --------------------------------------------------------------------------


class StructureSweep:
    """Darboux frames and compatibility over seeded J(a, b, alpha), then the
    closed-form table; no integration."""

    name = "structure_sweep"
    BYPASSED = ("dynamics.steps.rk45", "dynamics.steps.rk4", "dynamics.steps.split",
                "dynamics.flow_steps")
    STRUCTURES = 50
    TABLE_POINTS = 100
    # The limits `holomech verify-symplectic` applies.
    LIMITS = {"block_form": 1e-10, "orthogonality": 1e-12, "canonicity": 1e-10,
              "position_equation": 1e-10, "momentum_equation": 1e-10}
    DISCREPANT = {("iz", "h"), ("neg_z4", "Hi")}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.specs = catalog_specs()

    @staticmethod
    def _params(rng):
        # Uniform in [-2, 2]^4, kept 0.05 away from |alpha|^2 - ab = 1.
        while True:
            a, b, ar, ai = rng.uniform(-2.0, 2.0, size=4)
            if abs(ar * ar + ai * ai - a * b - 1.0) > 0.05:
                return symplectic.SymplecticParams(float(a), float(b), complex(ar, ai))

    def _op(self, rng, name):
        structures = tuple((self._params(rng), rng.uniform(-2.0, 2.0, size=4))
                           for _ in range(self.STRUCTURES))
        return name, structures, int(rng.integers(2 ** 31))

    def make_op(self, k: int):
        return self._op(np.random.default_rng([self.seed, 3, k]), CATALOG[k % len(CATALOG)])

    def warmup(self, lay):
        self.run(lay, self._op(np.random.default_rng(0), "iz3"))

    def run(self, lay, op):
        name, structures, table_seed = op
        spec = self.specs[name]
        rows = []
        for params, w in structures:
            frame = lay.darboux_frame(params)
            res = lay.frame_residuals(frame, lay.build_real_J(params))
            rows.append((frame, res, lay.verify_compatibility(params, spec, w)))
        return rows, lay.verify_reference_table(seed=table_seed, points=self.TABLE_POINTS)

    def check(self, op, result) -> Outcome:
        rows, table = result
        out = Outcome()
        for frame, res, compat in rows:
            if compat["residuals"] is None:
                out.fail("degenerate structure drawn")
                continue
            res = {**res, **compat["residuals"]}
            over = [key for key, lim in self.LIMITS.items() if not res[key] <= lim]
            orth = float(np.max(np.abs(frame.S.T @ frame.S - np.eye(4))))
            if over or not orth <= self.LIMITS["orthogonality"] or not compat["passed"]:
                out.fail(f"frame residuals over the limit: {over or ['orthogonality']}")
        discrepant = {(r["potential"], r["column"]) for r in table["rows"]
                      if r["status"] == "DISCREPANT"}
        corrected = all(r["corrected_max_deviation"] <= table["tolerance"]
                        for r in table["rows"] if r["status"] == "DISCREPANT")
        if not (table["n_pass"] == 10 and discrepant == self.DISCREPANT and corrected
                and table["consistent"] is True):
            out.fail(f"table verdict changed: {table['n_pass']} PASS, "
                     f"discrepant {sorted(discrepant)}, consistent {table['consistent']}")
        return out


WORKLOADS = {w.name: w for w in (EnsembleRK45, CliFixedStep, StructureSweep)}
