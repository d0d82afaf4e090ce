"""Trajectory integration in the complex and Darboux descriptions.

The motion is two complex scalars, dz/dt = p/m and dp/dt = -v'(z).  One
integration loop, ``_drive``, steps a state held as a pair of Python
complex numbers; it owns the time grid or the step-size controller, the
escape test and the recording of samples, and turns whatever a step raises
on leaving double precision into a step failure or a smaller step.  Runs
differ only in the field and the one-step rule handed to it.

Fields (z, p) -> (dz/dt, dp/dt): the complex frame; the Darboux frame on
the packed pair Z = x1 + i p2, P = p1 + i x2, which is sqrt(2) (z, p), with
its force -sqrt(2) v'(Z/sqrt2) evaluated in its own arithmetic so that the
cross-frame deviation stays a genuine check; and the H_i flow, which is the
Darboux field at complex time dt = -i d(epsilon)/2.  Each field checks its
own values and raises PotentialOverflowError on a non-finite one.

Step rules, each straight-line code over the pair with the tableau
coefficients written in:

* ``rk4``   - classical Runge-Kutta on the fixed grid t_k = k dt, ending at
  t_end;
* ``rk45``  - Dormand-Prince 5(4) with elementary step control (Hairer,
  Norsett and Wanner, *Solving ODEs I*, II.5); samples at accepted steps,
  dense output by cubic Hermite interpolation;
* ``split`` - Strang kick-drift-kick splitting of h = F(p1, x2) + G(x1, p2)
  in the Darboux frame (Hairer, Lubich and Wanner, *Geometric Numerical
  Integration*, II.5); both partial flows are exact, so each step preserves
  the standard symplectic two-form.

Escape through ``escape_radius`` is a normal termination (cubic and quartic
potentials reach infinity in finite time from generic data); a non-finite
state or a controller step-size underflow is reported as
``terminated_by="step_failure"``.  Samples become (N, 4) float rows in the
w or xi layout once, when the ``Trajectory`` is built, together with the
energy split (H_r, H_i) per sample, one ``hamiltonian_split`` call on the
whole stack, and its maximum drift.  H_i is an independent integral of
motion; ``invariant_flow`` integrates its flow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import (
    SystemSpec,
    darboux_to_w,
    hamiltonian_split,
    w_to_darboux,
)
from .potentials import PotentialOverflowError

__all__ = [
    "METHOD_ALIASES",
    "IntegratorConfig",
    "FlowConfig",
    "Trajectory",
    "ConstraintUnsolvableError",
    "ConstraintFreeError",
    "GridMismatchError",
    "EquivalenceReport",
    "integrate_complex",
    "integrate_darboux",
    "split_step",
    "invariant_flow",
    "invariant_flow_field",
    "solve_invariant_zero",
    "equivalence_report",
]

_SQRT2 = math.sqrt(2.0)

METHOD_ALIASES = {
    "rk4": "rk4", "fixed-rk4": "rk4",
    "rk45": "rk45", "adaptive-rk45": "rk45",
    "split": "split", "split-step": "split",
}

# Adaptive controller underflow threshold: below this step size the
# integration is abandoned as a step failure.
_MIN_STEP = 1e-14


class ConstraintUnsolvableError(ZeroDivisionError):
    """H_i = 0 has no solution for x2: p1 = 0 while v_i != 0."""


class ConstraintFreeError(ValueError):
    """Every x2 satisfies H_i = 0: p1 = 0 and v_i = 0 at the point."""


class GridMismatchError(ValueError):
    """Trajectories cover different time ranges; no common comparison grid."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    dt applies to the fixed-step methods, (rel_tol, abs_tol) to the adaptive
    one.  Defaults favor the conservation tests: adaptive rk45 at 1e-10.
    """

    method: str = "rk45"
    dt: float = 1e-3
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    t_end: float = 10.0
    escape_radius: float = 1e3

    def __post_init__(self):
        if self.method not in METHOD_ALIASES:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {sorted(set(METHOD_ALIASES))}")
        object.__setattr__(self, "method", METHOD_ALIASES[self.method])
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be a finite nonnegative real")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be a positive finite real")
        if self.t_end > 0.0 and self.method != "rk45" and self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not (0.0 < tol <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2], got {tol!r}")
        if not (self.escape_radius > 0.0):
            raise ValueError("escape_radius must be positive")


@dataclass(frozen=True)
class FlowConfig:
    """Settings for the H_i symmetry flow in the flow parameter epsilon."""

    epsilon_end: float = 1.0
    d_epsilon: float = 1e-3

    def __post_init__(self):
        if not math.isfinite(self.epsilon_end):
            raise ValueError("epsilon_end must be finite")
        if not (self.d_epsilon > 0.0 and math.isfinite(self.d_epsilon)):
            raise ValueError("d_epsilon must be a positive finite real")


@dataclass
class Trajectory:
    """Sampled trajectory with per-sample invariants and drift statistics.

    ``states`` holds w = (x, p, y, q) rows for frame "complex" and
    xi = (x1, p1, x2, p2) rows for frame "darboux"; ``derivs`` holds the
    vector field at each sample (used for cubic Hermite dense output).
    For flows in epsilon, ``t`` carries the flow parameter, descending from
    0 on a backwards flow, and ``derivs`` are derivatives in epsilon.  Treat
    instances as read-only once produced; batch runs over initial conditions
    may then integrate concurrently with no shared mutable state.
    """

    frame: str
    t: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    hr: np.ndarray
    hi: np.ndarray
    terminated_by: str
    n_steps: int
    drift_hr: float = field(init=False)
    drift_hi: float = field(init=False)

    def __post_init__(self):
        self.drift_hr = _max_drift(self.hr)
        self.drift_hi = _max_drift(self.hi)

    def state_at(self, t_query) -> np.ndarray:
        """Cubic Hermite interpolation between recorded samples.

        A scalar time gives one row of shape (4,), a 1-D array of N times an
        (N, 4) stack.  Times outside the samples extrapolate the end
        intervals.
        """
        tq = np.asarray(t_query, dtype=float)
        if tq.ndim > 1:
            raise ValueError("state_at takes a scalar or a 1-D array of times")
        rows = _hermite(self.t, self.states, self.derivs, tq.reshape(-1))
        return rows[0] if tq.ndim == 0 else rows

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _max_drift(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return math.nan
    return float(np.max(np.abs(finite - values[0]))) if np.isfinite(values[0]) else math.nan


def _hermite(ts: np.ndarray, ys: np.ndarray, ds: np.ndarray, tq: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of the samples (ts, ys, ds) at the 1-D times tq.

    ``ts`` ascends, or descends (a backwards flow, whose ``ds`` are still
    derivatives in t).  Returns (N, 4) rows.  Queries outside the samples
    use the first or last interval; a zero-length interval gives its left
    sample, and a single sample is returned for every query.
    """
    if len(ts) == 1:
        return np.repeat(ys[:1], len(tq), axis=0)
    if ts[-1] < ts[0]:
        ts, ys, ds = ts[::-1], ys[::-1], ds[::-1]
    i = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    flat = h == 0.0
    s = (tq - ts[i]) / np.where(flat, 1.0, h)
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    rows = (h00[:, None] * ys[i] + (h * h10)[:, None] * ds[i]
            + h01[:, None] * ys[i + 1] + (h * h11)[:, None] * ds[i + 1])
    rows[flat] = ys[i[flat]]
    return rows


# --------------------------------------------------------------------------
# Vector fields on the pair (z, p)
# --------------------------------------------------------------------------

# Per frame: the size of the pair relative to (z, p), and the row layout as
# columns of (Re z, Im z, Re p, Im p), which is also what a complex (N, 2)
# array of pairs viewed as float holds.
_FRAMES = {
    "complex": (1.0, [0, 2, 1, 3]),      # w = (x, p, y, q)
    "darboux": (_SQRT2, [0, 2, 3, 1]),   # xi = (x1, p1, x2, p2); Z = x1 + i p2, P = p1 + i x2
}


def _complex_field(dv, m):
    def rhs(z, p):
        dz, dp = p / m, -dv(z)
        if cmath.isfinite(dz) and cmath.isfinite(dp):
            return dz, dp
        raise PotentialOverflowError("non-finite vector field")

    return rhs


def _darboux_field(dv, m):
    def rhs(Z, P):
        dZ, dP = P / m, -_SQRT2 * dv(Z / _SQRT2)
        if cmath.isfinite(dZ) and cmath.isfinite(dP):
            return dZ, dP
        raise PotentialOverflowError("non-finite vector field")

    return rhs


def _hi_field(dv, m, sign=1.0):
    """d(Z, P)/d(eps) = {(Z, P), H_i}, the Darboux field at dt = -i d(eps)/2;
    ``sign`` = -1 runs it backwards."""
    m2 = 2.0 * m

    def rhs(Z, P):
        d = dv(Z / _SQRT2)
        dZ, dP = sign * (-1j * P / m2), sign * (1j * d / _SQRT2)
        if cmath.isfinite(dZ) and cmath.isfinite(dP):
            return dZ, dP
        raise PotentialOverflowError("non-finite vector field")

    return rhs


def _pack(xi) -> tuple[complex, complex]:
    """(x1, p1, x2, p2) -> (Z, P) = (x1 + i p2, p1 + i x2)."""
    return complex(xi[0], xi[3]), complex(xi[1], xi[2])


def _unpack(Z: complex, P: complex) -> np.ndarray:
    return np.array([Z.real, P.real, P.imag, Z.imag])


def _rows(pairs, columns) -> np.ndarray:
    """List of (z, p) pairs -> (N, 4) float rows in the given layout."""
    return np.array(pairs, dtype=complex).view(float)[:, columns]


def invariant_flow_field(spec: SystemSpec, xi) -> np.ndarray:
    """Generator of the H_i symmetry through the standard bracket.

    d(xi)/d(epsilon) = {xi, H_i} = (x2/(2m), -Im v'/sqrt2, Re v'/sqrt2,
    -p1/(2m)) with v' evaluated at (x1 + i p2)/sqrt(2); one infinitesimal
    step xi + eps * field is the first-order symmetry transformation.
    """
    return _unpack(*_hi_field(spec.dv, spec.mass)(*_pack(xi)))


# --------------------------------------------------------------------------
# One-step rules: rule(f, z, p, k, h) -> (z, p, k, err).  k is the field at
# (z, p) going in and at the new pair coming out; err is the embedded error
# pair of an adaptive rule, else None.
# --------------------------------------------------------------------------

# The Runge-Kutta rules are written out stage by stage with the tableau
# coefficients inlined.  Every stage sum is accumulated from 0j in row order
# over the nonzero coefficients, so its bits, signed zeros included, are
# those of the plain sum over the full tableau row.  Stage times are omitted:
# every vector field integrated here is autonomous.

def _dp45_rule(f, z, p, k, h):
    """Dormand-Prince 5(4) (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5).

    The fifth-order solution is propagated, its field is the last stage
    (FSAL), and err is h times the difference of the fifth- and
    fourth-order weights applied to the stages.
    """
    kz1, kp1 = k
    kz2, kp2 = f(z + h * (0j + 1 / 5 * kz1),
                 p + h * (0j + 1 / 5 * kp1))
    kz3, kp3 = f(z + h * (0j + 3 / 40 * kz1 + 9 / 40 * kz2),
                 p + h * (0j + 3 / 40 * kp1 + 9 / 40 * kp2))
    kz4, kp4 = f(z + h * (0j + 44 / 45 * kz1 + -56 / 15 * kz2 + 32 / 9 * kz3),
                 p + h * (0j + 44 / 45 * kp1 + -56 / 15 * kp2 + 32 / 9 * kp3))
    kz5, kp5 = f(z + h * (0j + 19372 / 6561 * kz1 + -25360 / 2187 * kz2
                          + 64448 / 6561 * kz3 + -212 / 729 * kz4),
                 p + h * (0j + 19372 / 6561 * kp1 + -25360 / 2187 * kp2
                          + 64448 / 6561 * kp3 + -212 / 729 * kp4))
    kz6, kp6 = f(z + h * (0j + 9017 / 3168 * kz1 + -355 / 33 * kz2 + 46732 / 5247 * kz3
                          + 49 / 176 * kz4 + -5103 / 18656 * kz5),
                 p + h * (0j + 9017 / 3168 * kp1 + -355 / 33 * kp2 + 46732 / 5247 * kp3
                          + 49 / 176 * kp4 + -5103 / 18656 * kp5))
    z = z + h * (0j + 35 / 384 * kz1 + 500 / 1113 * kz3 + 125 / 192 * kz4
                 + -2187 / 6784 * kz5 + 11 / 84 * kz6)
    p = p + h * (0j + 35 / 384 * kp1 + 500 / 1113 * kp3 + 125 / 192 * kp4
                 + -2187 / 6784 * kp5 + 11 / 84 * kp6)
    kz7, kp7 = f(z, p)
    # fifth- minus fourth-order weights
    ez = (0j + (35 / 384 - 5179 / 57600) * kz1 + (500 / 1113 - 7571 / 16695) * kz3
          + (125 / 192 - 393 / 640) * kz4 + (-2187 / 6784 - -92097 / 339200) * kz5
          + (11 / 84 - 187 / 2100) * kz6 + (0.0 - 1 / 40) * kz7)
    ep = (0j + (35 / 384 - 5179 / 57600) * kp1 + (500 / 1113 - 7571 / 16695) * kp3
          + (125 / 192 - 393 / 640) * kp4 + (-2187 / 6784 - -92097 / 339200) * kp5
          + (11 / 84 - 187 / 2100) * kp6 + (0.0 - 1 / 40) * kp7)
    return z, p, (kz7, kp7), (h * ez, h * ep)


def _rk4_rule(f, z, p, k, h):
    """Classical fourth-order Runge-Kutta."""
    kz1, kp1 = k
    kz2, kp2 = f(z + h * (0j + 0.5 * kz1), p + h * (0j + 0.5 * kp1))
    kz3, kp3 = f(z + h * (0j + 0.5 * kz2), p + h * (0j + 0.5 * kp2))
    kz4, kp4 = f(z + h * (0j + 1.0 * kz3), p + h * (0j + 1.0 * kp3))
    z = z + h / 6.0 * (kz1 + 2.0 * kz2 + 2.0 * kz3 + kz4)
    p = p + h / 6.0 * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4)
    return z, p, f(z, p), None


_RK_RULES = {"rk45": _dp45_rule, "rk4": _rk4_rule}


def _kdk(dv, m, Z, P, h):
    """Strang kick-drift-kick step of the packed Darboux pair.

    The kicks are the exact flow of G(x1, p2), the drift the exact flow of
    F(p1, x2).
    """
    kick = 0.5 * h * _SQRT2
    P = P - kick * dv(Z / _SQRT2)
    Z = Z + h * P / m
    return Z, P - kick * dv(Z / _SQRT2)


def _split_rule(dv, m):
    def rule(f, Z, P, k, h):
        Z, P = _kdk(dv, m, Z, P, h)
        return Z, P, f(Z, P), None

    return rule


def split_step(spec: SystemSpec, xi, dt: float) -> np.ndarray:
    """One Strang step of the Darboux-frame dynamics.

    Kick-drift-kick composition of the exact flows of G(x1, p2) (potential
    part) and F(p1, x2) (kinetic part); second-order accurate and exactly
    symplectic for the standard structure.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return _unpack(*_kdk(spec.dv, spec.mass, *_pack(xi), dt))


# --------------------------------------------------------------------------
# The integration loop
# --------------------------------------------------------------------------

# What a step raises on leaving double precision: OverflowError,
# ZeroDivisionError, cmath domain errors and the PotentialOverflowError of a
# field with a non-finite value.
_STEP_ERRORS = (ArithmeticError, ValueError)


def _error_norm(cfg: IntegratorConfig, darboux: bool, z, p, z1, p1, ez, ep) -> float:
    """RMS of the error pair (ez, ep) scaled by the tolerances.

    The squares are summed in the order of the frame's row components.
    """
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    xr = ez.real / (atol + rtol * max(abs(z.real), abs(z1.real)))
    xi = ez.imag / (atol + rtol * max(abs(z.imag), abs(z1.imag)))
    yr = ep.real / (atol + rtol * max(abs(p.real), abs(p1.real)))
    yi = ep.imag / (atol + rtol * max(abs(p.imag), abs(p1.imag)))
    total = xr * xr + yr * yr
    if darboux:  # (x1, p1, x2, p2) = (Re Z, Re P, Im P, Im Z)
        total = total + yi * yi + xi * xi
    else:        # (x, p, y, q) = (Re z, Re p, Im z, Im p)
        total = total + xi * xi + yi * yi
    return math.sqrt(total / 4.0)


def _drive(rule, f, z, p, cfg: IntegratorConfig, frame: str):
    """Integrate the pair (z, p) of ``frame`` over [0, t_end] with one rule.

    Escape is tested on |z| and |p| of the complex frame in either frame.
    Returns (t, pairs, field pairs, terminated_by, n_steps).
    """
    unit = _FRAMES[frame][0]
    darboux = frame == "darboux"
    ts, pairs, derivs = [0.0], [(z, p)], []
    try:
        k = f(z, p)
    except _STEP_ERRORS:
        # cannot even start; report failure with the initial sample only
        return ts, pairs, [(0j, 0j)], "step_failure", 0
    derivs.append(k)
    adaptive = cfg.method == "rk45"
    # fixed grid t_n = n dt, with t_end as its last point
    n_grid = math.ceil(cfg.t_end / cfg.dt - 1e-12) if cfg.t_end > 0.0 else 0
    t, h, n = 0.0, min(1e-3, cfg.t_end), 0
    while True:
        if abs(z) / unit > cfg.escape_radius or abs(p) / unit > cfg.escape_radius:
            return ts, pairs, derivs, "escape", n
        if adaptive:
            remaining = cfg.t_end - t
            if remaining <= 1e-13 * max(1.0, cfg.t_end):
                break  # landed within rounding of t_end; not a failure
            h = min(h, remaining)
            if h < _MIN_STEP:
                return ts, pairs, derivs, "step_failure", n
            t_next = t + h
        elif n < n_grid:
            t_next = (n + 1) * cfg.dt if n + 1 < n_grid else cfg.t_end
            h = t_next - t
        else:
            break
        try:
            z1, p1, k1, err = rule(f, z, p, k, h)
            ok = cmath.isfinite(z1) and cmath.isfinite(p1)
        except _STEP_ERRORS:
            ok = False
        if adaptive:
            if not (ok and cmath.isfinite(err[0]) and cmath.isfinite(err[1])):
                h *= 0.25
                continue
            e = _error_norm(cfg, darboux, z, p, z1, p1, *err)
            h *= min(5.0, max(0.2, 0.9 * (e + 1e-300) ** -0.2))
            if e > 1.0:
                continue
        elif not ok:
            return ts, pairs, derivs, "step_failure", n
        t, z, p, k = t_next, z1, p1, k1
        n += 1
        ts.append(t)
        pairs.append((z, p))
        derivs.append(k)
    return ts, pairs, derivs, "t_end", n


# --------------------------------------------------------------------------
# Public integration entry points
# --------------------------------------------------------------------------


def _trajectory(frame: str, spec: SystemSpec, run) -> Trajectory:
    ts, pairs, derivs, terminated, n_steps = run
    columns = _FRAMES[frame][1]
    states = _rows(pairs, columns)
    hr, hi = hamiltonian_split(spec, states if frame == "complex" else darboux_to_w(states))
    return Trajectory(frame=frame, t=np.array(ts), states=states,
                      derivs=_rows(derivs, columns), hr=hr, hi=hi,
                      terminated_by=terminated, n_steps=n_steps)


def _initial_xi(xi0) -> tuple[complex, complex]:
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (4,) or not np.isfinite(xi0).all():
        raise ValueError("initial Darboux point must be 4 finite reals")
    return _pack(xi0)


def integrate_complex(spec: SystemSpec, z0: complex, p0: complex,
                      cfg: IntegratorConfig) -> Trajectory:
    """Integrate dz/dt = p/m, dp/dt = -v'(z) over real time.

    States are recorded as real rows w = (x, p, y, q).  The ``split`` method
    runs in the Darboux frame and maps states and derivatives back, which is
    exact (a scaled signed permutation).
    """
    z0, p0 = complex(z0), complex(p0)
    if not (cmath.isfinite(z0) and cmath.isfinite(p0)):
        raise ValueError("initial data must be finite")
    if cfg.method == "split":
        xi_traj = integrate_darboux(
            spec, w_to_darboux(np.array([z0.real, p0.real, z0.imag, p0.imag])), cfg)
        return Trajectory(frame="complex", t=xi_traj.t,
                          states=darboux_to_w(xi_traj.states),
                          derivs=darboux_to_w(xi_traj.derivs),
                          hr=xi_traj.hr, hi=xi_traj.hi,
                          terminated_by=xi_traj.terminated_by,
                          n_steps=xi_traj.n_steps)
    rhs = _complex_field(spec._dv, spec.mass)
    return _trajectory("complex", spec, _drive(_RK_RULES[cfg.method], rhs, z0, p0, cfg, "complex"))


def integrate_darboux(spec: SystemSpec, xi0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the standard Hamilton equations generated by h = 2 H_r.

    dx1/dt = p1/m, dp2/dt = x2/m, with the potential forces -sqrt(2) Re v'
    and -sqrt(2) Im v' on p1 and x2, all evaluated at (x1 + i p2)/sqrt(2).
    """
    Z, P = _initial_xi(xi0)
    if cfg.method == "split":
        rule = _split_rule(spec.dv, spec.mass)
    else:
        rule = _RK_RULES[cfg.method]
    run = _drive(rule, _darboux_field(spec._dv, spec.mass), Z, P, cfg, "darboux")
    return _trajectory("darboux", spec, run)


def invariant_flow(spec: SystemSpec, xi0, flow: FlowConfig) -> Trajectory:
    """Integrate d(xi)/d(eps) = {xi, H_i} with fixed-step RK4.

    Both h and H_i are constant along the flow ({h, H_i} = 0).  The returned
    trajectory is parameterized by epsilon (stored in ``t``); negative
    ``epsilon_end`` flows backwards.
    """
    Z, P = _initial_xi(xi0)
    sign = 1.0 if flow.epsilon_end >= 0.0 else -1.0
    span = abs(flow.epsilon_end)
    cfg = IntegratorConfig(method="rk4", dt=min(flow.d_epsilon, span) if span > 0 else flow.d_epsilon,
                           t_end=span, escape_radius=math.inf)
    run = _drive(_rk4_rule, _hi_field(spec._dv, spec.mass, sign), Z, P, cfg, "darboux")
    traj = _trajectory("darboux", spec, run)
    if sign < 0.0:
        # the run is in |eps|: t = 0 - |eps| keeps the first sample at +0,
        # and the derivatives become d/d(eps)
        traj.t = 0.0 - traj.t
        traj.derivs = -traj.derivs
    return traj


def solve_invariant_zero(spec: SystemSpec, x1: float, p1: float, p2: float) -> float:
    """Solve H_i(x1, p1, x2, p2) = 0 for x2.

    x2 = -2 m v_i(x1/sqrt2, p2/sqrt2) / p1.  Raises
    ConstraintUnsolvableError when p1 = 0 with v_i != 0, and
    ConstraintFreeError when p1 = 0 with v_i = 0 (any x2 works).
    """
    x = x1 / _SQRT2
    y = p2 / _SQRT2
    vi = spec.v(complex(x, y)).imag
    if p1 == 0.0:
        if vi == 0.0:
            raise ConstraintFreeError(
                "p1 = 0 and v_i = 0: every x2 satisfies the constraint")
        raise ConstraintUnsolvableError(
            f"p1 = 0 while v_i = {vi!r}: H_i = 0 has no solution for x2")
    return -2.0 * spec.mass * vi / p1


@dataclass(frozen=True)
class EquivalenceReport:
    max_deviation: float
    tolerance: float
    passed: bool
    n_points: int
    t_worst: float


def equivalence_report(traj_complex: Trajectory, traj_darboux: Trajectory,
                       tol: float = 1e-6) -> EquivalenceReport:
    """Max pointwise deviation between the two descriptions of one motion.

    The complex-frame samples are mapped through xi = sqrt(2) (x, p, q, y)
    and both trajectories are interpolated (cubic Hermite, order >= 3) onto
    the union of their sample grids.  Raises GridMismatchError when the
    covered time ranges differ (e.g. one trajectory escaped early).
    """
    if traj_complex.frame != "complex" or traj_darboux.frame != "darboux":
        raise ValueError("expected (complex, darboux) trajectory pair")
    ta, tb = traj_complex.t, traj_darboux.t
    span = max(abs(ta[-1]), abs(tb[-1]), 1.0)
    if abs(ta[0] - tb[0]) > 1e-9 * span or abs(ta[-1] - tb[-1]) > 1e-9 * span:
        raise GridMismatchError(
            f"time ranges differ: [{ta[0]}, {ta[-1]}] vs [{tb[0]}, {tb[-1]}]")
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])
    grid = np.union1d(ta, tb)
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size == 0:
        return EquivalenceReport(max_deviation=0.0, tolerance=tol, passed=True,
                                 n_points=0, t_worst=float(lo))
    w = _hermite(ta, traj_complex.states, traj_complex.derivs, grid)
    xi = _hermite(tb, traj_darboux.states, traj_darboux.derivs, grid)
    dev = np.max(np.abs(w_to_darboux(w) - xi), axis=1)
    # a NaN row never exceeds the running maximum, and the first grid point
    # attaining the maximum is the one reported
    dev[np.isnan(dev)] = 0.0
    k = int(np.argmax(dev))
    worst = float(dev[k])
    return EquivalenceReport(max_deviation=worst, tolerance=tol,
                             passed=worst <= tol, n_points=int(grid.size),
                             t_worst=float(grid[k]))
