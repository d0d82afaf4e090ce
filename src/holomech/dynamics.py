"""Trajectory integration in the complex and Darboux descriptions.

The motion is two complex scalars, dz/dt = p/m and dp/dt = -v'(z), stepped
as a pair of Python complex numbers.  Each (method, frame) pair the package
runs has one fused kernel: a straight-line function that owns the escape
test, the time grid or the step-size controller, the stages with the
frame's vector field written in, the error norm and the recording of
samples, and that turns whatever a step raises on leaving double precision
into a step failure or a smaller step.  The kernels are generated from one
template on first use and cached for the process; they call the compiled
v' of the ``SystemSpec`` and take tableau weights, h and m as complex
constants.  Each stage sum is the plain left-to-right sum of its row's
nonzero terms, and a row whose one nonzero coefficient is a power of two
scales the step instead of the field, so a stage costs the fewest complex
operations.  That order of operations fixes the sign of an exactly-zero
part and no other bit, short of a subnormal field part, which a scaled
step does not halve before the product.  In CPython 3.10-3.13 complex
constants give the same bits as float weights; CPython 3.14 changed mixed
float-complex arithmetic (see ``_kernel``).

Frames: the complex pair (z, p); the Darboux frame on the packed pair
Z = x1 + i p2, P = p1 + i x2, which is sqrt(2) (z, p), with its force
-sqrt(2) v'(Z/sqrt2) evaluated in its own arithmetic so that the
cross-frame deviation stays a genuine check; and the H_i flow, the Darboux
field at complex time dt = -i d(epsilon)/2, run backwards on a negative step.
Every field value is checked, and a non-finite one fails the step.

Methods:

* ``rk4``   - classical Runge-Kutta on the fixed grid t_k = k dt, ending
  once at t_end;
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
``terminated_by="step_failure"``, and an rk45 run that accepts
``MAX_GRID_STEPS`` steps short of t_end stops with
``terminated_by="step_limit"``.  A kernel returns flat lists of the
sample times, z, p and field (kz, kp), and the run statistics its
``Trajectory`` carries: terminated_by, n_steps, the field evaluations
``n_rhs`` and the rejected steps ``n_rejected``.  Samples become (N, 4)
float rows in the w or xi layout once, when the ``Trajectory`` is built,
together with the energy split (H_r, H_i) per sample, one
``hamiltonian_split`` call on the whole stack, and its maximum drift.  H_i
is an independent integral of motion; ``invariant_flow`` integrates its
flow.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .hamiltonian import (
    _LAYOUT,
    _SQRT2,
    SystemSpec,
    _pairs_to_rows,
    _row_to_pair,
    complex_to_darboux,
    darboux_invariant,
    darboux_to_w,
    hamiltonian_split,
    w_to_darboux,
)
from .potentials import PotentialOverflowError

__all__ = [
    "METHODS",
    "IntegratorConfig",
    "FlowConfig",
    "Trajectory",
    "ConstraintUnsolvableError",
    "ConstraintFreeError",
    "GridMismatchError",
    "EquivalenceReport",
    "integrate_complex",
    "integrate_darboux",
    "complex_view",
    "split_step",
    "invariant_flow",
    "solve_invariant_zero",
    "equivalence_report",
]

METHODS = ("rk4", "rk45", "split")

# Longest fixed-step grid (rk4, split and the H_i flow) in steps, and the
# most steps an rk45 run accepts before it stops with "step_limit".  Every
# sample is kept, at 192 bytes each in the kernel's lists (tracemalloc, a
# 10^5-step rk4 run, CPython 3.11), so this bounds them to about 0.2 GB.
# ``_kernel`` reads it when it generates a kernel.
MAX_GRID_STEPS = 10**6

# Adaptive controller underflow threshold: below this step size the
# integration is abandoned as a step failure.
_MIN_STEP = 1e-14


class ConstraintUnsolvableError(ZeroDivisionError):
    """H_i = 0 has no finite solution for x2: p1 = 0 while v_i != 0, or
    -2 m v_i / p1 is not finite."""


class ConstraintFreeError(ValueError):
    """Every x2 satisfies H_i = 0: p1 = 0 and v_i = 0 at the point."""


class GridMismatchError(ValueError):
    """Trajectories cover different time ranges; no common comparison grid."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    dt steps rk4 and split on a grid ending at t_end, one step if dt exceeds
    it; (rel_tol, abs_tol) steer rk45, by default 1e-10 for conservation.
    """

    method: str = "rk45"
    dt: float = 1e-3
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    t_end: float = 10.0
    escape_radius: float = 1e3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {list(METHODS)}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be a finite nonnegative real")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be a positive finite real")
        if self.method != "rk45":
            if not self.t_end / self.dt <= MAX_GRID_STEPS:
                raise ValueError(f"t_end / dt = {self.t_end!r} / {self.dt!r} exceeds the "
                                 f"{MAX_GRID_STEPS} steps of the longest fixed-step grid")
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
        # the grid IntegratorConfig would refuse, worded in the flow's terms
        if not abs(self.epsilon_end) / self.d_epsilon <= MAX_GRID_STEPS:
            raise ValueError(f"|eps_end| / d_eps = {abs(self.epsilon_end)!r} / {self.d_epsilon!r} "
                             f"exceeds the {MAX_GRID_STEPS} steps of the longest fixed-step grid")


@dataclass
class Trajectory:
    """Sampled trajectory with per-sample invariants and drift statistics.

    ``states`` holds w = (x, p, y, q) rows for frame "complex" and
    xi = (x1, p1, x2, p2) rows for frame "darboux"; ``derivs`` holds the
    vector field at each sample (used for cubic Hermite dense output).
    For flows in epsilon, ``t`` carries the flow parameter, descending from
    0 on a backwards flow, and ``derivs`` are derivatives in epsilon.  Treat
    instances as read-only once produced.

    ``n_rhs`` counts field evaluations: one at the start, then 6 per rk45
    step attempted (FSAL), 4 per rk4 and 1 per split step, a failed step in
    full; so rk45 gives 1 + 6 (n_steps + n_rejected).  ``n_rejected`` counts
    rk45 steps retried with a smaller h (error too large or not finite).
    """

    frame: str
    t: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    hr: np.ndarray
    hi: np.ndarray
    terminated_by: str
    n_steps: int
    n_rhs: int = 0
    n_rejected: int = 0
    drift_hr: float = field(init=False)
    drift_hi: float = field(init=False)

    def __post_init__(self):
        self.drift_hr = _max_drift(self.hr)
        self.drift_hi = _max_drift(self.hi)

    def state_at(self, t_query) -> np.ndarray:
        """Cubic Hermite interpolation between recorded samples.

        A scalar time gives one row of shape (4,), a 1-D array of N times an
        (N, 4) stack.  Times outside the samples extrapolate the end
        intervals.  When the times are this run's first n sample times, bit
        for bit, and ``t`` ascends strictly (a fixed-step pair, or a run
        stopped early beside a longer one), the rows are the samples
        ``states[:n]`` as recorded; interpolating there could only change a
        zero's sign, or give NaN beside a non-finite field.
        """
        tq = np.asarray(t_query, dtype=float)
        if tq.ndim > 1:
            raise ValueError("state_at takes a scalar or a 1-D array of times")
        n = tq.size
        if n and tq.tobytes() == self.t[:n].tobytes() and (self.t[1:] > self.t[:-1]).all():
            rows = self.states[:n].copy()
        else:
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
    i = np.searchsorted(ts, tq, side="right")
    i -= 1
    np.maximum(i, 0, out=i)
    np.minimum(i, len(ts) - 2, out=i)
    j = i + 1
    t0 = ts.take(i)
    h = ts.take(j) - t0
    s = tq - t0
    flat = h == 0.0
    any_flat = flat.any()
    s /= np.where(flat, 1.0, h) if any_flat else h
    u2 = (1.0 - s) ** 2
    ss = s * s
    h00 = (1.0 + 2.0 * s) * u2
    h10 = s * u2
    h01 = ss * (3.0 - 2.0 * s)
    h11 = ss * (s - 1.0)
    # the four terms of h00 y_i + h h10 d_i + h01 y_j + h h11 d_j, each
    # product in that operand order, added left to right into one array
    rows = ys.take(i, axis=0)
    np.multiply(h00[:, None], rows, out=rows)
    term = ds.take(i, axis=0)
    np.multiply((h * h10)[:, None], term, out=term)
    rows += term
    ys.take(j, axis=0, out=term)
    np.multiply(h01[:, None], term, out=term)
    rows += term
    ds.take(j, axis=0, out=term)
    np.multiply((h * h11)[:, None], term, out=term)
    rows += term
    if any_flat:
        rows[flat] = ys.take(i[flat], axis=0)
    return rows


def split_step(spec: SystemSpec, xi, dt: float) -> np.ndarray:
    """One Strang step of the Darboux-frame dynamics.

    Kick-drift-kick composition of the exact flows of G(x1, p2) (potential
    part) and F(p1, x2) (kinetic part); second-order accurate and exactly
    symplectic for the standard structure.  Raises PotentialOverflowError
    when the step leaves double precision.
    """
    traj = integrate_darboux(spec, xi, IntegratorConfig(method="split", dt=dt, t_end=dt,
                                                        escape_radius=math.inf))
    if traj.terminated_by != "t_end":
        raise PotentialOverflowError(f"split step of {dt!r} left double precision")
    return traj.final_state()


# --------------------------------------------------------------------------
# Fused integration kernels
# --------------------------------------------------------------------------

# kernel(dv, m, z, p, t_end, h, atol, rtol, radius) integrates a pair from 0
# to t_end with v' as ``dv``, the fixed step (negative backwards) or first
# adaptive step h, and the escape radius on |z| and |p| of the complex
# frame.  Each stop sets
# ``stop`` and breaks to the one return: the sample lists (t, z, p, kz, kp)
# and (terminated_by, n_steps, n_rhs, n_rejected), where ``lost`` charges a
# failed fixed step in full.  The template is filled with one frame's field,
# written in at every stage, and one method's grid, step and acceptance
# test.  Every Runge-Kutta stage sum is the plain left-to-right sum of the
# row's nonzero terms, each a complex coefficient times a stage; the sign of
# an exactly-zero part is whatever that sum gives.  Stage times are omitted:
# every field here is autonomous.  The step's own p1 needs no finiteness
# test: the checked field kz1 is p1 over a mass, so a non-finite p1 has
# already failed the step.

_KERNEL = """\
def kernel(dv, m, z, p, t_end, h, atol, rtol, radius):
    isfinite, sqrt = _isfinite, _sqrt
    mc, m2 = complex(m), complex(2.0 * m)
    ts, zs, ps = [0.0], [z], [p]
    t, n, n_rej, lost = 0.0, 0, 0, 0
    try:
{first}
    except _STEP_ERRORS:
        # cannot even start: the initial sample only, with a zero field
        kzs, kps, stop = [0j], [0j], "step_failure"
    else:
        kzs, kps, stop = [kz], [kp], "t_end"
{setup}
        while True:
            try:
                escaped = {escape}
            except OverflowError:
                # |z| or |p| past the float range lies beyond every finite radius
                escaped = radius < math.inf
            if escaped:
                stop = "escape"
                break
{advance}
            try:
{step}
                ok = isfinite(z1)
            except _STEP_ERRORS:
                ok = False
{accept}
            t, z, p, kz, kp = t_next, z1, p1, kz1, kp1
            n += 1
            ts.append(t)
            zs.append(z)
            ps.append(p)
            kzs.append(kz)
            kps.append(kp)
    return ts, zs, ps, kzs, kps, (stop, n, 1 + {S} * (n + n_rej + lost), n_rej)
"""

_S2 = repr(_SQRT2)

# Fields (z, p) -> (dz, dp) of the frames in the module docstring, each
# checking its own values; the one H_i field serves both flow directions.
# Each leaves v' at the stage in ``d`` where it has one.
_FIELDS = {
    "complex": "{dz} = {p} / mc\n{dp} = -dv({z})",
    "darboux": f"d = dv({{z}} / ({_S2}+0j))\n{{dz}} = {{p}} / mc\n{{dp}} = (-{_S2}+0j) * d",
    "hi": f"d = dv({{z}} / ({_S2}+0j))\n{{dz}} = -1j * {{p}} / m2\n{{dp}} = 1j * d / ({_S2}+0j)",
}
_CHECK = ("\nif not (isfinite({dz}) and isfinite({dp})):\n"
          "    raise PotentialOverflowError('non-finite vector field')")

# Dormand-Prince 5(4) (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5):
# stage rows, fifth-order weights, and fifth- minus fourth-order weights.
# The fifth-order solution is propagated and its field is the last stage
# (FSAL); (ez, ep) is h times the weight difference applied to the stages.
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695, 125 / 192 - 393 / 640,
         -2187 / 6784 - -92097 / 339200, 11 / 84 - 187 / 2100, 0.0 - 1 / 40)
_RK4_A = ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_RK4_B = (1.0, 2.0, 2.0, 1.0)  # times h / 6


def _field(frame: str, z: str, p: str, dz: str, dp: str, check: bool = True) -> str:
    return (_FIELDS[frame] + (_CHECK if check else "")).format(z=z, p=p, dz=dz, dp=dp)


def _dot(row, ks) -> str:
    """c0 * k0 + c1 * k1 + ... over the nonzero c, as complex constants; a
    unit c leaves its stage bare."""
    return " + ".join(k if c == 1.0 else f"{complex(c)!r} * {k}" for c, k in zip(row, ks) if c)


# Complex steps c h, set once per step, for a stage row whose one nonzero
# coefficient c is a power of two: c h is exact, so (c h) k has every
# nonzero bit of h (c k), in one product less, unless a part of k is
# subnormal, where c k would round and (c h) k rounds once.
_SCALED_STEPS = {1.0: "hc", 0.5: "hh"}


def _rk_step(frame: str, rows, weights) -> tuple[str, list, list]:
    """Stages of an explicit Runge-Kutta rule; k1 is the field carried in.

    Only a stage whose weight in the step is 0 checks its field.  Any other
    enters z1 or p1 times a nonzero real constant and h, and a non-finite
    part stays non-finite through that product and every sum, so the step
    fails on ``ok`` exactly where the stage's check would have raised.
    """
    kz, kp = ["kz"], ["kp"]
    lines, defined = [], {"hc"}
    for j, (row, weight) in enumerate(zip(rows, weights[1:]), 2):
        (c, i), *more = [(c, i) for i, c in enumerate(row) if c]
        step = None if more else _SCALED_STEPS.get(c)
        if step is None:
            z_inc, p_inc = f"hc * ({_dot(row, kz)})", f"hc * ({_dot(row, kp)})"
        else:
            if step not in defined:
                defined.add(step)
                lines.insert(0, f"{step} = {c!r} * h + 0j")
            z_inc, p_inc = f"{step} * {kz[i]}", f"{step} * {kp[i]}"
        lines += [f"z_st = z + {z_inc}", f"p_st = p + {p_inc}",
                  _field(frame, "z_st", "p_st", f"kz{j}", f"kp{j}", check=not weight)]
        kz.append(f"kz{j}")
        kp.append(f"kp{j}")
    return "\n".join(lines), kz, kp


def _dp45_step(frame: str) -> str:
    stages, kz, kp = _rk_step(frame, _DP_A, _DP_B)
    return "\n".join([
        stages,
        f"z1 = z + hc * ({_dot(_DP_B, kz)})", f"p1 = p + hc * ({_dot(_DP_B, kp)})",
        _field(frame, "z1", "p1", "kz1", "kp1"),
        f"ez = hc * ({_dot(_DP_E, kz + ['kz1'])})", f"ep = hc * ({_dot(_DP_E, kp + ['kp1'])})"])


def _rk4_step(frame: str) -> str:
    stages, kz, kp = _rk_step(frame, _RK4_A, _RK4_B)
    return "\n".join([
        stages, "h6 = h / 6.0 + 0j",
        f"z1 = z + h6 * ({_dot(_RK4_B, kz)})", f"p1 = p + h6 * ({_dot(_RK4_B, kp)})",
        _field(frame, "z1", "p1", "kz1", "kp1")])


# Strang kick-drift-kick splitting of h = F(p1, x2) + G(x1, p2) (Hairer,
# Lubich and Wanner, *Geometric Numerical Integration*, II.5): the kicks
# are the exact flow of G, the drift the exact flow of F.  v' is evaluated
# once per step: the second kick's force is also that of the recorded
# field, whose finiteness check covers it, and of the next first kick.
_SPLIT_STEP = f"""\
kc = 0.5 * h * {_S2} + 0j
p1 = p - kc * d
z1 = z + hc * p1 / mc
d = dv(z1 / ({_S2}+0j))
p1 = p1 - kc * d
kz1 = p1 / mc
kp1 = (-{_S2}+0j) * d""" + _CHECK.format(dz="kz1", dp="kp1")

# fixed grid t_n = n dt, at least one step, ending once at t_end; negative backwards
_FIXED_SETUP = """\
dt = h
n_grid = max(1, math.ceil(t_end / dt - 1e-12)) if t_end != 0.0 else 0
if abs((n_grid - 1) * dt) >= abs(t_end) > 0.0:
    n_grid -= 1"""
_FIXED_ADVANCE = """\
if n >= n_grid:
    break
t_next = (n + 1) * dt if n + 1 < n_grid else t_end
h = t_next - t
hc = h + 0j"""
_FIXED_ACCEPT = """\
if not ok:
    stop, lost = "step_failure", 1
    break"""

# Elementary step control on the RMS of the error pair scaled by the
# tolerances, its squares (xr, xi, yr, yi: Re z, Im z, Re p, Im p) summed in
# the order of the frame's row components, as ``hamiltonian._LAYOUT`` states
# it (the H_i flow keeps the Darboux order).  Each scale takes the larger of
# |part| at the accepted state (azr, azi, apr, api, set up with the run and
# carried over from the last accepted step) and at the attempt (bzr, bzi,
# bpr, bpi).
_NORM = """\
if not (ok and isfinite(ez) and isfinite(ep)):
    h *= 0.25
    n_rej += 1
    continue
bzr = abs(z1.real)
xr = ez.real / (atol + rtol * (bzr if bzr > azr else azr))
bzi = abs(z1.imag)
xi = ez.imag / (atol + rtol * (bzi if bzi > azi else azi))
bpr = abs(p1.real)
yr = ep.real / (atol + rtol * (bpr if bpr > apr else apr))
bpi = abs(p1.imag)
yi = ep.imag / (atol + rtol * (bpi if bpi > api else api))
e = sqrt(({total}) / 4.0)
fac = 0.9 * (e + 1e-300) ** -0.2
h *= (fac if fac < 5.0 else 5.0) if fac > 0.2 else 0.2
if e > 1.0:
    n_rej += 1
    continue
azr, azi, apr, api = bzr, bzi, bpr, bpi"""

_METHODS = {  # stages per step, set-up, time advance, step, acceptance
    "rk45": (6, """\
tiny = 1e-13 * max(1.0, t_end)
azr, azi, apr, api = abs(z.real), abs(z.imag), abs(p.real), abs(p.imag)""", f"""\
remaining = t_end - t
if remaining <= tiny:
    break  # landed within rounding of t_end; not a failure
if n >= {{max_steps}}:
    stop = "step_limit"
    break
if remaining < h:
    h = remaining
if h < {_MIN_STEP!r}:
    stop = "step_failure"
    break
t_next = t + h
hc = h + 0j""", _dp45_step, _NORM),
    "rk4": (4, _FIXED_SETUP, _FIXED_ADVANCE, _rk4_step, _FIXED_ACCEPT),
    "split": (1, _FIXED_SETUP, _FIXED_ADVANCE, lambda frame: _SPLIT_STEP, _FIXED_ACCEPT),
}

# What a step raises on leaving double precision: OverflowError,
# ZeroDivisionError, cmath domain errors and the PotentialOverflowError of a
# field with a non-finite value.
_STEP_ERRORS = (ArithmeticError, ValueError)


def _indent(text: str, depth: int) -> str:
    return "\n".join("    " * depth + line for line in text.split("\n"))


def _kernel_source(method: str, frame: str) -> str:
    """The text of the fused kernel of ``method`` in ``frame``; the H_i flow
    holds Darboux rows."""
    S, setup, advance, step, accept = _METHODS[method]
    unit = "" if frame == "complex" else f" / {_S2}"
    parts = [("xr", "xi", "yr", "yi")[c] for c in _LAYOUT.get(frame, _LAYOUT["darboux"])]
    return _KERNEL.format(
        first=_indent(_field(frame, "z", "p", "kz", "kp"), 2),
        setup=_indent(setup, 2),
        escape=f"abs(z){unit} > radius or abs(p){unit} > radius",
        advance=_indent(advance.format(max_steps=MAX_GRID_STEPS), 3),
        step=_indent(step(frame), 4),
        accept=_indent(accept.format(total=" + ".join(f"{x} * {x}" for x in parts)), 3),
        S=S)


@functools.cache
def _kernel(method: str, frame: str):
    """The fused kernel of ``method`` in ``frame``, generated once per process.

    Tableau weights, h and m enter as complex constants, so no product pays
    a failed float operation before the complex one.  In CPython 3.10-3.13 a
    float operand of complex arithmetic is converted to (c, 0.0) and goes
    through the same product, quotient or sum as the complex constant, so
    the bits are those of the float-weighted rules; CPython 3.14 gives mixed
    float-complex operands their own arithmetic, where the two may differ in
    signed zeros.
    """
    namespace = {"_isfinite": cmath.isfinite, "_sqrt": math.sqrt, "math": math,
                 "_STEP_ERRORS": _STEP_ERRORS, "PotentialOverflowError": PotentialOverflowError}
    exec(compile(_kernel_source(method, frame), f"<holomech kernel {method}/{frame}>", "exec"), namespace)
    return namespace["kernel"]


# --------------------------------------------------------------------------
# Public integration entry points
# --------------------------------------------------------------------------


def _run(spec: SystemSpec, frame: str, z, p, cfg: IntegratorConfig, sign=1.0):
    """The kernel's run of ``cfg.method`` to sign t_end in steps of sign h:
    -1.0 runs backwards."""
    h = 1e-3 if cfg.method == "rk45" else cfg.dt
    return _kernel(cfg.method, frame)(spec._dv, spec.mass, z, p, sign * cfg.t_end, sign * h,
                                      cfg.abs_tol, cfg.rel_tol, cfg.escape_radius)


def _trajectory(frame: str, spec: SystemSpec, run) -> Trajectory:
    ts, zs, ps, kzs, kps, stats = run
    states = _pairs_to_rows(zs, ps, frame)
    hr, hi = hamiltonian_split(spec, states if frame == "complex" else darboux_to_w(states))
    return Trajectory(frame, np.array(ts), states, _pairs_to_rows(kzs, kps, frame), hr, hi, *stats)


def _initial_xi(xi0) -> tuple[complex, complex]:
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (4,) or not np.isfinite(xi0).all():
        raise ValueError("initial Darboux point must be 4 finite reals")
    return _row_to_pair(xi0, "darboux")  # (Z, P)


def complex_view(traj: Trajectory) -> Trajectory:
    """A Darboux-frame trajectory in the complex frame.

    States and derivatives are mapped through ``darboux_to_w``, a
    permutation divided by sqrt(2), which rounds each part to the nearest
    double; times, invariants and counters are shared.
    """
    if traj.frame != "darboux":
        raise ValueError("expected a Darboux-frame trajectory")
    return replace(traj, frame="complex", states=darboux_to_w(traj.states),
                   derivs=darboux_to_w(traj.derivs))


def integrate_complex(spec: SystemSpec, z0: complex, p0: complex,
                      cfg: IntegratorConfig) -> Trajectory:
    """Integrate dz/dt = p/m, dp/dt = -v'(z) over real time.

    States are recorded as real rows w = (x, p, y, q).  The ``split`` method
    runs in the Darboux frame from complex_to_darboux(z0, p0) and returns its
    ``complex_view``.
    """
    z0, p0 = complex(z0), complex(p0)
    if not (cmath.isfinite(z0) and cmath.isfinite(p0)):
        raise ValueError("initial data must be finite")
    if cfg.method == "split":
        return complex_view(integrate_darboux(spec, complex_to_darboux(z0, p0), cfg))
    return _trajectory("complex", spec, _run(spec, "complex", z0, p0, cfg))


def integrate_darboux(spec: SystemSpec, xi0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the standard Hamilton equations generated by h = 2 H_r.

    dx1/dt = p1/m, dp2/dt = x2/m, with the potential forces -sqrt(2) Re v'
    and -sqrt(2) Im v' on p1 and x2, all evaluated at (x1 + i p2)/sqrt(2).
    """
    return _trajectory("darboux", spec, _run(spec, "darboux", *_initial_xi(xi0), cfg))


def invariant_flow(spec: SystemSpec, xi0, flow: FlowConfig) -> Trajectory:
    """Integrate d(xi)/d(eps) = {xi, H_i} with fixed-step RK4.

    Both h and H_i are constant along the flow ({h, H_i} = 0).  The returned
    trajectory is parameterized by epsilon (stored in ``t``); negative
    ``epsilon_end`` flows backwards.
    """
    Z, P = _initial_xi(xi0)
    cfg = IntegratorConfig(method="rk4", dt=flow.d_epsilon, t_end=abs(flow.epsilon_end),
                           escape_radius=math.inf)
    # a backwards flow is the same field on the grid of -|eps| in steps of -d(eps)
    sign = -1.0 if flow.epsilon_end < 0.0 else 1.0
    return _trajectory("darboux", spec, _run(spec, "hi", Z, P, cfg, sign))


def solve_invariant_zero(spec: SystemSpec, x1: float, p1: float, p2: float) -> float:
    """Solve H_i(x1, p1, x2, p2) = 0 for x2.

    x2 = -2 m v_i / p1, where v_i = H_i(x1, 0, 0, p2), at zero momentum.  Raises
    ConstraintUnsolvableError when p1 = 0 with v_i != 0 or when that quotient
    is not finite (it overflows for a tiny p1, or p1 is NaN), and
    ConstraintFreeError when p1 = 0 with v_i = 0 (any x2 works).
    """
    vi = darboux_invariant(spec, (x1, 0.0, 0.0, p2))
    if p1 == 0.0:
        if vi == 0.0:
            raise ConstraintFreeError(
                "p1 = 0 and v_i = 0: every x2 satisfies the constraint")
        raise ConstraintUnsolvableError(
            f"p1 = 0 while v_i = {vi!r}: H_i = 0 has no solution for x2")
    x2 = -2.0 * spec.mass * vi / p1
    if not math.isfinite(x2):
        raise ConstraintUnsolvableError(
            f"p1 = {p1!r} with v_i = {vi!r}: the solution x2 = {x2!r} is not finite")
    return x2


@dataclass(frozen=True)
class EquivalenceReport:
    max_deviation: float
    passed: bool
    n_points: int
    t_worst: float


def equivalence_report(traj_complex: Trajectory, traj_darboux: Trajectory,
                       tol: float = 1e-6) -> EquivalenceReport:
    """Max pointwise deviation between the two descriptions of one motion.

    The complex-frame samples are mapped through xi = sqrt(2) (x, p, q, y)
    and both trajectories are interpolated (cubic Hermite, order >= 3) onto
    the merged grid: every distinct sample time of either trajectory,
    ascending, within the range both cover in time order.  Raises
    GridMismatchError when the ranges differ (e.g. one run escaped early)
    or share no time.

    When both carry one strictly ascending ``t`` (every rk4 or split pair
    that ends at the same sample), the merged grid is that ``t`` bit for
    bit, and ``state_at`` reads the rows off the samples.
    """
    if traj_complex.frame != "complex" or traj_darboux.frame != "darboux":
        raise ValueError("expected (complex, darboux) trajectory pair")
    ta, tb = traj_complex.t, traj_darboux.t
    span = max(abs(ta[-1]), abs(tb[-1]), 1.0)
    lo = max(min(ta[0], ta[-1]), min(tb[0], tb[-1]))
    hi = min(max(ta[0], ta[-1]), max(tb[0], tb[-1]))
    if abs(ta[0] - tb[0]) > 1e-9 * span or abs(ta[-1] - tb[-1]) > 1e-9 * span or lo > hi:
        raise GridMismatchError(
            f"time ranges differ: [{ta[0]}, {ta[-1]}] vs [{tb[0]}, {tb[-1]}]")
    # the sorted distinct times of both grids, which np.union1d also gives,
    # but without its first call's import of numpy.ma; lo is one of them
    grid = np.concatenate((ta, tb))
    grid.sort()
    keep = (grid >= lo) & (grid <= hi)
    keep[1:] &= grid[1:] != grid[:-1]
    grid = grid[keep]
    a = np.abs(w_to_darboux(traj_complex.state_at(grid)) - traj_darboux.state_at(grid))
    # np.max(a, axis=1) bit for bit (a holds no -0) at a tenth of its cost
    dev = np.maximum(np.maximum(a[:, 0], a[:, 1]), np.maximum(a[:, 2], a[:, 3]))
    # a NaN row never exceeds the running maximum, and the first grid point
    # attaining the maximum is the one reported
    dev[np.isnan(dev)] = 0.0
    k = int(np.argmax(dev))
    worst = float(dev[k])
    return EquivalenceReport(max_deviation=worst, passed=worst <= tol,
                             n_points=int(grid.size), t_worst=float(grid[k]))
