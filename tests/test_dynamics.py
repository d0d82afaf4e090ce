"""Integrators, invariant drift, split-step structure, and the H_i flow."""

import cmath
import functools
import hashlib
import math

import numpy as np
import pytest
from conftest import NON_CATALOG_SOURCES
from hypothesis import given, settings
from hypothesis import strategies as st

from holomech import (
    BUILTIN_SOURCES,
    ConstraintFreeError,
    ConstraintUnsolvableError,
    FlowConfig,
    GridMismatchError,
    IntegratorConfig,
    J_STANDARD,
    SymplecticParams,
    SystemSpec,
    build_real_J,
    darboux_to_w,
    equivalence_report,
    get_builtin,
    integrate_complex,
    integrate_darboux,
    invariant_flow,
    solve_invariant_zero,
    split_step,
    w_to_darboux,
)
from holomech import dynamics as dyn
from holomech.potentials import PotentialOverflowError

S2 = math.sqrt(2.0)


def spec_for(src, mass=0.5):
    return SystemSpec.from_source(src, mass)


def xi_from(z0, p0):
    return w_to_darboux(np.array([z0.real, p0.real, z0.imag, p0.imag]))


def hi_generator(spec, xi):
    """{xi, H_i} = (x2/(2m), -Im v'/sqrt2, Re v'/sqrt2, -p1/(2m)) with v' at
    (x1 + i p2)/sqrt2, through the standard bracket; raises
    PotentialOverflowError where v' is not finite."""
    x1, p1, x2, p2 = xi
    dv = spec.dv(complex(x1 / S2, p2 / S2))
    m2 = 2.0 * spec.mass
    return np.array([x2 / m2, -dv.imag / S2, dv.real / S2, -p1 / m2])


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")

    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45", "split-step"])
    def test_only_the_three_method_names(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            IntegratorConfig(method=method)

    def test_tolerances_range(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)

    def test_dt_not_exceeding_t_end(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", dt=2.0, t_end=1.0)

    @pytest.mark.parametrize("method", ["rk4", "split"])
    def test_fixed_step_grid_must_be_finite(self, method):
        # t_end / dt overflows to inf: no grid, where math.ceil would raise
        with pytest.raises(ValueError, match="t_end / dt"):
            IntegratorConfig(method=method, dt=1e-300, t_end=1e300)
        IntegratorConfig(method=method, dt=1e-300, t_end=1e-295)

    @pytest.mark.parametrize("method", ["rk4", "split"])
    def test_fixed_step_grid_is_capped(self, method):
        # rejected before integrating: every sample of the grid would be kept
        cap = dyn.MAX_GRID_STEPS
        IntegratorConfig(method=method, dt=1.0, t_end=float(cap))
        for dt, t_end in [(1.0, cap + 1.0), (1e-310, 1e-300)]:
            with pytest.raises(ValueError, match="t_end / dt"):
                IntegratorConfig(method=method, dt=dt, t_end=t_end)

    @pytest.mark.parametrize("eps_end", [1, -1])
    def test_flow_grid_is_capped(self, eps_end):
        with pytest.raises(ValueError, match="t_end / dt"):
            invariant_flow(spec_for("z"), [0.1, 0.2, 0.3, 0.4],
                           FlowConfig(epsilon_end=eps_end * (dyn.MAX_GRID_STEPS + 1.0),
                                      d_epsilon=1.0))

    def test_adaptive_ignores_grid_size(self):
        assert IntegratorConfig(method="rk45", dt=1e-300, t_end=1e300).t_end == 1e300

    @pytest.mark.parametrize("eps_end", [1e300, -1e300])
    def test_flow_grid_must_be_finite(self, eps_end):
        with pytest.raises(ValueError, match="t_end / dt"):
            invariant_flow(spec_for("z"), [0.1, 0.2, 0.3, 0.4],
                           FlowConfig(epsilon_end=eps_end, d_epsilon=1e-300))

    def test_flow_config(self):
        with pytest.raises(ValueError):
            FlowConfig(d_epsilon=0.0)
        with pytest.raises(ValueError):
            FlowConfig(epsilon_end=math.inf)


class TestClosedFormOracles:
    def test_harmonic_period(self):
        # v = z^2, m = 1/2: z(t) = cos 2t, p(t) = -sin 2t from (1, 0)
        traj = integrate_complex(spec_for("z^2"), 1 + 0j, 0j,
                                 IntegratorConfig(method="rk45", t_end=math.pi))
        for t, w in zip(traj.t, traj.states):
            z = complex(w[0], w[2])
            p = complex(w[1], w[3])
            assert abs(z - math.cos(2 * t)) <= 1e-6
            assert abs(p + math.sin(2 * t)) <= 1e-6
        w = traj.final_state()
        assert abs(complex(w[0], w[2]) - 1.0) <= 1e-6
        assert abs(complex(w[1], w[3])) <= 1e-6

    def test_constant_force(self):
        # v = i z, m = 1/2: p(t) = p0 - i t, z(t) = z0 + 2 p0 t - i t^2
        z0, p0 = 0.3 + 0.2j, -0.1 + 0.4j
        traj = integrate_complex(spec_for("i*z"), z0, p0,
                                 IntegratorConfig(method="rk45", t_end=3.0))
        for t, w in zip(traj.t, traj.states):
            z_ref = z0 + 2.0 * p0 * t - 1j * t * t
            p_ref = p0 - 1j * t
            assert abs(complex(w[0], w[2]) - z_ref) <= 1e-9
            assert abs(complex(w[1], w[3]) - p_ref) <= 1e-9

    def test_zero_time_single_sample(self):
        traj = integrate_complex(spec_for("i*z^3"), 0.2 + 0.1j, 1j,
                                 IntegratorConfig(method="rk45", t_end=0.0))
        assert len(traj.t) == 1
        assert traj.terminated_by == "t_end"
        assert np.array_equal(traj.states[0], [0.2, 0.0, 0.1, 1.0])

    def test_fixed_rk4_matches_closed_form(self):
        traj = integrate_complex(spec_for("z^2"), 1 + 0j, 0j,
                                 IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0))
        w = traj.final_state()
        assert abs(complex(w[0], w[2]) - math.cos(2.0)) <= 1e-9
        assert traj.t[-1] == pytest.approx(1.0, abs=0)


def pt_period(E):
    """Period of the closed real-energy orbits of H = p^2 + i z^3 (m = 1/2),
    T(E) = 2 sqrt(pi) Gamma(4/3) / Gamma(5/6) cos(pi/6) E^(-1/6) (Bender,
    Boettcher and Meisinger, J. Math. Phys. 40, 2201 (1999))."""
    return (2.0 * math.sqrt(math.pi) * math.gamma(4 / 3) / math.gamma(5 / 6)
            * math.cos(math.pi / 6) * E ** (-1 / 6))


class TestPeriodOracle:
    """The PT-symmetric orbit from z0 = 0.999 E^(1/3) e^(-i pi/6), just inside
    a turning point, p0 = sqrt(E - i z0^3), returns to its start after every
    period: a run along the right orbit at the wrong speed fails here.

    Bounds on the largest row deviation of ``state_at(k T)`` from the start
    row, k = 1 and 10: five times the largest return measured over
    E = 0.5, 1, 2 and both frames, rounded up (rk45 6.0e-9 and 1.8e-8,
    rk4 at dt = 1e-3 1.5e-12 and 1.9e-11, split at dt = 1e-3 4.9e-6 and
    4.9e-5; rk45's returns fall between nodes, so they measure the
    interpolant too).
    """

    BOUNDS = {"rk45": (3e-8, 9e-8), "rk4": (7.5e-12, 9.5e-11), "split": (2.5e-5, 2.5e-4)}

    @pytest.mark.parametrize("energy", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("frame", ["complex", "darboux"])
    @pytest.mark.parametrize("method", sorted(BOUNDS))
    def test_returns_after_one_and_ten_periods(self, method, frame, energy):
        spec = spec_for("i*z^3")
        z0 = 0.999 * energy ** (1 / 3) * cmath.exp(-1j * math.pi / 6)
        p0 = cmath.sqrt(energy - 1j * z0**3)
        T = pt_period(energy)
        cfg = IntegratorConfig(method=method, dt=1e-3, t_end=10.0 * T)
        traj = (integrate_complex(spec, z0, p0, cfg) if frame == "complex"
                else integrate_darboux(spec, xi_from(z0, p0), cfg))
        assert traj.terminated_by == "t_end"
        returns = np.abs(traj.state_at(np.array([T, 10.0 * T])) - traj.states[0]).max(axis=1)
        assert (returns <= self.BOUNDS[method]).all(), returns

    def test_period_is_the_turning_point_quadrature(self):
        mp = pytest.importorskip("mpmath")
        assert abs(pt_period(1.0) - 2.42865064788758161) <= 4e-15  # a few rounding steps
        with mp.workdps(30):
            for energy in (0.5, 1.0, 2.0):
                E = mp.mpf(energy)
                ends = [mp.cbrt(E) * mp.expjpi(k) for k in (mp.mpf(-5) / 6, mp.mpf(-1) / 6)]
                # dt = dz / (2 p) along the segment between the turning
                # points, there and back
                half = mp.quad(lambda z: 1 / (2 * mp.sqrt(E - 1j * z**3)), ends)
                assert abs(2 * half - pt_period(energy)) <= 4e-15 * pt_period(energy)


class TestConservationAndEquivalence:
    def test_canonical_iz3_run(self):
        spec = spec_for("i*z^3")
        cfg = IntegratorConfig(method="rk45", t_end=5.0)
        tc = integrate_complex(spec, 0j, 1 + 0j, cfg)
        td = integrate_darboux(spec, xi_from(0j, 1 + 0j), cfg)
        assert tc.terminated_by == td.terminated_by == "t_end"
        assert tc.drift_hr <= 1e-8 and tc.drift_hi <= 1e-8
        assert td.drift_hr <= 1e-8 and td.drift_hi <= 1e-8
        eq = equivalence_report(tc, td)
        assert eq.passed and eq.max_deviation <= 1e-6

    def test_bounded_random_runs_all_builtins(self, rng):
        # bounded trajectories (within amplitude 8 over [0, 2]) conserve the
        # energy split to 1e-8 and agree across frames to 1e-6
        cfg = IntegratorConfig(method="rk45", t_end=2.0)
        for name in BUILTIN_SOURCES:
            spec = SystemSpec(get_builtin(name), 0.5)
            kept = 0
            for _ in range(10):
                z0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                p0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                tc = integrate_complex(spec, z0, p0, cfg)
                td = integrate_darboux(spec, xi_from(z0, p0), cfg)
                amp = max(np.max(np.abs(tc.states)), np.max(np.abs(td.states)))
                if (tc.terminated_by != "t_end" or td.terminated_by != "t_end"
                        or amp > 8.0):
                    continue  # escaped or left the bounded regime
                kept += 1
                assert max(tc.drift_hr, tc.drift_hi, td.drift_hr, td.drift_hi) <= 1e-8
                assert equivalence_report(tc, td).max_deviation <= 1e-6
            assert kept >= 5, f"too few bounded runs for {name}"

    def test_identical_trajectories_zero_deviation(self):
        # a Darboux twin built by exactly mapping the complex samples
        from holomech.dynamics import Trajectory

        spec = spec_for("z^2")
        cfg = IntegratorConfig(method="rk45", t_end=1.0)
        tc = integrate_complex(spec, 1 + 0j, 0j, cfg)
        twin = Trajectory(
            frame="darboux",
            t=tc.t.copy(),
            states=w_to_darboux(tc.states),
            derivs=w_to_darboux(tc.derivs),
            hr=tc.hr.copy(), hi=tc.hi.copy(),
            terminated_by=tc.terminated_by, n_steps=tc.n_steps)
        eq = equivalence_report(tc, twin)
        assert eq.max_deviation == 0.0 and eq.passed

    def test_mismatched_mass_fails(self):
        cfg = IntegratorConfig(method="rk45", t_end=1.0)
        tc = integrate_complex(spec_for("i*z^3", mass=0.5), 0j, 1 + 0j, cfg)
        td = integrate_darboux(spec_for("i*z^3", mass=1.0), xi_from(0j, 1 + 0j), cfg)
        eq = equivalence_report(tc, td)
        assert not eq.passed and eq.max_deviation > 1e-3

    def test_grid_mismatch_raises(self):
        spec = spec_for("z^2")
        tc = integrate_complex(spec, 1 + 0j, 0j,
                               IntegratorConfig(method="rk45", t_end=1.0))
        td = integrate_darboux(spec, xi_from(1 + 0j, 0j),
                               IntegratorConfig(method="rk45", t_end=2.0))
        with pytest.raises(GridMismatchError):
            equivalence_report(tc, td)

    def test_frame_order_enforced(self):
        spec = spec_for("z^2")
        cfg = IntegratorConfig(method="rk45", t_end=1.0)
        tc = integrate_complex(spec, 1 + 0j, 0j, cfg)
        with pytest.raises(ValueError):
            equivalence_report(tc, tc)


class TestEscapeAndFailure:
    def test_quartic_escape_is_normal(self):
        # inverted quartic from real data reaches the escape radius quickly
        traj = integrate_complex(spec_for("-(z^4)"), 3 + 0j, 0j,
                                 IntegratorConfig(method="rk45", t_end=10.0))
        assert traj.terminated_by == "escape"
        assert traj.t[-1] < 1.0

    def test_blowup_without_radius_is_step_failure(self):
        traj = integrate_complex(
            spec_for("-(z^4)"), 3 + 0j, 0j,
            IntegratorConfig(method="rk45", t_end=10.0, escape_radius=1e300))
        assert traj.terminated_by == "step_failure"

    @pytest.mark.parametrize("method", ["rk4", "rk45", "split"])
    def test_start_past_float_range_escapes(self, method):
        # |z| beyond the largest double lies outside every finite radius
        cfg = IntegratorConfig(method=method, t_end=1.0)
        trajs = [integrate_darboux(spec_for("z"), [1.7e308, 0.0, 0.0, 1.7e308], cfg)]
        if method != "split":
            trajs.append(integrate_complex(spec_for("z"), complex(1.7e308, 1.7e308), 0j, cfg))
        for traj in trajs:
            assert traj.terminated_by == "escape" and len(traj.t) == 1

    @pytest.mark.parametrize("past, last", [(5e-13, [0.781 + 5e-13]), (5e-14, [])])
    def test_rk45_lands_within_its_tolerance(self, past, last):
        # on v = z the error estimate is rounding noise, so every step is 5
        # times the last.  What is left past 0.781 takes one more step if it
        # exceeds 1e-13 max(1, t_end), and is dropped if it does not
        traj = integrate_complex(spec_for("z"), 0j, 1 + 0j,
                                 IntegratorConfig(method="rk45", t_end=0.781 + past))
        assert traj.terminated_by == "t_end"
        assert traj.t.tolist() == [0.0, 0.001, 0.006, 0.031, 0.156, 0.781, *last]

    def test_initial_point_outside_radius(self):
        traj = integrate_complex(spec_for("z^2"), 2e3 + 0j, 0j,
                                 IntegratorConfig(method="rk45", t_end=1.0))
        assert traj.terminated_by == "escape"
        assert len(traj.t) == 1

    @pytest.mark.parametrize("frame", ["complex", "darboux"])
    def test_rk45_step_limit(self, frame, lower_step_cap):
        spec, cfg = spec_for("i*sin(z)"), IntegratorConfig(method="rk45", t_end=2.0)

        def run():
            if frame == "complex":
                return integrate_complex(spec, 0.2 + 0.1j, 1 + 0j, cfg)
            return integrate_darboux(spec, xi_from(0.2 + 0.1j, 1 + 0j), cfg)

        full = run()
        n = full.n_steps
        # a run that reaches t_end on its last allowed step ends there
        lower_step_cap(n)
        capped = run()
        assert capped.terminated_by == "t_end"
        assert capped.t.tobytes() == full.t.tobytes()
        # one step fewer: the first n samples, stopped at the cap
        lower_step_cap(n - 1)
        capped = run()
        assert (capped.terminated_by, capped.n_steps) == ("step_limit", n - 1)
        assert capped.t.tobytes() == full.t[:n].tobytes()
        assert capped.states.tobytes() == full.states[:n].tobytes()
        assert capped.n_rhs == 1 + 6 * (n - 1 + capped.n_rejected)


class TestSplitStep:
    def test_constant_potential_pure_drift(self):
        # v_r constant: the kick vanishes and one step is the exact drift
        spec = spec_for("2")
        xi = np.array([0.3, -0.7, 0.4, 1.1])
        out = split_step(spec, xi, 0.25)
        m = spec.mass
        assert out[0] == xi[0] + 0.25 * xi[1] / m
        assert out[3] == xi[3] + 0.25 * xi[2] / m
        assert out[1] == xi[1] and out[2] == xi[2]

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            split_step(spec_for("z^2"), np.zeros(4), 0.0)

    @pytest.mark.parametrize("xi", [[math.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    def test_checks_the_point(self, xi):
        # the step is a run of integrate_darboux, which checks its start
        with pytest.raises(ValueError, match="4 finite reals"):
            split_step(spec_for("z^2"), xi, 0.1)

    @pytest.mark.parametrize("z0, p0", [(complex(math.nan, 0.0), 0j),
                                        (0j, complex(0.0, math.inf))])
    def test_complex_entry_point_checks_the_start(self, z0, p0):
        # before the split branch maps it to the Darboux frame
        with pytest.raises(ValueError, match="initial data must be finite"):
            integrate_complex(spec_for("z^2"), z0, p0,
                              IntegratorConfig(method="split", dt=0.1, t_end=1.0))

    def test_step_leaving_double_precision_raises(self):
        # exp(z) at z = 800 overflows: the kick has no finite value
        with pytest.raises(PotentialOverflowError, match="left double precision"):
            split_step(spec_for("exp(z)"), np.array([800 * S2, 0.0, 0.0, 0.0]), 0.1)

    def test_no_secular_energy_growth(self):
        # harmonic long run: split drift stays bounded while rk4 drift grows
        spec = spec_for("z^2")
        xi0 = xi_from(1 + 0j, 0j)
        split = integrate_darboux(spec, xi0,
                                  IntegratorConfig(method="split", dt=1e-2, t_end=100.0))
        rk4 = integrate_darboux(spec, xi0,
                                IntegratorConfig(method="rk4", dt=1e-2, t_end=100.0))

        def window_drift(traj, lo, hi):
            mask = (traj.t >= lo) & (traj.t <= hi)
            return np.max(np.abs(traj.hr[mask] - traj.hr[0]))

        split_early = window_drift(split, 0.0, 10.0)
        split_late = window_drift(split, 90.0, 100.0)
        rk4_early = window_drift(rk4, 0.0, 10.0)
        rk4_late = window_drift(rk4, 90.0, 100.0)
        assert split_late <= 1.5 * split_early  # bounded oscillation
        assert rk4_late >= 5.0 * rk4_early      # secular drift

    def test_second_order_richardson_ratio(self):
        # one-step error against a fine fixed-step reference; halving dt
        # shrinks the local error by ~2^3
        spec = spec_for("i*z^3")
        xi = np.array([0.4, 0.3, -0.2, 0.5])

        def reference(dt):
            cfg = IntegratorConfig(method="rk4", dt=dt / 400.0, t_end=dt)
            return integrate_darboux(spec, xi, cfg).final_state()

        dt = 0.02
        err_full = np.max(np.abs(split_step(spec, xi, dt) - reference(dt)))
        err_half = np.max(np.abs(split_step(spec, xi, dt / 2) - reference(dt / 2)))
        assert 6.0 <= err_full / err_half <= 10.0

    def test_jacobian_preserves_standard_form(self):
        spec = spec_for("i*z^3")
        xi = np.array([0.4, 0.3, -0.2, 0.5])

        def step(x):
            return split_step(spec, x, 0.01)

        M = _jacobian(step, xi)
        assert np.max(np.abs(M.T @ J_STANDARD @ M - J_STANDARD)) <= 1e-10

    def test_split_through_complex_entry_point(self):
        spec = spec_for("z^2")
        cfg = IntegratorConfig(method="split", dt=1e-3, t_end=1.0)
        traj = integrate_complex(spec, 1 + 0j, 0j, cfg)
        assert traj.frame == "complex"
        w = traj.final_state()
        assert abs(complex(w[0], w[2]) - math.cos(2.0)) <= 1e-5


def _jacobian(f, x, h=1e-3):
    """Fourth-order central-difference Jacobian."""
    J = np.zeros((4, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        J[:, k] = (8.0 * (f(x + e) - f(x - e)) - (f(x + 2 * e) - f(x - 2 * e))) / (12.0 * h)
    return J


# The time-1 map of integrate_complex from w0 = (x, p, y, q), differentiated
# with _jacobian at step FLOW_H.  Its noise is about DELTA: rk45's tolerance,
# or the rounding of 1000 fixed steps (1000 eps ~ 1.1e-13).  A difference
# weighs it by (8 + 8 + 1 + 1) / 12 / FLOW_H, so an entry of M is off by at
# most FLOW_ERR; the truncation, FLOW_H^4 times fifth derivatives, and rk4's
# dt^4 = 1e-12 lie below it.
FLOW_W0 = np.array([0.3, 0.5, 0.2, -0.1])
FLOW_H = 1e-4
DELTA = 1e-13
FLOW_ERR = 1.5 * DELTA / FLOW_H
FLOW_CONFIGS = {
    "rk45": IntegratorConfig(method="rk45", rel_tol=DELTA, abs_tol=DELTA, t_end=1.0),
    "rk4": IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0),
    "split": IntegratorConfig(method="split", dt=1e-3, t_end=1.0),
}
J0 = build_real_J(SymplecticParams(0.0, 0.0, 0j))
# dJ along a, b, Re alpha and Im alpha (J is affine in them)
FAMILY_DIRECTIONS = [(build_real_J(SymplecticParams(*p)) - J0) / 0.5
                     for p in ((0.5, 0.0, 0j), (0.0, 0.5, 0j), (0.0, 0.0, 0.5), (0.0, 0.0, 0.5j))]
# multiplication by i on w = (x, p, y, q): (x, p, y, q) -> (-y, -q, x, p)
I_W = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
                [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


@functools.cache
def flow_jacobian(src, method):
    spec, cfg = spec_for(src), FLOW_CONFIGS[method]

    def flow(w):
        traj = integrate_complex(spec, complex(w[0], w[2]), complex(w[1], w[3]), cfg)
        assert traj.terminated_by == "t_end"
        return traj.final_state()

    M = _jacobian(flow, FLOW_W0, h=FLOW_H)
    M.flags.writeable = False
    return M


class TestFlowStructure:
    """The flow preserves J(0, 0, 0), the structure whose Hamiltonian is
    h = 2 H_r, and the complex form dz ^ dp; other members of the compatible
    family J(a, b, alpha) reproduce the brackets with z and p, but are not
    preserved unless the flow is complex-linear with real coefficients.

    -(z^4) stays out of the bounds below: from FLOW_W0 its |M| is about 400,
    which amplifies the map's noise as much (M J0 M^T - J0 reads 4.5e-8)."""

    PRESERVING = ["i*z", "z^2", "i*z^3", "exp(i*z)", "i*sin(z)"]

    @pytest.mark.parametrize("method", list(FLOW_CONFIGS))
    @pytest.mark.parametrize("src", PRESERVING)
    def test_preserves_j0(self, src, method):
        M = flow_jacobian(src, method)
        # M J0 M^T - J0 is off by 2 |J0| |M| FLOW_ERR, |J0| = 1/2
        bound = np.linalg.norm(M, 2) * FLOW_ERR
        assert np.max(np.abs(M @ J0 @ M.T - J0)) <= bound

    @pytest.mark.parametrize("src, floor", [
        ("i*z^3", 0.45), ("-(z^4)", 0.3), ("exp(i*z)", 0.6), ("i*sin(z)", 0.5)])
    def test_other_members_are_not_preserved(self, src, floor):
        # the smallest singular value of (a, b, Re alpha, Im alpha) ->
        # M J M^T - J: no nonzero step from J0 keeps the residual at 0
        M = flow_jacobian(src, "rk45")
        L = np.stack([(M @ E @ M.T - E).ravel() for E in FAMILY_DIRECTIONS], axis=1)
        assert np.linalg.svd(L, compute_uv=False)[-1] >= floor

    @pytest.mark.parametrize("src", ["z^2", "i*z"])
    def test_linear_flows_preserve_more_members(self, src):
        # their time-1 maps are complex-linear with real coefficients, so a
        # direction of the family is preserved as well
        M = flow_jacobian(src, "rk45")
        L = np.stack([(M @ E @ M.T - E).ravel() for E in FAMILY_DIRECTIONS], axis=1)
        assert np.linalg.svd(L, compute_uv=False)[-1] <= 2 * np.linalg.norm(M, 2) * FLOW_ERR

    @pytest.mark.parametrize("method", list(FLOW_CONFIGS))
    @pytest.mark.parametrize("src", PRESERVING)
    def test_monodromy(self, src, method):
        M = flow_jacobian(src, method)
        # M commutes with multiplication by i: the map is holomorphic
        assert np.max(np.abs(M @ I_W - I_W @ M)) <= 2 * FLOW_ERR
        # its complex 2x2 monodromy d(z, p)/d(z0, p0) keeps dz ^ dp
        phi = M[:2, :2] + 1j * M[2:, :2]
        assert abs(np.linalg.det(phi) - 1.0) <= 2 * np.linalg.norm(phi, 2) * FLOW_ERR


def xi_of(z, p):
    """(z, p) -> xi through the w row that integrate_complex records."""
    w = integrate_complex(spec_for("z^2"), z, p,
                          IntegratorConfig(t_end=0.0)).states[0]
    return w_to_darboux(w)


class TestFrameMaps:
    def test_real_unit_position(self):
        assert np.array_equal(xi_of(1 + 0j, 0j), [S2, 0.0, 0.0, 0.0])

    def test_imag_unit_position(self):
        assert np.array_equal(xi_of(1j, 0j), [0.0, 0.0, 0.0, S2])

    def test_momentum_components(self):
        assert np.array_equal(xi_of(0j, 2 + 3j), [0.0, 2 * S2, 3 * S2, 0.0])

    def test_complex_view_refuses_a_complex_run(self):
        traj = integrate_complex(spec_for("z^2"), 1 + 0j, 0j,
                                 IntegratorConfig(method="rk4", dt=0.1, t_end=0.2))
        with pytest.raises(ValueError, match="Darboux-frame"):
            dyn.complex_view(traj)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_round_trip(self, x, p, y, q):
        z, mom = complex(x, y), complex(p, q)
        back = darboux_to_w(xi_of(z, mom))
        assert abs(complex(back[0], back[2]) - z) <= 1e-9 * max(1.0, abs(z))
        assert abs(complex(back[1], back[3]) - mom) <= 1e-9 * max(1.0, abs(mom))


class TestInvariantFlow:
    def test_first_order_matches_generator(self, builtin_specs):
        # one small flow step reproduces xi + eps * {xi, H_i} to O(eps^2)
        xi0 = np.array([0.4, 0.3, -0.2, 0.5])
        eps = 1e-4
        for spec in builtin_specs.values():
            traj = invariant_flow(spec, xi0, FlowConfig(epsilon_end=eps,
                                                        d_epsilon=eps))
            linear = xi0 + eps * hi_generator(spec, xi0)
            assert np.max(np.abs(traj.final_state() - linear)) <= 5e-8

    def test_generator_components(self):
        # x1 component is x2/(2m); p2 component is -p1/(2m)
        spec = spec_for("z^2")
        xi = np.array([0.7, -0.3, 1.1, 0.2])
        f = hi_generator(spec, xi)
        assert f[0] == xi[2] / (2 * spec.mass)
        assert f[3] == -xi[1] / (2 * spec.mass)

    def test_generator_overflow_raises(self):
        # v' = i exp(i z) overflows far down the imaginary axis
        with pytest.raises(PotentialOverflowError):
            hi_generator(spec_for("exp(i*z)"), [0.0, 0.0, 0.0, -2000.0])

    def test_generator_past_float_range(self):
        # |x1 + i p2| beyond the largest double; the field of i*z stays finite,
        # and so does a flow without an escape radius
        spec, xi0 = spec_for("i*z"), np.array([1.7e308, 0.0, 0.0, 1.7e308])
        assert np.array_equal(hi_generator(spec, xi0), [0.0, -1 / S2, 0.0, 0.0])
        traj = invariant_flow(spec, xi0, FlowConfig(epsilon_end=0.01, d_epsilon=1e-3))
        assert traj.terminated_by == "t_end"

    def test_x2_component_vanishes_for_iz(self):
        # v_r of i z does not depend on x, so the x2 flow component is zero
        spec = spec_for("i*z")
        traj = invariant_flow(spec, np.array([0.4, 0.3, -0.2, 0.5]),
                              FlowConfig(epsilon_end=1.0, d_epsilon=1e-2))
        assert np.all(traj.states[:, 2] == traj.states[0, 2])

    def test_conserves_h_and_invariant(self, builtin_specs):
        xi0 = np.array([0.4, 0.3, -0.2, 0.5])
        for spec in builtin_specs.values():
            traj = invariant_flow(spec, xi0, FlowConfig(epsilon_end=1.0,
                                                        d_epsilon=1e-3))
            assert traj.terminated_by == "t_end"
            assert 2.0 * traj.drift_hr <= 1e-8
            assert traj.drift_hi <= 1e-8

    def test_negative_flow_direction(self):
        spec = spec_for("i*z^3")
        xi0 = np.array([0.4, 0.3, -0.2, 0.5])
        fwd = invariant_flow(spec, xi0, FlowConfig(epsilon_end=0.5, d_epsilon=1e-3))
        back = invariant_flow(spec, fwd.final_state(),
                              FlowConfig(epsilon_end=-0.5, d_epsilon=1e-3))
        assert np.max(np.abs(back.final_state() - xi0)) <= 1e-10

    @pytest.mark.parametrize("eps_end", [0.5, -0.5])
    def test_dense_output_in_either_direction(self, eps_end):
        spec = spec_for("i*z^3")
        xi0 = np.array([0.4, 0.3, -0.2, 0.5])
        traj = invariant_flow(spec, xi0, FlowConfig(epsilon_end=eps_end, d_epsilon=0.01))
        fine = invariant_flow(spec, xi0, FlowConfig(epsilon_end=eps_end, d_epsilon=0.001))
        assert traj.t[0] == 0.0 and math.copysign(1.0, traj.t[0]) == 1.0
        assert traj.t[-1] == pytest.approx(eps_end)
        # the stored derivatives are d(xi)/d(eps), the generator itself
        for xi, d in zip(traj.states, traj.derivs):
            assert np.array_equal(d, hi_generator(spec, xi))
        assert np.array_equal(traj.state_at(traj.t), traj.states)
        for k in range(len(traj.t)):
            assert np.array_equal(traj.state_at(traj.t[k]), traj.states[k])
        # midpoints of the coarse grid are samples of the 10x finer flow
        mid = 0.5 * (traj.t[:-1] + traj.t[1:])
        assert np.max(np.abs(traj.state_at(mid) - fine.states[5::10])) <= 1e-8

    def test_commutes_with_time_evolution(self):
        # both maps approximate commuting exact flows; the defect shrinks at
        # least cubically as the step is halved (Richardson consistency)
        spec = spec_for("i*z^3")
        xi0 = np.array([0.4, 0.3, -0.2, 0.5])

        def defect(s):
            flow_cfg = FlowConfig(epsilon_end=s, d_epsilon=s / 8.0)
            evol_cfg = IntegratorConfig(method="rk4", dt=s / 8.0, t_end=s)
            a = integrate_darboux(spec, invariant_flow(spec, xi0, flow_cfg).final_state(),
                                  evol_cfg).final_state()
            b = invariant_flow(spec, integrate_darboux(spec, xi0, evol_cfg).final_state(),
                               flow_cfg).final_state()
            return np.max(np.abs(a - b))

        d1, d2 = defect(0.2), defect(0.1)
        assert d1 <= 1e-7
        assert d2 <= d1 / 8.0


class TestConstraintSolver:
    def test_linear_imaginary_potential(self):
        # H_i = x2 p1 + x1/sqrt(2) = 0 at x1 = sqrt(2), p1 = 1 gives x2 = -1
        assert solve_invariant_zero(spec_for("i*z"), S2, 1.0, 0.0) == \
            pytest.approx(-1.0, abs=1e-12)

    def test_square_potential_on_axis(self):
        # v_i(x, 0) = 0 for z^2, so x2 = 0
        assert solve_invariant_zero(spec_for("z^2"), 0.0, 1.0, 5.0) == 0.0

    def test_unsolvable(self):
        with pytest.raises(ConstraintUnsolvableError):
            solve_invariant_zero(spec_for("i*z"), S2, 0.0, 0.0)

    def test_any_value(self):
        with pytest.raises(ConstraintFreeError):
            solve_invariant_zero(spec_for("z^2"), 0.0, 0.0, 5.0)

    @pytest.mark.parametrize("p1", [1e-320, -1e-320, math.nan])
    def test_non_finite_solution_unsolvable(self, p1):
        # v_i = 1/sqrt(2): -2 m v_i / p1 overflows for a subnormal p1 and is
        # NaN for a NaN p1
        with pytest.raises(ConstraintUnsolvableError, match="not finite"):
            solve_invariant_zero(spec_for("i*z"), 1.0, p1, 0.0)

    def test_residual_vanishes_on_random_inputs(self, builtin_specs, rng):
        from holomech import darboux_invariant

        for spec in builtin_specs.values():
            for _ in range(50):
                x1, p2 = rng.uniform(-2, 2, size=2)
                p1 = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
                x2 = solve_invariant_zero(spec, x1, p1, p2)
                assert abs(darboux_invariant(spec, [x1, p1, x2, p2])) <= 1e-12


class TestTrajectoryContainer:
    def test_monotone_time(self):
        traj = integrate_complex(spec_for("i*z^3"), 0j, 1 + 0j,
                                 IntegratorConfig(method="rk45", t_end=2.0))
        assert np.all(np.diff(traj.t) > 0)

    def test_interpolation_hits_samples(self):
        traj = integrate_complex(spec_for("z^2"), 1 + 0j, 0j,
                                 IntegratorConfig(method="rk45", t_end=1.0))
        k = len(traj.t) // 2
        assert np.allclose(traj.state_at(traj.t[k]), traj.states[k],
                           rtol=0, atol=1e-14)

    def test_interpolation_order(self):
        # cubic Hermite between samples adds much less error than the
        # underlying integration itself carries
        spec = spec_for("z^2")
        traj = integrate_complex(spec, 1 + 0j, 0j,
                                 IntegratorConfig(method="rk4", dt=0.02, t_end=1.0))
        sample_err = max(abs(w[0] - math.cos(2 * t))
                         for t, w in zip(traj.t, traj.states))
        mid_err = 0.0
        for k in range(len(traj.t) - 1):
            tq = 0.5 * (traj.t[k] + traj.t[k + 1])
            mid_err = max(mid_err, abs(traj.state_at(tq)[0] - math.cos(2 * tq)))
        assert mid_err <= sample_err + 1e-8

    def test_drift_fields_consistent(self):
        traj = integrate_complex(spec_for("i*z^3"), 0j, 1 + 0j,
                                 IntegratorConfig(method="rk45", t_end=2.0))
        assert traj.drift_hr == np.max(np.abs(traj.hr - traj.hr[0]))
        assert traj.drift_hi == np.max(np.abs(traj.hi - traj.hi[0]))


def _reference_hermite(ts, ys, ds, tq):
    """Point-by-point cubic Hermite on Python floats, written out apart from
    the library's array interpolant."""
    n = len(ts)
    if n == 1:
        return ys[0]
    i = 0
    while i < n - 2 and ts[i + 1] <= tq:
        i += 1
    h = ts[i + 1] - ts[i]
    if h == 0.0:
        return ys[i]
    s = (tq - ts[i]) / h
    # u * u, not u ** 2: a float ** 2 calls libm pow, which can be 1 ulp off
    # the correctly rounded square numpy forms for an array ** 2
    u = 1.0 - s
    h00 = (1.0 + 2.0 * s) * (u * u)
    h10 = s * (u * u)
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * ys[i] + h * h10 * ds[i] + h01 * ys[i + 1] + h * h11 * ds[i + 1]


def _reference_report(tc, td):
    """Loop over the clipped union grid with a strict > running maximum."""
    lo, hi = max(tc.t[0], td.t[0]), min(tc.t[-1], td.t[-1])
    grid = [t for t in np.union1d(tc.t, td.t) if lo <= t <= hi]
    worst, t_worst = 0.0, (grid[0] if grid else lo)
    for tq in grid:
        w = _reference_hermite(tc.t, tc.states, tc.derivs, tq)
        xi = _reference_hermite(td.t, td.states, td.derivs, tq)
        dev = float(np.max(np.abs(w_to_darboux(w) - xi)))
        if dev > worst:
            worst, t_worst = dev, tq
    return worst, float(t_worst), len(grid)


class TestDenseOutput:
    @pytest.fixture(scope="class")
    def rk45_run(self):
        return integrate_complex(spec_for("i*sin(z)"), 0.2 + 0.1j, 1 + 0j,
                                 IntegratorConfig(method="rk45", t_end=3.0))

    def test_matches_scipy_hermite_spline(self, rk45_run):
        interpolate = pytest.importorskip("scipy.interpolate")
        traj = rk45_run
        spline = interpolate.CubicHermiteSpline(traj.t, traj.states, traj.derivs)
        mid = 0.5 * (traj.t[:-1] + traj.t[1:])
        quarter = traj.t[:-1] + 0.25 * np.diff(traj.t)
        # half an end interval past either end: extrapolated on that interval
        past = np.array([traj.t[0] - 0.5 * (traj.t[1] - traj.t[0]),
                         traj.t[-1] + 0.5 * (traj.t[-1] - traj.t[-2])])
        tq = np.concatenate([mid, quarter, past])
        scale = np.max(np.abs(traj.states))
        rows = traj.state_at(tq)
        assert rows.shape == (len(tq), 4)
        np.testing.assert_allclose(rows, spline(tq), rtol=1e-12, atol=1e-12 * scale)
        for t in (mid[3], past[0], past[1]):
            row = traj.state_at(t)
            assert row.shape == (4,)
            np.testing.assert_allclose(row, spline(t), rtol=1e-12, atol=1e-12 * scale)

    def test_array_and_scalar_queries_agree(self, rk45_run):
        traj = rk45_run
        tq = np.linspace(-0.1, traj.t[-1] + 0.1, 37)
        rows = traj.state_at(tq)
        for t, row in zip(tq, rows):
            assert np.array_equal(traj.state_at(t), row)
        assert traj.state_at(np.array([])).shape == (0, 4)
        with pytest.raises(ValueError):
            traj.state_at(tq.reshape(1, -1))

    def test_single_sample_returns_its_row(self):
        traj = integrate_complex(spec_for("z^2"), 0.5 + 0j, 0.25j,
                                 IntegratorConfig(method="rk4", t_end=0.0))
        assert np.array_equal(traj.state_at(0.7), traj.states[0])
        assert np.array_equal(traj.state_at([0.0, 2.0]), traj.states[[0, 0]])

    def test_tied_maximum_reports_first_grid_point(self, rk45_run):
        # an exactly mapped twin: every grid point ties at deviation 0
        from holomech.dynamics import Trajectory

        tc = rk45_run
        twin = Trajectory(frame="darboux", t=tc.t.copy(), states=w_to_darboux(tc.states),
                          derivs=w_to_darboux(tc.derivs), hr=tc.hr, hi=tc.hi,
                          terminated_by=tc.terminated_by, n_steps=tc.n_steps)
        report = equivalence_report(tc, twin)
        assert (report.max_deviation, report.t_worst) == _reference_report(tc, twin)[:2]
        assert report.t_worst == tc.t[0]

    @pytest.mark.parametrize("method,t_end", [("rk4", 2.0), ("rk45", 3.0), ("rk45", 0.0)])
    def test_equivalence_report_matches_reference_loop(self, method, t_end):
        spec = spec_for("i*sin(z)")
        z0, p0 = 0.2 + 0.1j, 1 + 0j
        cfg = IntegratorConfig(method=method, dt=0.01, t_end=t_end)
        tc = integrate_complex(spec, z0, p0, cfg)
        td = integrate_darboux(spec, xi_from(z0, p0), cfg)
        if method == "rk4":
            assert np.array_equal(tc.t, td.t)
        elif t_end > 0.0:
            assert not np.array_equal(tc.t, td.t)
        report = equivalence_report(tc, td)
        worst, t_worst, n_points = _reference_report(tc, td)
        assert report.max_deviation == worst
        assert report.t_worst == t_worst
        assert report.n_points == n_points


# The interpolant and the union-grid report as they stood before the
# report compared shared grids sample by sample and before the interpolant
# gathered with take; the library must give their bits.

def _union_hermite(ts, ys, ds, tq):
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


def _union_report(traj_complex, traj_darboux, tol=1e-6):
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
        return dyn.EquivalenceReport(max_deviation=0.0, tolerance=tol, passed=True,
                                     n_points=0, t_worst=float(lo))
    w = _union_hermite(ta, traj_complex.states, traj_complex.derivs, grid)
    xi = _union_hermite(tb, traj_darboux.states, traj_darboux.derivs, grid)
    dev = np.max(np.abs(w_to_darboux(w) - xi), axis=1)
    dev[np.isnan(dev)] = 0.0
    k = int(np.argmax(dev))
    worst = float(dev[k])
    return dyn.EquivalenceReport(max_deviation=worst, tolerance=tol,
                                 passed=worst <= tol, n_points=int(grid.size),
                                 t_worst=float(grid[k]))


class TestPostKernelOracles:
    """``equivalence_report`` and ``_hermite`` against the union-grid oracle."""

    # real-axis starts give signed zeros in the states of both frames
    STARTS = [(0.3 + 0.2j, 0.5 - 0.1j), (complex(0.7, -0.0), complex(-0.4, -0.0)),
              (complex(-0.0, 0.5), 0.3 + 0j), (-0.5 - 0.25j, 0.1 + 0.9j)]

    @staticmethod
    def assert_same_report(tc, td):
        new, old = equivalence_report(tc, td), _union_report(tc, td)
        assert new.max_deviation.hex() == old.max_deviation.hex()
        assert new.t_worst.hex() == old.t_worst.hex()
        assert (new.n_points, new.passed, new.tolerance) == (
            old.n_points, old.passed, old.tolerance)

    @staticmethod
    def pair(src, method, z0, p0, t_end=1.0, **kw):
        spec = spec_for(src)
        cfg = IntegratorConfig(method=method, dt=0.01, t_end=t_end, **kw)
        return integrate_complex(spec, z0, p0, cfg), integrate_darboux(spec, xi_from(z0, p0), cfg)

    def test_disjoint_ranges_within_tolerance_give_no_points(self):
        # both ends agree within 1e-9, but [0, 1e-10] and [2e-10, 3e-10]
        # share no time: a zero-point report at the later start
        def run(frame, t):
            rows = np.zeros((2, 4))
            return dyn.Trajectory(frame, np.array(t), rows, rows, np.zeros(2),
                                  np.zeros(2), "t_end", 1)
        report = equivalence_report(run("complex", [0.0, 1e-10]),
                                    run("darboux", [2e-10, 3e-10]))
        assert report == dyn.EquivalenceReport(max_deviation=0.0, tolerance=1e-6,
                                               passed=True, n_points=0, t_worst=2e-10)

    @staticmethod
    def count_hermite(monkeypatch):
        calls = []
        real = dyn._hermite
        monkeypatch.setattr(dyn, "_hermite", lambda *a: calls.append(1) or real(*a))
        return calls

    @pytest.mark.parametrize("method", ["rk4", "split"])
    @pytest.mark.parametrize("src", list(BUILTIN_SOURCES.values()))
    def test_shared_grid_report_matches_union_grid(self, src, method, monkeypatch):
        calls = self.count_hermite(monkeypatch)
        for z0, p0 in self.STARTS:
            tc, td = self.pair(src, method, z0, p0)
            assert tc.t.tobytes() == td.t.tobytes()
            self.assert_same_report(tc, td)
        assert calls == []  # compared sample by sample

    def test_signed_zeros_reach_both_frames(self):
        tc, td = self.pair("z^2", "rk4", *self.STARTS[1])
        for states in (tc.states, td.states):
            assert (np.signbit(states) & (states == 0.0)).any()

    @pytest.mark.parametrize("method", ["rk4", "split"])
    def test_step_failure_run(self, method):
        tc, td = self.pair("-(z^4)", method, 3 + 0j, 0j, t_end=10.0, escape_radius=1e300)
        assert tc.terminated_by == td.terminated_by == "step_failure"
        self.assert_same_report(tc, td)

    @pytest.mark.parametrize("method", ["rk4", "split", "rk45"])
    def test_single_sample_run(self, method):
        tc, td = self.pair("i*sin(z)", method, 0.2 + 0.1j, 1 + 0j, t_end=0.0)
        assert len(tc.t) == 1
        self.assert_same_report(tc, td)

    def test_shared_grid_with_non_finite_field(self):
        # the raw samples deviate most at node 3, where the Darboux field at
        # node 4 makes the interpolant NaN: the report reads the samples
        # there and finds it, which the union-grid oracle skips
        t = np.arange(6.0)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 4))
        xi = w_to_darboux(w) + 1e-3 * rng.standard_normal((6, 4))
        xi[3, 2] += 1.0
        d_xi = rng.standard_normal((6, 4))
        d_xi[4, 1] = math.inf
        zeros = np.zeros(6)
        tc = dyn.Trajectory(frame="complex", t=t, states=w, derivs=rng.standard_normal((6, 4)),
                            hr=zeros, hi=zeros, terminated_by="t_end", n_steps=5)
        td = dyn.Trajectory(frame="darboux", t=t.copy(), states=xi, derivs=d_xi,
                            hr=zeros, hi=zeros, terminated_by="t_end", n_steps=5)
        report = equivalence_report(tc, td)
        dev = np.max(np.abs(w_to_darboux(w) - xi), axis=1)
        assert (report.max_deviation, report.t_worst, report.n_points) == (dev.max(), 3.0, 6)
        with np.errstate(invalid="ignore"):
            assert _union_report(tc, td).t_worst != 3.0

    def test_repeated_time_keeps_union_grid(self, monkeypatch):
        calls = self.count_hermite(monkeypatch)
        tc, _ = self.pair("i*z^3", "rk4", 0.3 + 0.2j, 0.5 - 0.1j, t_end=0.1)
        keep = np.r_[0:5, 4, 5:len(tc.t)]  # sample 4 twice: a zero-length interval
        tc = dyn.Trajectory(frame="complex", t=tc.t[keep], states=tc.states[keep],
                            derivs=tc.derivs[keep], hr=tc.hr[keep], hi=tc.hi[keep],
                            terminated_by="t_end", n_steps=tc.n_steps)
        td = dyn.Trajectory(frame="darboux", t=tc.t.copy(),
                            states=w_to_darboux(tc.states) * (1.0 + 1e-9),
                            derivs=w_to_darboux(tc.derivs), hr=tc.hr, hi=tc.hi,
                            terminated_by="t_end", n_steps=tc.n_steps)
        self.assert_same_report(tc, td)
        assert calls == [1, 1]

    @pytest.mark.parametrize("src", list(BUILTIN_SOURCES.values()))
    def test_rk45_pairs(self, src, monkeypatch):
        # the two frames' step controllers usually choose different grids
        # (on i*z they agree bit for bit, and the samples are compared)
        calls = self.count_hermite(monkeypatch)
        tc, td = self.pair(src, "rk45", *self.STARTS[0], t_end=3.0)
        self.assert_same_report(tc, td)
        assert calls == ([] if src == "i*z" else [1, 1])

    @staticmethod
    def on_grids(ta, tb, seed=0):
        """A (complex, darboux) pair on the times ta and tb, with random
        states and fields: the report's bits depend on nothing else."""
        rng = np.random.default_rng(seed)

        def make(frame, t):
            t = np.array(t, dtype=float)
            zeros = np.zeros(len(t))
            return dyn.Trajectory(frame=frame, t=t, states=rng.standard_normal((len(t), 4)),
                                  derivs=rng.standard_normal((len(t), 4)), hr=zeros, hi=zeros,
                                  terminated_by="t_end", n_steps=len(t) - 1)

        return make("complex", ta), make("darboux", tb)

    @settings(max_examples=200, deadline=None)
    @given(shared=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           min_size=1, max_size=10),
           own_a=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=10),
           own_b=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=10),
           t_end=st.sampled_from([1.0, 1e-3, 7.5]), seed=st.integers(0, 2**32 - 1))
    def test_grids_sharing_interior_points(self, shared, own_a, own_b, t_end, seed):
        ta = sorted({0.0, t_end, *(t_end * x for x in shared + own_a)})
        tb = sorted({0.0, t_end, *(t_end * x for x in shared + own_b)})
        self.assert_same_report(*self.on_grids(ta, tb, seed))

    @pytest.mark.parametrize("inner_first", [False, True])
    def test_grid_strictly_inside_the_other(self, inner_first):
        outer = np.linspace(0.0, 1.0, 41)
        inner = np.r_[3e-10, np.linspace(0.01, 0.99, 24), 1.0 - 2e-10]
        tc, td = self.on_grids(*((inner, outer) if inner_first else (outer, inner)))
        self.assert_same_report(tc, td)
        # no time is shared; the merged grid keeps the ones both runs cover
        assert equivalence_report(tc, td).n_points == 39 + 26

    @pytest.mark.parametrize("shift", [4e-10, -4e-10, 9.9e-10])
    def test_ends_within_the_span(self, shift):
        ta = np.linspace(0.0, 2.0, 31)
        tb = np.r_[-shift, np.linspace(0.05, 1.95, 17), 2.0 + shift]
        self.assert_same_report(*self.on_grids(ta, tb))
        # past 2e-9 (1e-9 times the span 2) both reports refuse the pair
        tc, td = self.on_grids(ta, np.r_[tb[:-1], 2.0 + 2.1e-9])
        for report in (equivalence_report, _union_report):
            with pytest.raises(GridMismatchError):
                report(tc, td)

    @pytest.mark.parametrize("which", ["complex", "darboux", "both"])
    def test_repeated_time_in_either_grid(self, which):
        ta = np.linspace(0.0, 1.0, 21)
        tb = np.r_[0.0, np.linspace(0.03, 0.97, 12), 1.0]
        if which in ("complex", "both"):
            ta = np.insert(ta, 7, ta[7])
        if which in ("darboux", "both"):
            tb = np.insert(tb, [0, 4, 13], tb[[0, 4, 13]])  # the first, an inner and the last
        self.assert_same_report(*self.on_grids(ta, tb))

    def test_hermite_bytes(self):
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.uniform(0.01, 0.2, 40))
        # zero-length intervals: inside, where no query lands, and at both
        # ends, which take the queries beyond them
        ts[[1, 5, 6, 20, 39]] = ts[[0, 4, 5, 19, 38]]
        ys, ds = rng.standard_normal((40, 4)), rng.standard_normal((40, 4))
        ys[3, 1] = ds[7, 2] = -0.0
        ys[12, 3] = math.nan
        off = rng.uniform(ts[0], ts[-1], 60)
        out = np.array([ts[0] - 0.3, ts[-1] + 0.7, -1e3, 1e3, math.nan])
        for tq in (ts, off, out, np.concatenate([off, ts, out]), np.array([])):
            for grid, rows, fields in ((ts, ys, ds), (ts[::-1], ys[::-1], ds[::-1]),
                                       (-ts, ys, -ds), (ts[:1], ys[:1], ds[:1]),
                                       (ts[:2], ys[:2], ds[:2])):
                for q in (tq, -tq):
                    new = dyn._hermite(grid, rows, fields, q)
                    assert new.tobytes() == _union_hermite(grid, rows, fields, q).tobytes()
        # an ascending grid with no zero-length interval: no flat-interval pass
        flat = np.cumsum(rng.uniform(0.01, 0.2, 40))
        assert dyn._hermite(flat, ys, ds, off).tobytes() == (
            _union_hermite(flat, ys, ds, off).tobytes())


class TestSamplesAt:
    """``Trajectory.state_at`` gives the samples as recorded at the run's own
    times on a strictly ascending grid, and ``_hermite``'s bytes elsewhere."""

    # zeros of both signs in the samples and fields, next to nonzero ones
    CELLS = st.sampled_from([0.0, -0.0, 1.5, -2.25]) | st.floats(
        -1e300, 1e300, allow_subnormal=True)
    # fields may also be non-finite, which the interpolant spreads to a node
    FIELD_CELLS = CELLS | st.sampled_from([math.inf, -math.inf, math.nan])

    @staticmethod
    def run_on(t, ys, ds):
        zeros = np.zeros(len(t))
        return dyn.Trajectory(frame="darboux", t=np.asarray(t, dtype=float),
                              states=np.asarray(ys, dtype=float),
                              derivs=np.asarray(ds, dtype=float), hr=zeros, hi=zeros,
                              terminated_by="t_end", n_steps=len(t) - 1)

    @staticmethod
    def hermite(traj, tq):
        return dyn._hermite(traj.t, traj.states, traj.derivs, np.asarray(tq, dtype=float))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), size=st.integers(1, 8))
    def test_node_rows_match_state_at(self, data, size):
        t = sorted(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size,
                                      unique=True)))
        ys = np.reshape(data.draw(st.lists(self.CELLS, min_size=4 * size,
                                           max_size=4 * size)), (size, 4))
        ds = np.reshape(data.draw(st.lists(self.FIELD_CELLS, min_size=4 * size,
                                           max_size=4 * size)), (size, 4))
        n = data.draw(st.integers(1, size))
        traj = self.run_on(t, ys, ds)
        rows = traj.state_at(traj.t[:n])
        assert rows.tobytes() == ys[:n].tobytes()
        assert not np.shares_memory(rows, traj.states)
        # a scalar time reads its row the same way
        assert traj.state_at(traj.t[0]).tobytes() == ys[0].tobytes()

    def test_other_times_interpolate(self, monkeypatch):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.1, 0.5, 9))
        ys, ds = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        traj = self.run_on(t, ys, ds)
        cases = [(traj, tq) for tq in (0.5 * (t[1:] + t[:-1]), t[1:], t[::-1],
                                       np.r_[t[:3], t[2:5]], np.r_[t, t[-1] + 1.0])]
        # a backwards flow's first time; times followed by a repeated one
        back = self.run_on(-t, ys, ds)
        repeat = self.run_on(np.r_[t[:3], t[2:8]], ys, ds)
        cases += [(back, back.t[:1]), (repeat, repeat.t[:3])]
        # -0 on a run from +0: not its time, and the interpolant's zero differs
        ys0, ds0 = ys.copy(), ds.copy()
        ys0[:2, 0], ds0[:2, 0] = (-0.0, -1.0), (1.0, 1.0)
        cases.append((self.run_on(np.r_[0.0, t[:8]], ys0, ds0), np.array([-0.0])))
        want = [self.hermite(run, tq).tobytes() for run, tq in cases]
        calls = TestPostKernelOracles.count_hermite(monkeypatch)
        assert [run.state_at(tq).tobytes() for run, tq in cases] == want
        assert len(calls) == len(cases)

    def test_non_finite_samples_interpolate(self):
        t = np.arange(4.0)
        ys = np.zeros((4, 4))
        ds = np.ones((4, 4))
        # the interpolant is NaN at nodes 1 and 2 (0 * inf) and between them
        # (inf - inf); the nodes still give their samples
        ds[1:3, 1] = math.inf
        traj = self.run_on(t, ys, ds)
        assert traj.state_at(t).tobytes() == ys.tobytes()
        with np.errstate(invalid="ignore"):
            assert np.isnan(self.hermite(traj, t)[1:3, 1]).all()
            rows = traj.state_at(t[:3] + 0.5)
            assert rows.tobytes() == self.hermite(traj, t[:3] + 0.5).tobytes()
        assert np.isnan(rows[1, 1])

    @pytest.mark.parametrize("method, calls", [("rk4", 0), ("split", 0), ("rk45", 3)])
    def test_cli_both_frames(self, method, calls, tmp_path, monkeypatch):
        # fixed-step frames share one grid; the rk45 controllers pick two,
        # so the CSV's Darboux rows and both sides of the report interpolate
        from holomech.cli import main

        counted = TestPostKernelOracles.count_hermite(monkeypatch)
        assert main(["simulate", "--potential=i*sin(z)", "--z0=0.2+0.1i", "--p0=1",
                     "--frame=both", f"--method={method}", "--dt=0.01", "--t-end=1",
                     f"--out={tmp_path / 'run.csv'}"]) == 0
        assert len(counted) == calls


def _bits(value):
    """Hex of every float part, signed zeros included; None and tuples nest."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value.real.hex(), value.imag.hex()


def _draws(rng, n):
    """(z, p, h) triples: uniform in [-2, 2]^4 with log-uniform h, plus points
    on the real and imaginary axes with every sign of zero, where the sign of
    each zero part depends on the exact order of the stage arithmetic."""
    out = []
    for _ in range(n):
        z, p = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        out.append((z, p, 10.0 ** rng.uniform(-4, -0.3)))
    x, y = rng.uniform(-2, 2, 2)
    for a in (0.0, -0.0):
        for b in (0.0, -0.0):
            out += [(complex(x, a), complex(y, b), 0.1), (complex(a, x), complex(b, y), 0.1),
                    (complex(a, x), complex(y, b), 0.1), (complex(a, b), complex(b, a), 0.1)]
    return out


# The step rules, fields, error norm and integration loop that the fused
# kernels replaced, each rule written out stage by stage with its
# coefficients as literals.  ``_drive`` takes the kernel's t_end and its
# fixed or first step h, both negative for a backwards fixed-step run.  They
# are the oracle the kernels must reproduce bit for bit.

_MIN_STEP = 1e-14
_SQRT2 = S2

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


def _hi_field(dv, m, backwards=False):
    """d(Z, P)/d(eps) = {(Z, P), H_i}, the Darboux field at dt = -i d(eps)/2;
    ``backwards`` negates it through the sign of its 1j."""
    m2 = 2.0 * m

    def rhs(Z, P):
        d = dv(Z / _SQRT2)
        if backwards:
            dZ, dP = 1j * P / m2, -1j * d / _SQRT2
        else:
            dZ, dP = -1j * P / m2, 1j * d / _SQRT2
        if cmath.isfinite(dZ) and cmath.isfinite(dP):
            return dZ, dP
        raise PotentialOverflowError("non-finite vector field")

    return rhs


def _dp45_rule(f, z, p, k, h):
    """Dormand-Prince 5(4) (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5).

    The fifth-order solution is propagated, its field is the last stage
    (FSAL), and err is h times the difference of the fifth- and
    fourth-order weights applied to the stages.
    """
    kz1, kp1 = k
    kz2, kp2 = f(z + h * (1 / 5 * kz1),
                 p + h * (1 / 5 * kp1))
    kz3, kp3 = f(z + h * (3 / 40 * kz1 + 9 / 40 * kz2),
                 p + h * (3 / 40 * kp1 + 9 / 40 * kp2))
    kz4, kp4 = f(z + h * (44 / 45 * kz1 + -56 / 15 * kz2 + 32 / 9 * kz3),
                 p + h * (44 / 45 * kp1 + -56 / 15 * kp2 + 32 / 9 * kp3))
    kz5, kp5 = f(z + h * (19372 / 6561 * kz1 + -25360 / 2187 * kz2
                          + 64448 / 6561 * kz3 + -212 / 729 * kz4),
                 p + h * (19372 / 6561 * kp1 + -25360 / 2187 * kp2
                          + 64448 / 6561 * kp3 + -212 / 729 * kp4))
    kz6, kp6 = f(z + h * (9017 / 3168 * kz1 + -355 / 33 * kz2 + 46732 / 5247 * kz3
                          + 49 / 176 * kz4 + -5103 / 18656 * kz5),
                 p + h * (9017 / 3168 * kp1 + -355 / 33 * kp2 + 46732 / 5247 * kp3
                          + 49 / 176 * kp4 + -5103 / 18656 * kp5))
    z = z + h * (35 / 384 * kz1 + 500 / 1113 * kz3 + 125 / 192 * kz4
                 + -2187 / 6784 * kz5 + 11 / 84 * kz6)
    p = p + h * (35 / 384 * kp1 + 500 / 1113 * kp3 + 125 / 192 * kp4
                 + -2187 / 6784 * kp5 + 11 / 84 * kp6)
    kz7, kp7 = f(z, p)
    # fifth- minus fourth-order weights
    ez = ((35 / 384 - 5179 / 57600) * kz1 + (500 / 1113 - 7571 / 16695) * kz3
          + (125 / 192 - 393 / 640) * kz4 + (-2187 / 6784 - -92097 / 339200) * kz5
          + (11 / 84 - 187 / 2100) * kz6 + (0.0 - 1 / 40) * kz7)
    ep = ((35 / 384 - 5179 / 57600) * kp1 + (500 / 1113 - 7571 / 16695) * kp3
          + (125 / 192 - 393 / 640) * kp4 + (-2187 / 6784 - -92097 / 339200) * kp5
          + (11 / 84 - 187 / 2100) * kp6 + (0.0 - 1 / 40) * kp7)
    return z, p, (kz7, kp7), (h * ez, h * ep)


def _rk4_rule(f, z, p, k, h):
    """Classical fourth-order Runge-Kutta."""
    kz1, kp1 = k
    hh = 0.5 * h  # a power of two: the half-step is exact
    kz2, kp2 = f(z + hh * kz1, p + hh * kp1)
    kz3, kp3 = f(z + hh * kz2, p + hh * kp2)
    kz4, kp4 = f(z + h * kz3, p + h * kp3)
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


def _drive(rule, f, z, p, cfg: IntegratorConfig, frame: str, t_end, h):
    """Integrate the pair (z, p) of ``frame`` from 0 to t_end with one rule,
    in fixed steps of h or from the first adaptive step h; a fixed-step run
    goes backwards on a negative t_end and h.

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
    dt = h
    n_grid = math.ceil(t_end / dt - 1e-12) if t_end != 0.0 else 0
    t, n = 0.0, 0
    while True:
        if abs(z) / unit > cfg.escape_radius or abs(p) / unit > cfg.escape_radius:
            return ts, pairs, derivs, "escape", n
        if adaptive:
            remaining = t_end - t
            if remaining <= 1e-13 * max(1.0, t_end):
                break  # landed within rounding of t_end; not a failure
            h = min(h, remaining)
            if h < _MIN_STEP:
                return ts, pairs, derivs, "step_failure", n
            t_next = t + h
        elif n < n_grid:
            t_next = (n + 1) * dt if n + 1 < n_grid else t_end
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


def _moved_fields(dv, m):
    return {"complex": _complex_field(dv, m), "darboux": _darboux_field(dv, m),
            "hi": _hi_field(dv, m)}


# The (method, frame) pairs the package runs.
KERNELS = [("rk45", "complex"), ("rk45", "darboux"), ("rk4", "complex"), ("rk4", "darboux"),
           ("rk4", "hi"), ("split", "darboux")]
# Each of them with the sign of its steps: the H_i flow also runs backwards.
RUNS = [(*key, 1.0) for key in KERNELS] + [("rk4", "hi", -1.0)]


def _kernel_run(spec, method, frame, z, p, cfg, h, sign=1.0):
    return dyn._kernel(method, frame)(spec._dv, spec.mass, z, p, sign * cfg.t_end, sign * h,
                                      cfg.abs_tol, cfg.rel_tol, cfg.escape_radius)


def _oracle_run(spec, method, frame, z, p, cfg, h, sign=1.0, attempts=None):
    """``_drive`` with the rules and fields above, from 0 to sign t_end in
    steps of sign h; each step attempted appends to ``attempts`` when it is
    a list."""
    rule = _split_rule(spec.dv, spec.mass) if method == "split" else _RK_RULES[method]
    if attempts is not None:
        counted = rule

        def rule(*args):
            attempts.append(1)
            return counted(*args)

    return _drive(rule, _moved_fields(spec._dv, spec.mass)[frame], z, p, cfg,
                  "complex" if frame == "complex" else "darboux", sign * cfg.t_end, sign * h)


def _run_bits(run):
    """(t, pairs, field pairs, terminated_by, n_steps) of a kernel record or a
    ``_drive`` result, with every float as hex."""
    if len(run) == 6:  # kernel: t, z, p, kz, kp, (terminated_by, n_steps, n_rhs, n_rejected)
        ts, zs, ps, kzs, kps, stats = run
        run = ts, list(zip(zs, ps)), list(zip(kzs, kps)), *stats[:2]
    ts, pairs, derivs, terminated, n_steps = run
    return [t.hex() for t in ts], _bits(tuple(pairs)), _bits(tuple(derivs)), terminated, n_steps


STAGES = {"rk45": 6, "rk4": 4, "split": 1}


def _check_counters(run, method, attempts):
    """n_rhs charges every attempted step in full; rk45 retries the rest."""
    _, n_steps, n_rhs, n_rejected = run[5]
    assert n_rhs == 1 + STAGES[method] * len(attempts)
    assert n_rejected == (len(attempts) - n_steps if method == "rk45" else 0)


def _step_cfg(method, h):
    """One rk45 step attempt from h (then on to t_end = h), or two fixed steps of h."""
    if method == "rk45":
        return IntegratorConfig(method=method, t_end=h)
    return IntegratorConfig(method=method, dt=h, t_end=2 * h)


class TestUnrolledRules:
    SOURCES = [*BUILTIN_SOURCES.values(), *NON_CATALOG_SOURCES]

    @pytest.mark.parametrize("src", SOURCES)
    @pytest.mark.parametrize("mass", [0.5, 1.0])
    def test_rules_match_tableau_loop(self, src, mass, rng):
        # the rules against the kernels that ``dynamics._rk_step`` generates
        # by a loop over the tableaux: one rk45 step attempt or two fixed
        # steps, and eight steps of h, so that rk45 carries its error scales
        # over; starts whose stage fields have subnormal parts, where a
        # half-step must be formed as (0.5 h) k and not h (0.5 k)
        spec = spec_for(src, mass)
        draws = _draws(rng, 40) + [(1e-320j, 1e-320j, 0.3),
                                   (complex(1e-320, 1.5), complex(-0.5, 4e-321), 0.3),
                                   (complex(0.25, -2e-315), complex(1e-318, 0.0), 0.01)]
        for method, frame, sign in RUNS:
            for z, p, h in draws:
                for cfg in (_step_cfg(method, h),
                            IntegratorConfig(method=method, dt=h, t_end=8 * h)):
                    run, attempts = _kernel_run(spec, method, frame, z, p, cfg, h, sign), []
                    want = _oracle_run(spec, method, frame, z, p, cfg, h, sign, attempts)
                    assert _run_bits(run) == _run_bits(want), (method, frame, sign, z, p, h)
                    _check_counters(run, method, attempts)

    @pytest.mark.parametrize("src", ["z^2", "-(z^4)", "exp(z)+z^5", "z^7 - i*z^2 + 2"])
    def test_overflowing_stage_raises_in_both(self, src):
        # the first field value is finite, a later stage of a step of 1e300
        # leaves double precision: a fixed step fails, an rk45 step is retried
        # with smaller h until the motion leaves the (small) escape radius
        spec = spec_for(src)
        for method, frame, sign in RUNS:
            # the same motion in each frame: the packed pairs are sqrt(2) (z, p)
            unit = 1.0 if frame == "complex" else S2
            z, p = unit * (1.0 + 0.5j), unit * (1.0 - 0.25j)
            cfg = IntegratorConfig(method=method, dt=1e300, t_end=1e300, escape_radius=1.2)
            run = _kernel_run(spec, method, frame, z, p, cfg, 1e300, sign)
            attempts = []
            assert _run_bits(run) == _run_bits(_oracle_run(
                spec, method, frame, z, p, cfg, 1e300, sign, attempts))
            _check_counters(run, method, attempts)
            terminated, n_steps, _, n_rejected = run[5]
            if method == "rk45":
                assert terminated == "escape" and n_rejected > 0
            else:
                assert terminated == "step_failure" and n_steps == 0

    def test_step_underflow_in_both(self):
        # the inverted quartic blows up in finite time; with a radius it
        # never reaches, the controller shrinks h below its floor
        spec = spec_for("-(z^4)")
        cfg = IntegratorConfig(method="rk45", t_end=10.0, escape_radius=1e300)
        for frame, unit in (("complex", 1.0), ("darboux", S2)):
            z = unit * 3.0 + 0j
            run, attempts = _kernel_run(spec, "rk45", frame, z, 0j, cfg, 1e-3), []
            assert _run_bits(run) == _run_bits(_oracle_run(
                spec, "rk45", frame, z, 0j, cfg, 1e-3, attempts=attempts))
            _check_counters(run, "rk45", attempts)
            terminated, n_steps, _, _ = run[5]
            assert terminated == "step_failure" and n_steps > 0

    def test_non_finite_field_raises(self):
        spec = spec_for("z^2", 1e-310)
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0)
        for method, frame, sign in RUNS:
            run = _kernel_run(spec, method, frame, 1.0 + 0j, 1e10 + 0j, cfg, 0.1, sign)
            assert run[5] == ("step_failure", 0, 1, 0) and run[3:5] == ([0j], [0j])
            assert _run_bits(run) == _run_bits(
                _oracle_run(spec, method, frame, 1.0 + 0j, 1e10 + 0j, cfg, 0.1, sign))


FINITE = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(src=st.sampled_from(TestUnrolledRules.SOURCES), mass=st.sampled_from([0.25, 0.5, 1.0]),
       run=st.sampled_from(RUNS), tol=st.floats(1e-12, 1e-4),
       start=st.tuples(FINITE, FINITE, FINITE, FINITE), t_end=st.floats(0.0, 2.0),
       dt=st.sampled_from([1e-3, 0.01, 0.05, 0.3]))
def test_kernels_match_moved_loop(src, mass, run, tol, start, t_end, dt):
    method, frame, sign = run
    spec = spec_for(src, mass)
    cfg = IntegratorConfig(method=method, dt=min(dt, t_end) if t_end > 0 else dt,
                           rel_tol=tol, abs_tol=tol, t_end=t_end, escape_radius=50.0)
    z, p = complex(start[0], start[1]), complex(start[2], start[3])
    h = min(1e-3, t_end) if method == "rk45" else cfg.dt
    got, attempts = _kernel_run(spec, method, frame, z, p, cfg, h, sign), []
    assert _run_bits(got) == _run_bits(_oracle_run(spec, method, frame, z, p, cfg, h, sign,
                                                   attempts))
    _check_counters(got, method, attempts)


def _values(bits):
    """A ``_run_bits`` record with every zero unsigned: two records are equal
    when their floats are equal under ==, NaN matching NaN."""
    if isinstance(bits, (list, tuple)):
        return [_values(b) for b in bits]
    return "0x0.0p+0" if bits == "-0x0.0p+0" else bits


class TestSignedZeroRules:
    """A backwards H_i flow is the forward field run on a negative step.  The
    rk4 rule on the negated field, run forwards and then read with t and the
    fields negated, gives the same values: the two runs differ only in the
    sign of an exactly-zero part."""

    @pytest.mark.parametrize("src", TestUnrolledRules.SOURCES)
    @pytest.mark.parametrize("mass", [0.5, 1.0])
    def test_values_match_signed_zero_rules(self, src, mass, rng):
        spec = spec_for(src, mass)
        negated = _hi_field(spec._dv, mass, backwards=True)
        for z, p, h in _draws(rng, 40):
            cfg = IntegratorConfig(method="rk4", dt=h, t_end=8 * h)
            run = _kernel_run(spec, "rk4", "hi", z, p, cfg, h, sign=-1.0)
            ts, pairs, derivs, stop, n = _drive(_rk4_rule, negated, z, p, cfg, "darboux",
                                                cfg.t_end, h)
            oracle = ([0.0 - t for t in ts], pairs, [(-dz, -dp) for dz, dp in derivs], stop, n)
            assert _values(_run_bits(run)) == _values(_run_bits(oracle)), (z, p, h)


class TestStageChecks:
    """A kernel checks a stage's field only where the stage's weight in the
    step is 0.  Elsewhere a non-finite field fails the step through z1 or
    p1, where ``_drive``, which checks every field, fails it at the stage."""

    @staticmethod
    def dv(sign):
        # stateless: sign * z inside |z| < 1, infinite from there on
        return lambda z: sign * z if abs(z) < 1.0 else complex(math.inf, 0.0)

    # (method, frame, step h, sign): v' = sign * z inside the unit disk, the
    # start's momentum (outward along the real axis), and per stage the start
    # 1 - delta from which that stage is the first past |z| = 1; the motion
    # is repelled, so a later stage reaches farther.  rk45's stage 2 keeps
    # its check.
    CASES = {
        "rk45-complex": ("rk45", "complex", 0.1, -1.0, 1.0,
                         {2: 0.02, 3: 0.05, 4: 0.11, 5: 0.175, 6: 0.19}),
        "rk45-darboux": ("rk45", "darboux", 0.1, -1.0, 1.0,
                         {2: 0.02, 3: 0.05, 4: 0.11, 5: 0.175, 6: 0.19}),
        "rk4-complex": ("rk4", "complex", 0.1, -1.0, 1.0, {2: 0.05, 3: 0.102, 4: 0.15}),
        "rk4-darboux": ("rk4", "darboux", 0.1, -1.0, 1.0, {2: 0.05, 3: 0.102, 4: 0.15}),
        "rk4-hi": ("rk4", "hi", 0.1, 1.0, 1j, {2: 0.025, 3: 0.0506, 4: 0.08}),
        # the H_i flow backwards: the same field on a negative step
        "rk4-hi-backwards": ("rk4", "hi", -0.1, 1.0, -1j, {2: 0.025, 3: 0.0506, 4: 0.08}),
    }

    @staticmethod
    def first_failing_stage(method, frame, dv, z, p, cfg, h, attempts):
        """``_drive`` over one step h with the checked fields, and the first
        stage whose field was not finite (1 is the start's field, S + 1 the
        step's)."""
        field, rule = _moved_fields(dv, 0.5)[frame], _RK_RULES[method]
        stage, failed = [0], []

        def f(z, p):
            stage[0] += 1
            try:
                return field(z, p)
            except PotentialOverflowError:
                failed.append(stage[0])
                raise

        def counted(*args):
            attempts.append(1)
            stage[0] = 1  # the field carried in
            return rule(*args)

        run = _drive(counted, f, z, p, cfg, "complex" if frame == "complex" else "darboux", h, h)
        return run, failed[0]

    @pytest.mark.parametrize("case", list(CASES))
    def test_dropped_checks_fail_the_same_step(self, case):
        method, frame, h, sign, momentum, starts = self.CASES[case]
        unit = 1.0 if frame == "complex" else S2
        cfg = IntegratorConfig(method=method, dt=0.1, t_end=0.1, escape_radius=10.0)
        dv = self.dv(sign)
        weights = dyn._DP_B if method == "rk45" else dyn._RK4_B
        assert set(starts) >= {j for j, b in enumerate(weights, 1) if j > 1 and b}
        for want, delta in starts.items():
            z, p = complex(unit * (1.0 - delta)), unit * momentum
            attempts = []
            oracle, stage = self.first_failing_stage(method, frame, dv, z, p, cfg, h, attempts)
            assert stage == want
            run = dyn._kernel(method, frame)(dv, 0.5, z, p, h, h, cfg.abs_tol,
                                             cfg.rel_tol, cfg.escape_radius)
            assert _run_bits(run) == _run_bits(oracle)
            _check_counters(run, method, attempts)
            if method == "rk45":
                assert run[5][3] > 0  # the step was retried with a smaller h
            else:
                assert run[5][:2] == ("step_failure", 0)


class TestRunCounters:
    def test_rk4_and_split(self):
        spec = spec_for("i*sin(z)")
        for method, per_step in (("rk4", 4), ("split", 1)):
            cfg = IntegratorConfig(method=method, dt=0.01, t_end=3.0)
            for traj in (integrate_complex(spec, 0.2 + 0.1j, 1 + 0j, cfg),
                         integrate_darboux(spec, xi_from(0.2 + 0.1j, 1 + 0j), cfg)):
                assert traj.terminated_by == "t_end" and traj.n_steps == 300
                assert traj.n_rhs == per_step * traj.n_steps + 1
                assert traj.n_rejected == 0

    def test_rk45_counts_rejected_steps(self):
        # a loose tolerance makes the controller overshoot and retry
        spec = spec_for("-(z^4)")
        cfg = IntegratorConfig(method="rk45", rel_tol=1e-3, abs_tol=1e-3, t_end=5.0)
        traj = integrate_complex(spec, 0.5 + 0.2j, 0.3 - 0.1j, cfg)
        assert traj.n_rejected > 0
        assert traj.n_rhs == 6 * (traj.n_steps + traj.n_rejected) + 1

    def test_flow_counts(self):
        traj = invariant_flow(spec_for("i*z^3"), np.array([0.4, 0.3, -0.2, 0.5]),
                              FlowConfig(epsilon_end=-0.5, d_epsilon=0.01))
        assert traj.n_steps == 50 and traj.n_rhs == 4 * 50 + 1


def test_rows_match_array_of_pairs():
    # the rows are those of np.array(pairs, dtype=complex), byte for byte,
    # signed zeros, infinities and NaN parts included
    parts = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan, 5e-324]
    values = [complex(a, b) for a in parts for b in parts]
    pairs = list(zip(values, reversed(values)))
    for columns in dyn._COLUMNS.values():
        for n in (1, 2, len(pairs)):
            got = dyn._rows([z for z, _ in pairs[:n]], [p for _, p in pairs[:n]], columns)
            ref = np.array(pairs[:n], dtype=complex).view(float)[:, columns]
            assert got.shape == ref.shape == (n, 4)
            assert got.tobytes() == ref.tobytes()


# SHA-256 of each kernel's generated text; any change to a kernel shows here.
# Text and not code objects: those differ across Python versions.
KERNEL_SHA256 = {
    ("rk45", "complex"): "c1748819994bdd1d6f97d0ae64e690918bdb93507febfd06dce71a73de39ffb2",
    ("rk45", "darboux"): "136d6a09e278d3044b89ec0dab7e8f162a7012a10ea7d0b58d8963462848f922",
    ("rk4", "complex"): "863680e3f1d95410f863162b504d1255e1ec82cd29f2852de61f83b34aeb9a07",
    ("rk4", "darboux"): "79791c49fcb6ece92d6d9223dcdb5501b8066ff8b8956e816611e71e9315ec61",
    ("rk4", "hi"): "4e25ab0f1bf933cf92beb86d5dee5afb5e971279e922266770fa2c63dd4a91d0",
    ("split", "darboux"): "6c6502efe79964602a7e4dfee68502664c5d647cbc4d15e0f57cdfbf01d242f7",
}


class TestKernelSource:
    def test_pinned_text(self):
        got = {key: hashlib.sha256(dyn._kernel_source(*key).encode()).hexdigest()
               for key in KERNELS}
        assert got == KERNEL_SHA256

    def test_entry_points_run_the_pinned_kernels(self, monkeypatch):
        made = []
        source = dyn._kernel_source
        monkeypatch.setattr(dyn, "_kernel_source", lambda *key: made.append(key) or source(*key))
        dyn._kernel.cache_clear()
        try:
            spec, xi = spec_for("i*z^3"), np.array([0.4, 0.3, -0.2, 0.5])
            for method in dyn.METHODS:
                cfg = IntegratorConfig(method=method, dt=0.01, t_end=0.05)
                integrate_complex(spec, 0.2 + 0.1j, 1 + 0j, cfg)
                integrate_darboux(spec, xi, cfg)
            for eps in (0.05, -0.05):
                invariant_flow(spec, xi, FlowConfig(epsilon_end=eps, d_epsilon=0.01))
            split_step(spec, xi, 0.01)
        finally:
            dyn._kernel.cache_clear()
        assert sorted(made) == sorted(KERNEL_SHA256)
