"""Integrators, invariant drift, split-step structure, and the H_i flow."""

import math

import numpy as np
import pytest
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
    SystemSpec,
    darboux_to_w,
    equivalence_report,
    get_builtin,
    integrate_complex,
    integrate_darboux,
    invariant_flow,
    invariant_flow_field,
    solve_invariant_zero,
    split_step,
    w_to_darboux,
)

S2 = math.sqrt(2.0)


def spec_for(src, mass=0.5):
    return SystemSpec.from_source(src, mass)


def xi_from(z0, p0):
    return w_to_darboux(np.array([z0.real, p0.real, z0.imag, p0.imag]))


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")

    def test_method_aliases(self):
        assert IntegratorConfig(method="fixed-rk4").method == "rk4"
        assert IntegratorConfig(method="adaptive-rk45").method == "rk45"
        assert IntegratorConfig(method="split-step").method == "split"

    def test_tolerances_range(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)

    def test_dt_not_exceeding_t_end(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", dt=2.0, t_end=1.0)

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

    def test_initial_point_outside_radius(self):
        traj = integrate_complex(spec_for("z^2"), 2e3 + 0j, 0j,
                                 IntegratorConfig(method="rk45", t_end=1.0))
        assert traj.terminated_by == "escape"
        assert len(traj.t) == 1


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
            linear = xi0 + eps * invariant_flow_field(spec, xi0)
            assert np.max(np.abs(traj.final_state() - linear)) <= 5e-8

    def test_generator_components(self):
        # x1 component is x2/(2m); p2 component is -p1/(2m)
        spec = spec_for("z^2")
        xi = np.array([0.7, -0.3, 1.1, 0.2])
        f = invariant_flow_field(spec, xi)
        assert f[0] == xi[2] / (2 * spec.mass)
        assert f[3] == -xi[1] / (2 * spec.mass)

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
            assert np.array_equal(d, invariant_flow_field(spec, xi))
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
