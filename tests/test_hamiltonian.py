"""Energy evaluation in all three descriptions, plus the reference table."""

import itertools
import math
import re

import numpy as np
import pytest
from conftest import NON_CATALOG_SOURCES

from holomech import closed_forms
from holomech import (
    BUILTIN_SOURCES,
    FlowConfig,
    IntegratorConfig,
    PotentialOverflowError,
    SystemSpec,
    darboux_hamiltonian,
    darboux_invariant,
    darboux_to_w,
    get_builtin,
    hamiltonian_split,
    integrate_complex,
    integrate_darboux,
    invariant_flow,
    verify_reference_table,
    w_to_darboux,
)
from holomech.closed_forms import CORRECTED_FORMS, REFERENCE_MASS, REFERENCE_TABLE
from holomech.hamiltonian import _pairs_to_rows, _row_to_pair, complex_to_darboux
from holomech.potentials import _checked, compile_potential, split_real_imag

S2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


def spec_for(src, mass=0.5):
    return SystemSpec.from_source(src, mass)


def complex_energy(spec, z, p):
    """H(z, p) = p^2/(2m) + v(z) in complex arithmetic; the oracle for the split."""
    return p * p / (2.0 * spec.mass) + complex(*split_real_imag(spec.potential, z.real, z.imag))


def split_at(spec, z, p):
    """H_r + i H_i from ``hamiltonian_split`` at the real point of (z, p)."""
    return complex(*hamiltonian_split(spec, [z.real, p.real, z.imag, p.imag]))


class TestComplexHamiltonian:
    def test_square_potential(self):
        assert split_at(spec_for("z^2"), 1 + 0j, 0j) == 1 + 0j

    def test_kinetic_only(self):
        assert split_at(spec_for("i*z^3"), 0j, 1 + 0j) == 1 + 0j

    def test_linear_imaginary(self):
        assert split_at(spec_for("i*z", mass=1.0), 1j, 0j) == -1 + 0j

    def test_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            spec_for("z^2", mass=0.0)
        with pytest.raises(ValueError):
            spec_for("z^2", mass=-1.0)


class TestEnergySplit:
    def test_iz_at_unit_x(self):
        assert hamiltonian_split(spec_for("i*z"), [1.0, 0.0, 0.0, 0.0]) == (0.0, 1.0)

    def test_pure_momentum(self):
        assert hamiltonian_split(spec_for("z^2"), [0.0, 1.0, 0.0, 0.0]) == (1.0, 0.0)

    def test_iz3_mixed_point(self):
        # H_r = (1-1)/(2m) + v_r(1,0) = 0; H_i = p q/m + v_i(1,0) = 2 + 1
        hr, hi = hamiltonian_split(spec_for("i*z^3"), [1.0, 1.0, 0.0, 1.0])
        assert hr == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(3.0, abs=1e-14)

    def test_split_matches_complex_value(self, builtin_specs, rng):
        for spec in builtin_specs.values():
            for _ in range(200):
                w = rng.uniform(-2, 2, size=4)
                hr, hi = hamiltonian_split(spec, w)
                h = complex_energy(spec, complex(w[0], w[2]), complex(w[1], w[3]))
                assert abs(h - complex(hr, hi)) <= 1e-14 * max(1.0, abs(h))


def log_uniform_points(rng, n, top):
    """n points of R^4 with component magnitudes log-uniform in [1e-3, top]."""
    mags = 10.0 ** rng.uniform(-3.0, math.log10(top), size=(n, 4))
    return mags * rng.choice([-1.0, 1.0], size=(n, 4))


class TestStackSplit:
    """A (..., 4) stack evaluates v once over arrays; each row agrees with
    v evaluated in cmath at its point."""

    @pytest.mark.parametrize("src", [*BUILTIN_SOURCES.values(), *NON_CATALOG_SOURCES])
    @pytest.mark.parametrize("top", [1e3, 1e60, 1e80])
    def test_rows_match_scalar_path(self, src, top, rng):
        spec = spec_for(src)
        stack = log_uniform_points(rng, 400, top)
        hr, hi = hamiltonian_split(spec, stack)
        assert hr.shape == hi.shape == (400,)
        v, m = compile_potential(spec.potential), spec.mass
        for (x, p, y, q), hr_k, hi_k in zip(stack.tolist(), hr, hi):
            try:
                vz = _checked(v, complex(x, y), "v")
            except PotentialOverflowError:
                assert math.isnan(hr_k) and math.isnan(hi_k)
                continue
            ref_r, ref_i = (p * p - q * q) / (2.0 * m) + vz.real, p * q / m + vz.imag
            scale = max(1.0, abs(complex(ref_r, ref_i)))
            assert abs(hr_k - ref_r) <= 4 * EPS * scale
            assert abs(hi_k - ref_i) <= 4 * EPS * scale

    def test_both_classes_drawn(self, rng):
        # the comparison above covers finite rows and NaN rows alike
        hr, _ = hamiltonian_split(spec_for("exp(z)+z^5"), log_uniform_points(rng, 400, 1e60))
        assert np.isnan(hr).any() and np.isfinite(hr).any()

    def test_point_and_stack_shapes(self, rng):
        spec = spec_for("i*sin(z)")
        point = hamiltonian_split(spec, [0.1, 0.2, 0.3, 0.4])
        assert all(type(c) is float for c in point)
        block = rng.uniform(-2, 2, size=(3, 5, 4))
        hr, hi = hamiltonian_split(spec, block)
        assert hr.shape == hi.shape == (3, 5)
        sub_r, sub_i = hamiltonian_split(spec, block[1])
        assert np.array_equal(sub_r, hr[1]) and np.array_equal(sub_i, hi[1])
        empty = hamiltonian_split(spec, np.empty((0, 4)))
        assert empty[0].shape == empty[1].shape == (0,)
        with pytest.raises(ValueError):
            hamiltonian_split(spec, np.zeros((2, 3)))

    def test_constant_potential_stack(self):
        hr, hi = hamiltonian_split(spec_for("2+i"), np.array([[0.0, 1.0, 0.0, 0.0]] * 3))
        assert np.array_equal(hr, [3.0] * 3) and np.array_equal(hi, [1.0] * 3)

    def test_overflow_point_raises_stack_gives_nan(self):
        spec = spec_for("exp(z)")
        with pytest.raises(PotentialOverflowError):
            hamiltonian_split(spec, [1e4, 0.0, 0.0, 0.0])
        hr, hi = hamiltonian_split(spec, np.array([[1e4, 0.0, 0.0, 0.0],
                                                   [0.0, 1.0, 0.0, 0.0]]))
        assert math.isnan(hr[0]) and math.isnan(hi[0])
        assert (hr[1], hi[1]) == hamiltonian_split(spec, [0.0, 1.0, 0.0, 0.0])

    def test_domain_error_raises_overflow(self):
        # z^5 overflows to an infinite argument, where cmath.sin raises ValueError
        spec = spec_for("sin(z*z*z*z*z)")
        with pytest.raises(PotentialOverflowError):
            spec.dv(1e70 + 0j)
        with pytest.raises(PotentialOverflowError):
            hamiltonian_split(spec, [1e70, 1.0, 0.0, 0.0])

    def test_darboux_stack_is_twice_hr(self, builtin_specs, rng):
        xi = rng.uniform(-2, 2, size=(100, 4))
        for spec in builtin_specs.values():
            hr, hi = hamiltonian_split(spec, darboux_to_w(xi))
            assert np.array_equal(darboux_hamiltonian(spec, xi), 2.0 * hr)
            assert np.array_equal(darboux_invariant(spec, xi), hi)


def assert_points_are_rows(spec, w, hr, hi):
    """Each point of the (n, 4) stack w gives its row of (hr, hi) bit for bit,
    and raises PotentialOverflowError exactly where that row is NaN."""
    for w_k, hr_k, hi_k in zip(w, hr, hi):
        if math.isnan(hr_k):
            assert math.isnan(hi_k)
            with pytest.raises(PotentialOverflowError, match="^overflow evaluating v"):
                hamiltonian_split(spec, w_k)
        else:
            point = hamiltonian_split(spec, w_k)
            assert [c.hex() for c in point] == [hr_k.hex(), hi_k.hex()], w_k


class TestPointIsStackRow:
    """A point goes through the stack path: the split at a trajectory's row is
    the (hr, hi) it records, in every method and frame and along an H_i flow."""

    Z0, P0 = 0.3 + 0.2j, 0.5 - 0.1j
    CFG = dict(dt=0.01, t_end=2.0)

    @pytest.mark.parametrize("method", ["rk45", "rk4", "split"])
    def test_trajectory_rows(self, builtin_specs, method):
        cfg = IntegratorConfig(method=method, **self.CFG)
        for spec in builtin_specs.values():
            traj = integrate_complex(spec, self.Z0, self.P0, cfg)
            assert_points_are_rows(spec, traj.states, traj.hr, traj.hi)
            traj = integrate_darboux(spec, complex_to_darboux(self.Z0, self.P0), cfg)
            assert_points_are_rows(spec, darboux_to_w(traj.states), traj.hr, traj.hi)

    def test_invariant_flow_rows(self, builtin_specs):
        flow = FlowConfig(epsilon_end=-0.5, d_epsilon=0.01)
        for spec in builtin_specs.values():
            traj = invariant_flow(spec, [0.4, 0.3, -0.2, 0.5], flow)
            assert_points_are_rows(spec, darboux_to_w(traj.states), traj.hr, traj.hi)

    def test_overflowing_rows_raise(self, rng):
        spec = spec_for("exp(z)+z^5")
        w = log_uniform_points(rng, 200, 1e60)
        hr, hi = hamiltonian_split(spec, w)
        assert np.isnan(hr).any() and np.isfinite(hr).any()
        assert_points_are_rows(spec, w, hr, hi)


class TestDarbouxQuantities:
    def test_h_square_potential(self):
        # p1^2 - p2^2 + x1^2 - x2^2 at (1,1,1,1)
        assert darboux_hamiltonian(spec_for("z^2"), [1.0, 1.0, 1.0, 1.0]) == \
            pytest.approx(0.0, abs=1e-15)

    def test_h_exponential_at_origin(self):
        assert darboux_hamiltonian(spec_for("exp(i*z)"), [0.0, 0.0, 0.0, 0.0]) == 2.0

    def test_h_is_twice_hr_by_construction(self, builtin_specs, rng):
        # same floating-point operations on both sides of the identity
        for spec in builtin_specs.values():
            for _ in range(100):
                xi = rng.uniform(-2, 2, size=4)
                w = darboux_to_w(xi)
                assert darboux_hamiltonian(spec, xi) == 2.0 * hamiltonian_split(spec, w)[0]

    def test_invariant_iz(self):
        assert darboux_invariant(spec_for("i*z"), [S2, 0.0, 0.0, 0.0]) == \
            pytest.approx(1.0, abs=1e-15)

    def test_invariant_iz3(self):
        assert darboux_invariant(spec_for("i*z^3"), [S2, 0.0, 0.0, 0.0]) == \
            pytest.approx(1.0, abs=1e-14)

    def test_invariant_i_sin_z(self):
        assert darboux_invariant(spec_for("i*sin(z)"), [0.0, 1.0, 1.0, 0.0]) == \
            pytest.approx(1.0, abs=1e-15)


class TestPhasePoints:
    """Points are (z, p) pairs inside the integrators and float rows at the
    API edge; a zero-length run records exactly its initial point."""

    def test_real_point_bijection(self, rng):
        cfg = IntegratorConfig(t_end=0.0)
        for _ in range(50):
            w = rng.uniform(-3, 3, size=4)
            z, p = complex(w[0], w[2]), complex(w[1], w[3])
            row = integrate_complex(spec_for("z^2"), z, p, cfg).states[0]
            assert np.array_equal(row, w)
            assert complex(row[0], row[2]) == z and complex(row[1], row[3]) == p

    def test_complex_point_to_w(self):
        traj = integrate_complex(spec_for("z^2"), 1 + 2j, 3 + 4j,
                                 IntegratorConfig(t_end=0.0))
        assert np.array_equal(traj.states[0], [1.0, 3.0, 2.0, 4.0])

    def test_darboux_point_array(self):
        spec = spec_for("i*z^3")
        xi0 = np.array([1.0, 2.0, 3.0, 4.0])
        for method in ("rk45", "rk4", "split"):
            traj = integrate_darboux(spec, xi0, IntegratorConfig(method=method, t_end=0.0))
            assert np.array_equal(traj.states[0], xi0)
        flow = invariant_flow(spec, xi0, FlowConfig(epsilon_end=0.0))
        assert np.array_equal(flow.states[0], xi0)

    def test_w_xi_maps_invert(self, rng):
        w = rng.uniform(-3, 3, size=(100, 4))
        assert np.allclose(darboux_to_w(w_to_darboux(w)), w, rtol=0, atol=1e-15)

    def test_stack_maps_match_rows(self, rng):
        stack = rng.uniform(-3, 3, size=(50, 4))
        for to_frame in (w_to_darboux, darboux_to_w):
            rows = np.array([to_frame(row) for row in stack])
            assert np.array_equal(to_frame(stack), rows)
        # xi = sqrt(2) (x, p, q, y), written out
        xi = np.array([[S2 * x, S2 * p, S2 * q, S2 * y] for x, p, y, q in stack])
        assert np.array_equal(w_to_darboux(stack), xi)

    @pytest.mark.parametrize("frame", ["complex", "darboux"])
    def test_row_pair_row_bit_for_bit(self, frame):
        # row -> (z, p) -> row keeps every part's bits: signed zeros, +-inf,
        # NaN and subnormals included
        parts = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1.5]
        for row in np.array(list(itertools.product(parts, repeat=4))):
            z, p = _row_to_pair(row, frame)
            assert _pairs_to_rows([z], [p], frame)[0].tobytes() == row.tobytes()

    @pytest.mark.parametrize("z, p", [
        (0.3 + 0.2j, 0.5 - 0.1j),
        (complex(-0.0, 0.0), complex(0.0, -0.0)),
        (complex(5e-324, -5e-324), complex(-2.5e-310, 1e-300)),
        (complex(1.2e308, -1.3e308), complex(-1.7e308, 1e308)),  # overflows to inf
        (complex(math.inf, -math.inf), complex(math.nan, 1.0)),
    ])
    def test_complex_to_darboux_is_the_scaled_w_row(self, z, p):
        # byte for byte the image of the w row (x, p, y, q) under w_to_darboux
        with np.errstate(over="ignore"):
            ref = w_to_darboux(np.array([z.real, p.real, z.imag, p.imag]))
        got = complex_to_darboux(z, p)
        assert got.shape == (4,) and got.dtype == float
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("top", [3.0, 1e300, 1e-300])
    def test_round_trips_within_one_ulp(self, rng, top):
        # dividing and multiplying by sqrt(2) each round: a round trip in
        # either direction moves about one coordinate in eight of a normal
        # row, and none by more than 1 ulp
        rows = rng.uniform(-top, top, size=(200_000, 4))
        tiny = np.finfo(float).tiny
        for there, back in ((w_to_darboux, darboux_to_w), (darboux_to_w, w_to_darboux)):
            image = there(rows)
            normal = ((np.abs(rows) >= tiny) & (np.abs(image) >= tiny)).all(axis=1)
            assert normal.mean() > 0.99
            moved = np.abs(back(image)[normal] - rows[normal])
            assert (moved <= np.spacing(np.abs(rows[normal]))).all()
            assert 0.05 < np.mean(moved > 0) < 0.25


class TestReferenceTable:
    """The generic construction is ground truth; the closed-form table is a
    fixture cross-checked against it so misprints are detected, not inherited."""

    def test_ten_entries_pass(self):
        report = verify_reference_table(seed=42, points=100)
        assert report["n_pass"] == 10
        passing = {(r["potential"], r["column"]) for r in report["rows"]
                   if r["status"] == "PASS"}
        for name in ("z2", "iz3", "exp_iz", "i_sin_z"):
            assert (name, "h") in passing and (name, "Hi") in passing
        assert ("neg_z4", "h") in passing
        assert ("iz", "Hi") in passing

    def test_known_discrepancies(self):
        report = verify_reference_table(seed=42, points=100)
        bad = {(r["potential"], r["column"]) for r in report["rows"]
               if r["status"] == "DISCREPANT"}
        assert bad == {("iz", "h"), ("neg_z4", "Hi")}

    @pytest.mark.parametrize("text, names", [("x1 + foo(x2)", "['foo']"),
                                             ("abs(x1) + pi", "['abs', 'pi']")])
    def test_form_with_unknown_name_refused(self, text, names):
        with pytest.raises(ValueError, match=re.escape(f"names {names}")):
            closed_forms._compile_form(text)

    def test_corrected_forms_verify(self):
        report = verify_reference_table(seed=42, points=100)
        assert report["consistent"]
        for row in report["rows"]:
            if row["status"] == "DISCREPANT":
                assert row["corrected_max_deviation"] <= 1e-12
                assert "corrected_form" in row

    def test_corrected_iz_h_is_sqrt2_scaled(self):
        # the table's -p2/sqrt(2) term vs the construction's -sqrt(2)*p2
        src, func = CORRECTED_FORMS[("iz", "h")]
        assert "sqrt(2)*p2" in src
        spec = spec_for("i*z")
        assert func(0.3, 0.7, -0.2, 1.1) == pytest.approx(
            darboux_hamiltonian(spec, [0.3, 0.7, -0.2, 1.1]), abs=1e-14)

    def test_corrected_neg_z4_hi_sign(self):
        src, func = CORRECTED_FORMS[("neg_z4", "Hi")]
        assert "+ x1*p2^3" in src
        spec = spec_for("-(z^4)")
        assert func(0.3, 0.7, -0.2, 1.1) == pytest.approx(
            darboux_invariant(spec, [0.3, 0.7, -0.2, 1.1]), abs=1e-14)

    def test_discrepancy_set_stable_across_seeds(self):
        r1 = verify_reference_table(seed=7, points=50)
        assert r1["n_discrepant"] == 2


def table_by_points(seed, points, tol=1e-12):
    """The per-point loop verify_reference_table ran before it was
    vectorised: scalar closed forms and scalar generic values, one sample at
    a time, with a strict ``>`` running maximum."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-2.0, 2.0, size=(points, 4))
    specs = {name: SystemSpec(get_builtin(name), REFERENCE_MASS)
             for name in {e.potential for e in REFERENCE_TABLE}}

    def generic(spec, column, xi):
        return darboux_hamiltonian(spec, xi) if column == "h" else darboux_invariant(spec, xi)

    rows = []
    consistent = True
    for entry in REFERENCE_TABLE:
        spec = specs[entry.potential]
        worst = -1.0
        worst_xi = samples[0]
        for xi in samples:
            dev = abs(entry.func(*xi) - generic(spec, entry.column, xi))
            if dev > worst:
                worst, worst_xi = dev, xi
        row = {"max_deviation": worst, "status": "PASS" if worst <= tol else "DISCREPANT"}
        if row["status"] == "DISCREPANT":
            row["worst_point"] = [float(c) for c in worst_xi]
            corrected = CORRECTED_FORMS.get((entry.potential, entry.column))
            if corrected is None:
                consistent = False
            else:
                src, func = corrected
                row["corrected_form"] = src
                row["corrected_max_deviation"] = max(
                    abs(func(*xi) - generic(spec, entry.column, xi)) for xi in samples)
                if row["corrected_max_deviation"] > tol:
                    consistent = False
        rows.append(row)
    return {"rows": rows, "consistent": consistent,
            "n_pass": sum(r["status"] == "PASS" for r in rows),
            "n_discrepant": sum(r["status"] == "DISCREPANT" for r in rows)}


@pytest.mark.parametrize("seed", [42, 7, 20261017])
@pytest.mark.parametrize("points", [1, 100])
def test_table_matches_per_point_loop(seed, points):
    report = verify_reference_table(seed=seed, points=points)
    oracle = table_by_points(seed, points)
    for key in ("consistent", "n_pass", "n_discrepant"):
        assert report[key] == oracle[key]
    for row, ref in zip(report["rows"], oracle["rows"], strict=True):
        assert row["status"] == ref["status"]
        for key in ("worst_point", "corrected_form"):
            assert row.get(key) == ref.get(key)
        for key in ("max_deviation", "corrected_max_deviation"):
            if key in ref:
                assert abs(row[key] - ref[key]) <= 1e-15


def table_per_entry(seed=42, points=100, tol=1e-12):
    """verify_reference_table as it stood with one generic evaluation per
    entry (darboux_hamiltonian or darboux_invariant on the sample block),
    its deviation and first maximum computed entry by entry."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-2.0, 2.0, size=(points, 4))
    columns = samples.T
    specs = {name: SystemSpec(get_builtin(name), REFERENCE_MASS)
             for name in {e.potential for e in REFERENCE_TABLE}}

    rows = []
    consistent = True
    for entry in REFERENCE_TABLE:
        spec = specs[entry.potential]
        if entry.column == "h":
            gen = darboux_hamiltonian(spec, samples)
        else:
            gen = darboux_invariant(spec, samples)
        ref = entry.func(*columns)
        dev = np.abs(ref - gen)
        k = int(np.argmax(dev))
        row = {
            "potential": entry.potential,
            "column": entry.column,
            "reference_form": entry.source,
            "max_deviation": float(dev[k]),
            "status": "PASS" if dev[k] <= tol else "DISCREPANT",
        }
        if row["status"] == "DISCREPANT":
            row["worst_point"] = [float(c) for c in samples[k]]
            row["reference_value"] = float(ref[k])
            row["generic_value"] = float(gen[k])
            corrected = CORRECTED_FORMS.get((entry.potential, entry.column))
            if corrected is None:
                consistent = False
            else:
                src, func = corrected
                cdev = float(np.max(np.abs(func(*columns) - gen)))
                row["corrected_form"] = src
                row["corrected_max_deviation"] = cdev
                if cdev > tol:
                    consistent = False
        rows.append(row)

    return {
        "seed": seed,
        "points": points,
        "mass": REFERENCE_MASS,
        "tolerance": tol,
        "rows": rows,
        "n_pass": sum(r["status"] == "PASS" for r in rows),
        "n_discrepant": sum(r["status"] == "DISCREPANT" for r in rows),
        "consistent": consistent,
    }


@pytest.mark.parametrize("seed", [42, 7, 20261017])
@pytest.mark.parametrize("points", [1, 100])
def test_table_matches_per_entry_evaluation(seed, points):
    # one split per potential gives the bits of one evaluation per entry
    assert repr(verify_reference_table(seed=seed, points=points)) == \
        repr(table_per_entry(seed, points))


def test_table_splits_once_per_potential(monkeypatch):
    calls = []

    def counted(spec, w):
        calls.append(spec.potential)
        return hamiltonian_split(spec, w)

    monkeypatch.setattr(closed_forms, "hamiltonian_split", counted)
    verify_reference_table(seed=42, points=100)
    assert len(calls) == len(set(calls)) == len({e.potential for e in REFERENCE_TABLE}) == 6


def test_submodule_not_shadowed():
    # no name exported by the package hides its hamiltonian submodule
    import holomech.hamiltonian as hm

    assert hm.SystemSpec is SystemSpec


def test_table_seed_and_points_have_no_defaults():
    # verify-table1 states both defaults; every caller passes both
    import inspect

    params = inspect.signature(verify_reference_table).parameters
    assert params["seed"].default is params["points"].default is inspect.Parameter.empty
    with pytest.raises(TypeError):
        verify_reference_table()
