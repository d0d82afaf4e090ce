"""Structure matrices, brackets, eigen-magnitudes, and Darboux frames."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomech import (
    DegenerateStructureError,
    J_STANDARD,
    SystemSpec,
    SymplecticParams,
    bracket,
    build_real_J,
    darboux_frame,
    eigenvalue_magnitudes,
    frame_residuals,
    hamiltonian_field,
    momentum_field,
    position_field,
    standard_bracket,
    verify_compatibility,
)
from holomech.symplectic import (
    DEGENERACY_TOL,
    _SEED_ORDER,
    _checked_structure,
    format_matrix,
    sample_params,
    structure_trials,
)

J0 = 0.5 * np.array([
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, -1],
    [0, 0, 1, 0],
], dtype=float)


# Fields and maps the tests build from the package's: the gradients of the
# coordinate functions, exact gradients of H_r and H_i, central-difference
# gradients of any function, the block normal form of a frame and the Darboux
# map xi = D^{-1/2} S^T w with its inverse.  A field enters ``bracket`` as its
# gradient function.


def coordinate_field(k):
    e = np.zeros(4)
    e[k] = 1.0
    return lambda w: e


def fd_field(func):
    """Central-difference gradient of ``func``, step 1e-6 * max(1, |w|)."""
    def grad(w):
        step = 1e-6 * max(1.0, float(np.linalg.norm(w)))
        g = np.zeros(4, dtype=complex)
        for k in range(4):
            wp = w.copy()
            wm = w.copy()
            wp[k] += step
            wm[k] -= step
            g[k] = (func(wp) - func(wm)) / (2.0 * step)
        return g

    return grad


def hamiltonian_real_field(spec):
    """Exact gradient (Re v', p/m, -Im v', -q/m) of H_r."""
    def grad(w):
        dv = spec.dv(complex(w[0], w[2]))
        m = spec.mass
        return np.array([dv.real, w[1] / m, -dv.imag, -w[3] / m])

    return grad


def hamiltonian_imag_field(spec):
    """Exact gradient (Im v', q/m, Re v', p/m) of H_i."""
    def grad(w):
        dv = spec.dv(complex(w[0], w[2]))
        m = spec.mass
        return np.array([dv.imag, w[3] / m, dv.real, w[1] / m])

    return grad


def j_prime(r_plus, r_minus):
    """Block normal form with +r+ and +r- in the (1,2) and (3,4) entries."""
    return np.array([
        [0.0, r_plus, 0.0, 0.0],
        [-r_plus, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, r_minus],
        [0.0, 0.0, -r_minus, 0.0],
    ])


def _scale(frame):
    return np.array([frame.r_plus, frame.r_plus, frame.r_minus, frame.r_minus])


def darboux_map(frame, w):
    """Symplectic coordinates xi_a = r^{-1/2} sum_k S_{k a} w_k."""
    return (frame.S.T @ np.asarray(w, dtype=float)) / np.sqrt(_scale(frame))


def inverse_darboux_map(frame, xi):
    return frame.S @ (np.asarray(xi, dtype=float) * np.sqrt(_scale(frame)))


class TestStructureMatrices:
    def test_real_J_zero_params_is_J0(self):
        assert np.array_equal(build_real_J((0.0, 0.0, 0j)), J0)

    def test_real_J_a_two(self):
        expected = 0.5 * np.array([
            [0, 1, -2, 0],
            [-1, 0, 0, 0],
            [2, 0, 0, -1],
            [0, 0, 1, 0],
        ], dtype=float)
        assert np.array_equal(build_real_J((2.0, 0.0, 0j)), expected)

    def test_real_J_degenerate_raises(self):
        with pytest.raises(DegenerateStructureError):
            build_real_J((0.0, 0.0, 1.0 + 0j))

    def test_real_J_antisymmetric_exactly(self, rng):
        for _ in range(50):
            J = build_real_J(sample_params(rng))
            assert np.array_equal(J, -J.T)

    def test_degeneracy_flag(self):
        degenerate = SymplecticParams(0.0, 0.0, 1j)
        assert degenerate.degeneracy_defect == 0.0
        with pytest.raises(DegenerateStructureError):
            build_real_J(degenerate)
        assert SymplecticParams(1.0, -2.0, 0.5j).degeneracy_defect == \
            pytest.approx(0.25 + 2.0 - 1.0)
        invertible = SymplecticParams(0.0, 0.0, 0j)
        assert invertible.degeneracy_defect == -1.0
        assert np.isfinite(build_real_J(invertible)).all()


class TestEigenMagnitudes:
    def test_zero_params(self):
        assert eigenvalue_magnitudes((0.0, 0.0, 0j)) == (0.5, 0.5)

    def test_equal_ab(self):
        rp, rm = eigenvalue_magnitudes((2.0, 2.0, 0j))
        assert rp == pytest.approx(math.sqrt(5) / 2, abs=1e-15)
        assert rm == pytest.approx(math.sqrt(5) / 2, abs=1e-15)

    def test_unit_alpha_degenerate(self):
        rp, rm = eigenvalue_magnitudes((0.0, 0.0, 1 + 0j))
        assert rp == pytest.approx(1.0, abs=1e-15)
        assert rm == 0.0

    def test_unit_alpha_inexact_representation(self):
        # 0.6^2 + 0.8^2 rounds to 1 + 2 ulp; the cancellation-free form must
        # still report an (essentially) zero r-
        rp, rm = eigenvalue_magnitudes((0.0, 0.0, complex(0.6, 0.8)))
        assert rm <= 1e-12

    def test_matches_textbook_formula(self, rng):
        for _ in range(100):
            p = sample_params(rng)
            s = abs(p.alpha) ** 2
            A = p.a**2 + p.b**2 + 2 * (s + 1)
            B = math.sqrt(((p.a + p.b) ** 2 + 4) * ((p.a - p.b) ** 2 + 4 * s))
            rp_ref = math.sqrt((A + B) / 8)
            rm_ref = math.sqrt(max(A - B, 0.0) / 8)
            rp, rm = eigenvalue_magnitudes(p)
            assert rp == pytest.approx(rp_ref, rel=1e-12)
            assert rm == pytest.approx(rm_ref, rel=1e-7, abs=1e-9)

    def test_ordering_and_positivity(self, rng):
        for _ in range(100):
            rp, rm = eigenvalue_magnitudes(sample_params(rng))
            assert rp >= rm >= 0.0

    def test_eigenvalues_of_J_are_pm_i_r(self, rng):
        for _ in range(30):
            p = sample_params(rng)
            J = build_real_J(p)
            rp, rm = eigenvalue_magnitudes(p)
            eig = np.sort(np.abs(np.linalg.eigvals(J).imag))
            assert eig[0] == pytest.approx(rm, rel=1e-9)
            assert eig[3] == pytest.approx(rp, rel=1e-9)

    def test_det_equals_product_squared(self, rng):
        for _ in range(100):
            p = sample_params(rng)
            J = build_real_J(p)
            rp, rm = eigenvalue_magnitudes(p)
            assert np.linalg.det(J) == pytest.approx((rp * rm) ** 2, rel=1e-8)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_product_of_magnitudes_is_quarter_defect(a, b, ar, ai):
    p = SymplecticParams(a, b, complex(ar, ai))
    rp, rm = eigenvalue_magnitudes(p)
    assert rp * rm == pytest.approx(abs(p.degeneracy_defect) / 4.0,
                                    rel=1e-12, abs=1e-15)


class TestBrackets:
    def test_position_with_H_under_J0(self, rng):
        spec = SystemSpec.from_source("z^2", 0.5)
        H = hamiltonian_field(spec)
        for _ in range(10):
            w = rng.uniform(-2, 2, size=4)
            expected = complex(w[1], w[3]) / spec.mass
            assert bracket(position_field(), H, J0, w) == \
                pytest.approx(expected, abs=1e-13)

    def test_x_p_bracket_J0(self):
        w = np.zeros(4)
        assert bracket(coordinate_field(0), coordinate_field(1), J0, w) == 0.5

    def test_self_bracket_vanishes(self):
        w = np.array([0.3, 0.1, -0.2, 0.5])
        assert bracket(coordinate_field(0), coordinate_field(0), J0, w) == 0.0

    def test_standard_bracket_annihilates_analytic_H(self, builtin_specs, rng):
        for spec in builtin_specs.values():
            H = hamiltonian_field(spec)
            for _ in range(20):
                w = rng.uniform(-2, 2, size=4)
                assert abs(standard_bracket(position_field(), H, w)) <= 1e-12
                assert abs(standard_bracket(momentum_field(), H, w)) <= 1e-12

    def test_standard_x_p_is_one(self):
        assert standard_bracket(coordinate_field(0), coordinate_field(1),
                                np.zeros(4)) == 1.0

    def test_antisymmetry_with_fd_fields(self, rng):
        f = fd_field(lambda w: math.sin(w[0]) * w[3] + w[1] ** 2)
        g = fd_field(lambda w: math.cosh(w[2]) - w[0] * w[1])
        for _ in range(20):
            p = sample_params(rng)
            J = build_real_J(p)
            w = rng.uniform(-2, 2, size=4)
            ab = bracket(f, g, J, w)
            ba = bracket(g, f, J, w)
            assert abs(ab + ba) <= 1e-10

    def test_bilinearity(self, rng):
        spec = SystemSpec.from_source("i*z^3", 0.5)
        hr = hamiltonian_real_field(spec)
        hi = hamiltonian_imag_field(spec)
        x = coordinate_field(0)
        J = build_real_J(sample_params(rng))
        w = rng.uniform(-2, 2, size=4)
        lhs = bracket(x, lambda v: 2.0 * hr(v) - 3.0 * hi(v), J, w)
        rhs = 2.0 * bracket(x, hr, J, w) - 3.0 * bracket(x, hi, J, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_reality_for_real_fields(self, builtin_specs, rng):
        # real-valued fields with real J give exactly real brackets
        for spec in builtin_specs.values():
            hr = hamiltonian_real_field(spec)
            hi = hamiltonian_imag_field(spec)
            for _ in range(10):
                p = sample_params(rng)
                J = build_real_J(p)
                w = rng.uniform(-2, 2, size=4)
                assert bracket(hr, hi, J, w).imag == 0.0


class TestCompatibility:
    def test_zero_params_iz3(self, rng):
        spec = SystemSpec.from_source("i*z^3", 0.5)
        w = rng.uniform(-2, 2, size=4)
        rep = verify_compatibility((0.0, 0.0, 0j), spec, w)
        assert rep["passed"]
        assert rep["residuals"]["position_equation"] <= 1e-10
        assert rep["residuals"]["momentum_equation"] <= 1e-10

    def test_generic_params_same_bound(self, rng):
        spec = SystemSpec.from_source("i*z^3", 0.5)
        w = rng.uniform(-2, 2, size=4)
        rep = verify_compatibility((1.0, -1.0, 0.3 + 0.2j), spec, w)
        assert rep["passed"]

    def test_parameter_independence_all_builtins(self, builtin_specs, rng):
        for spec in builtin_specs.values():
            for _ in range(100):
                p = sample_params(rng)
                w = rng.uniform(-2, 2, size=4)
                rep = verify_compatibility(p, spec, w)
                assert rep["passed"], (spec.potential, p)

    def test_standard_structure_incompatible(self, rng):
        # the standard bracket gives dz/dt = 0, so the residual equals |p/m|
        spec = SystemSpec.from_source("i*z^3", 0.5)
        H = hamiltonian_field(spec)
        w = np.array([0.3, 0.8, -0.4, 0.1])
        res = abs(standard_bracket(position_field(), H, w)
                  - complex(w[1], w[3]) / spec.mass)
        assert res == pytest.approx(abs(complex(w[1], w[3])) / spec.mass, rel=1e-12)

    def test_degenerate_reported_not_raised(self, rng):
        spec = SystemSpec.from_source("z^2", 0.5)
        rep = verify_compatibility((0.0, 0.0, 1 + 0j), spec, np.zeros(4))
        assert not rep["passed"]
        assert rep["residuals"] is None

    def test_report_is_json_ready(self, rng):
        import json

        spec = SystemSpec.from_source("z^2", 0.5)
        rep = verify_compatibility((0.5, 0.5, 0.1 + 0.2j), spec,
                                   rng.uniform(-1, 1, size=4))
        assert json.loads(json.dumps(rep)) == rep

    @pytest.mark.parametrize("params, residuals", [
        ((0.5, 0.5, 0.1 + 0.2j), {"position_equation", "momentum_equation"}),
        ((0.0, 0.0, 1 + 0j), None)], ids=["regular", "degenerate"])
    def test_report_keys(self, params, residuals):
        # the report holds what its callers read, and nothing else
        spec = SystemSpec.from_source("z^2", 0.5)
        rep = verify_compatibility(params, spec, np.array([0.3, 0.8, -0.4, 0.1]))
        assert list(rep) == ["params", "residuals", "passed"]
        assert list(rep["params"]) == ["a", "b", "alpha_re", "alpha_im"]
        assert (rep["residuals"] if residuals is None else set(rep["residuals"])) == residuals


class TestRealGenerator:
    """h = 2 H_r generates the complex motion, with H_i in involution with
    it, under J(0, 0, 0) only.

    Bounds are rounding bounds: a 4-term dot product errs by at most
    4 eps sum_k |a_k b_k|, so J grad(2 H_r) by 4 eps |J| |grad(2 H_r)| per
    component and grad H_r . J grad H_i by 8 eps |grad H_r| |J| |grad H_i|.
    A member fails when its value exceeds that bound a millionfold.
    """

    W = np.array([0.3, 0.5, 0.2, -0.1])
    EPS = np.finfo(float).eps

    def field_mismatch(self, spec, J):
        """(max_k |J grad(2 H_r) - f|_k, its rounding bound) at W, with f the
        vector field (p/m, -Re v', q/m, -Im v') of dz/dt = p/m, dp/dt = -v'."""
        w, m = self.W, spec.mass
        dv = spec.dv(complex(w[0], w[2]))
        f = np.array([w[1] / m, -dv.real, w[3] / m, -dv.imag])
        g = 2.0 * hamiltonian_field(spec)(w).real
        return np.abs(J @ g - f).max(), (4.0 * self.EPS * (np.abs(J) @ np.abs(g))).max()

    def involution(self, spec, J):
        """(|{H_r, H_i}_J|, its rounding bound) at W."""
        H = hamiltonian_field(spec)
        hr, hi = (lambda w: H(w).real), (lambda w: H(w).imag)
        gr, gi = hr(self.W), hi(self.W)
        bound = 8.0 * self.EPS * (np.abs(gr) @ np.abs(J) @ np.abs(gi))
        return abs(bracket(hr, hi, J, self.W)), bound

    def test_zero_params_generate_the_motion(self, builtin_specs):
        J = build_real_J(SymplecticParams(0.0, 0.0, 0j))
        for name, spec in builtin_specs.items():
            value, bound = self.field_mismatch(spec, J)
            assert value <= bound, name
            value, bound = self.involution(spec, J)
            assert value <= bound, name

    def test_other_members_do_not(self, builtin_specs):
        rng = np.random.default_rng(7)
        for params in [sample_params(rng) for _ in range(6)]:
            J = build_real_J(params)
            for name, spec in builtin_specs.items():
                value, bound = self.field_mismatch(spec, J)
                assert value > 1e6 * bound, (name, params)
                value, bound = self.involution(spec, J)
                assert value > 1e6 * bound, (name, params)


class TestDarbouxFrame:
    def test_zero_params_signed_permutation(self):
        frame = darboux_frame((0.0, 0.0, 0j))
        assert frame.r_plus == frame.r_minus == 0.5
        # columns select (x, p, q, y)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = expected[3, 2] = expected[2, 3] = 1.0
        assert np.allclose(frame.S, expected, rtol=0, atol=0)

    def test_zero_params_map_matches_sqrt2_convention(self):
        frame = darboux_frame((0.0, 0.0, 0j))
        xi = darboux_map(frame, [1.0, 0.0, 0.0, 0.0])
        assert xi == pytest.approx([math.sqrt(2), 0, 0, 0], abs=1e-15)
        xi = darboux_map(frame, [0.0, 0.0, 1.0, 0.0])
        assert xi == pytest.approx([0, 0, 0, math.sqrt(2)], abs=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateStructureError):
            darboux_frame((0.0, 0.0, 1 + 0j))

    def test_random_params_residuals(self, rng):
        for _ in range(100):
            p = sample_params(rng)
            frame = darboux_frame(p)
            res = frame_residuals(frame, build_real_J(p))
            assert res["block_form"] <= 1e-10
            assert res["orthogonality"] <= 1e-12
            assert res["canonicity"] <= 1e-10
            assert frame.r_plus >= frame.r_minus > 0

    def test_equal_magnitude_pair(self):
        # a = b, alpha = 0 gives r+ = r-; the deterministic rule still applies
        frame = darboux_frame((1.3, 1.3, 0j))
        res = frame_residuals(frame, build_real_J((1.3, 1.3, 0j)))
        assert res["block_form"] <= 1e-12
        assert res["orthogonality"] <= 1e-13

    def test_block_entries_positive(self, rng):
        for _ in range(20):
            p = sample_params(rng)
            frame = darboux_frame(p)
            Jp = frame.S.T @ build_real_J(p) @ frame.S
            assert Jp[0, 1] == pytest.approx(frame.r_plus, rel=1e-12)
            assert Jp[2, 3] == pytest.approx(frame.r_minus, rel=1e-9)

    def test_frame_deterministic(self, rng):
        p = sample_params(rng)
        f1 = darboux_frame(p)
        f2 = darboux_frame(p)
        assert np.array_equal(f1.S, f2.S)

    def test_map_roundtrip(self, rng):
        p = sample_params(rng)
        frame = darboux_frame(p)
        for _ in range(20):
            w = rng.uniform(-2, 2, size=4)
            assert np.allclose(inverse_darboux_map(frame, darboux_map(frame, w)),
                               w, rtol=0, atol=1e-12)

    def test_mapped_coordinates_are_canonical(self, rng):
        # M J M^T = J_st for the linear map M = D^{-1/2} S^T
        for _ in range(30):
            p = sample_params(rng)
            frame = darboux_frame(p)
            J = build_real_J(p)
            D = np.diag(_scale(frame))
            M = np.diag(1.0 / np.sqrt(np.diag(D))) @ frame.S.T
            assert np.max(np.abs(M @ J @ M.T - J_STANDARD)) <= 1e-10

def test_format_matrix_17_digits():
    text = format_matrix(np.array([[1 / 3, 2 / 3], [1.0, 0.1]]))
    assert "0.33333333333333331" in text
    assert len(text.splitlines()) == 2


# --------------------------------------------------------------------------
# Oracles for the straight-line structure path: the eigen-solver frame, the
# numpy residuals and the bracket-based compatibility check it replaced.
# --------------------------------------------------------------------------


def _oracle_real_J(p):
    ar, ai = complex(p.alpha).real, complex(p.alpha).imag
    upper = np.zeros((4, 4))
    upper[0, 1] = 0.5 * (1.0 + ar)
    upper[0, 2] = 0.5 * (-p.a)
    upper[0, 3] = 0.5 * (-ai)
    upper[1, 2] = 0.5 * (-ai)
    upper[1, 3] = 0.5 * (-p.b)
    upper[2, 3] = 0.5 * (-1.0 + ar)
    return upper - upper.T


def _oracle_frame(p):
    """(S, r+, r-) from the eigenvectors of J^2, Gram-Schmidt in seed order."""
    J = _oracle_real_J(p)
    r_plus, r_minus = eigenvalue_magnitudes(p)
    if r_plus - r_minus <= 1e-9 * max(1.0, r_plus):
        projectors = (np.eye(4), np.eye(4))
    else:
        evals, evecs = np.linalg.eigh(J @ J)  # ascending: -r+^2 pair first
        plus = evecs[:, :2]
        minus = evecs[:, 2:]
        projectors = (plus @ plus.T, minus @ minus.T)
    columns = []
    for r, proj in zip((r_plus, r_minus), projectors):
        u1 = None
        for k in (0, 1, 3, 2):
            c = proj[:, k].copy()
            for u in columns:
                c -= (u @ c) * u
            norm = np.linalg.norm(c)
            if norm > 1e-8:
                u1 = c / norm
                break
        assert u1 is not None
        first_nonzero = int(np.argmax(np.abs(u1) > 1e-9))
        if u1[first_nonzero] < 0.0:
            u1 = -u1
        u2 = -(J @ u1) / r
        columns.extend((u1, u2))
    return np.column_stack(columns), r_plus, r_minus


def _oracle_residuals(S, r_plus, r_minus, J):
    block = S.T @ J @ S - j_prime(r_plus, r_minus)
    orth = S.T @ S - np.eye(4)
    d_inv_half = np.diag(1.0 / np.sqrt(np.array([r_plus, r_plus, r_minus, r_minus])))
    lin = d_inv_half @ S.T
    canon = lin @ J @ lin.T - J_STANDARD
    return {
        "block_form": float(np.max(np.abs(block))),
        "orthogonality": float(np.max(np.abs(orth))),
        "canonicity": float(np.max(np.abs(canon))),
    }


def _oracle_compatibility(p, spec, w):
    """(passed, res_z, res_p) through the fields' gradients and bracket."""
    J = _oracle_real_J(p)
    H = hamiltonian_field(spec)
    res_z = abs(bracket(position_field(), H, J, w) - complex(w[1], w[3]) / spec.mass)
    res_p = abs(bracket(momentum_field(), H, J, w) + spec.dv(complex(w[0], w[2])))
    return bool(res_z <= 1e-10 and res_p <= 1e-10), res_z, res_p


def _verdict(res):
    return (res["block_form"] <= 1e-10, res["orthogonality"] <= 1e-12,
            res["canonicity"] <= 1e-10)


def _near_equal_params(rng):
    """a ~ b and |alpha| small: r+ - r- of the order of each gap."""
    out = []
    for gap in (1e-4, 1e-8):
        for _ in range(30):
            a = float(rng.uniform(-2.0, 2.0))
            b = a + gap * float(rng.uniform(-1.0, 1.0))
            alpha = gap * complex(*rng.uniform(-1.0, 1.0, size=2))
            out.append(SymplecticParams(a, b, alpha))
    return out


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def _loop_frame(params):
    """darboux_frame as it stood with the Gram-Schmidt loop over 4-tuples and
    a dot helper; returns (S, r+, r-) and the seed index accepted per plane."""
    a, b, ar, ai, _, J = _checked_structure(params)[:6]
    p = SymplecticParams(a, b, complex(ar, ai))
    (_, j01, j02, j03), (_, _, j12, j13), (_, _, _, j23), _ = J
    r_plus, r_minus = eigenvalue_magnitudes(p)
    assert math.isfinite(r_plus) and r_minus > DEGENERACY_TOL
    if r_plus - r_minus <= 1e-9 * max(1.0, r_plus):
        plus = minus = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                        (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    else:
        m01 = j02 * j12 + j03 * j13
        m02 = j03 * j23 - j01 * j12
        m03 = -j01 * j13 - j02 * j23
        m12 = j01 * j02 + j13 * j23
        m13 = j01 * j03 - j12 * j23
        m23 = j02 * j03 + j12 * j13
        rm2 = r_minus * r_minus
        inv = 1.0 / ((r_plus - r_minus) * (r_plus + r_minus))
        p00 = (j01 * j01 + j02 * j02 + j03 * j03 - rm2) * inv
        p11 = (j01 * j01 + j12 * j12 + j13 * j13 - rm2) * inv
        p22 = (j02 * j02 + j12 * j12 + j23 * j23 - rm2) * inv
        p33 = (j03 * j03 + j13 * j13 + j23 * j23 - rm2) * inv
        p01, p02, p03 = m01 * inv, m02 * inv, m03 * inv
        p12, p13, p23 = m12 * inv, m13 * inv, m23 * inv
        plus = ((p00, p01, p02, p03), (p01, p11, p12, p13),
                (p02, p12, p22, p23), (p03, p13, p23, p33))
        minus = ((1.0 - p00, -p01, -p02, -p03), (-p01, 1.0 - p11, -p12, -p13),
                 (-p02, -p12, 1.0 - p22, -p23), (-p03, -p13, -p23, 1.0 - p33))

    columns = []
    seeds = []
    for r, proj in ((r_plus, plus), (r_minus, minus)):
        for k in _SEED_ORDER:
            c = proj[k]
            for u in columns:
                d = _dot(u, c)
                c = (c[0] - d * u[0], c[1] - d * u[1],
                     c[2] - d * u[2], c[3] - d * u[3])
            norm = math.sqrt(_dot(c, c))
            if norm > 1e-8:
                break
        else:
            raise AssertionError("kernel basis extraction failed")
        seeds.append(k)
        x0, x1, x2, x3 = c[0] / norm, c[1] / norm, c[2] / norm, c[3] / norm
        lead = next((x for x in (x0, x1, x2, x3) if abs(x) > 1e-9), x0)
        if lead < 0.0:
            x0, x1, x2, x3 = -x0, -x1, -x2, -x3
        u1 = (x0, x1, x2, x3)
        columns.append(u1)
        columns.append(tuple(-_dot(row, u1) / r for row in J))
    return (np.array(columns).T, r_plus, r_minus), seeds


def _assert_frame_bits(p):
    frame = darboux_frame(p)
    (S, r_plus, r_minus), seeds = _loop_frame(p)
    assert frame.S.dtype == S.dtype and frame.S.shape == S.shape == (4, 4)
    assert frame.S.tobytes() == S.tobytes(), p
    assert (frame.r_plus, frame.r_minus) == (r_plus, r_minus)
    return seeds


class TestFrameLoopOracle:
    def test_sampled_draws(self, rng):
        for _ in range(2000):
            _assert_frame_bits(sample_params(rng))

    def test_near_equal_magnitudes(self, rng):
        for p in _near_equal_params(rng):
            _assert_frame_bits(p)

    @pytest.mark.parametrize("a", [0.0, 1.0, -1.5])
    def test_equal_magnitudes(self, a):
        # J^2 = -r^2 I: both planes take the identity, and the minus plane
        # rejects the first seed column, which the plus plane took
        assert _assert_frame_bits(SymplecticParams(a, a, 0j))[1] != 0

    @pytest.mark.parametrize("p", [SymplecticParams(0.0, 0.0, -0.5 + 0j),
                                   SymplecticParams(0.0, 0.0, -3.0 + 0j),
                                   SymplecticParams(1e-12, -1e-12, -0.5 + 1e-12j)])
    def test_first_seed_column_rejected(self, p):
        # Re alpha < 0 with a = b = Im alpha = 0 puts x and p in the minus
        # plane, so the plus plane rejects its first seed columns
        assert _assert_frame_bits(p)[0] != 0


class TestStructureOracles:
    def test_frame_matches_eigh_oracle(self, rng):
        worst = 0.0
        for _ in range(2000):
            p = sample_params(rng)
            frame = darboux_frame(p)
            S, r_plus, r_minus = _oracle_frame(p)
            assert (frame.r_plus, frame.r_minus) == (r_plus, r_minus)
            worst = max(worst, float(np.max(np.abs(frame.S - S))))
            J = build_real_J(p)
            assert np.array_equal(J, _oracle_real_J(p))
            assert _verdict(frame_residuals(frame, J)) == \
                _verdict(_oracle_residuals(S, r_plus, r_minus, J))
        assert worst <= 1e-12

    def test_residuals_match_numpy_oracle(self, rng):
        for p in [sample_params(rng) for _ in range(200)] + _near_equal_params(rng):
            frame = darboux_frame(p)
            J = build_real_J(p)
            # same products in the same order: bit-equal on the same frame
            assert frame_residuals(frame, J) == \
                _oracle_residuals(frame.S, frame.r_plus, frame.r_minus, J)

    @pytest.mark.parametrize("mass", [0.5, 1.0])
    def test_compatibility_matches_bracket_oracle(self, builtins_map, mass, rng):
        for expr in builtins_map.values():
            spec = SystemSpec(expr, mass)
            for _ in range(100):
                p = sample_params(rng)
                w = rng.uniform(-2.0, 2.0, size=4)
                rep = verify_compatibility(p, spec, w)
                passed, res_z, res_p = _oracle_compatibility(p, spec, w)
                assert rep["passed"] == passed
                assert abs(rep["residuals"]["position_equation"] - res_z) <= 1e-13
                assert abs(rep["residuals"]["momentum_equation"] - res_p) <= 1e-13

    def test_frame_residuals_against_mpmath(self, rng):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            worst = mpmath.mpf(0)
            for p in [sample_params(rng) for _ in range(300)] + _near_equal_params(rng):
                frame = darboux_frame(p)
                worst = max(worst, *_mp_residuals(mpmath, p, frame))
        assert worst <= 1e-12, float(worst)


def _reference_compatibility(params, spec, w):
    """verify_compatibility as it stood when it unpacked the parameters
    through SymplecticParams and the J rows on each use, with those helpers
    inlined verbatim; the whole-report oracle."""
    if not isinstance(params, SymplecticParams):
        a, b, alpha = params
        params = SymplecticParams(float(a), float(b), complex(alpha))
    p = params

    def defect():
        al = complex(p.alpha)
        return al.real * al.real + al.imag * al.imag - p.a * p.b - 1.0

    def j_rows():
        al = complex(p.alpha)
        j01, j02, j03 = 0.5 * (1.0 + al.real), 0.5 * (-p.a), 0.5 * (-al.imag)
        j12, j13, j23 = 0.5 * (-al.imag), 0.5 * (-p.b), 0.5 * (-1.0 + al.real)
        return ((0.0, j01, j02, j03),
                (0.0 - j01, 0.0, j12, j13),
                (0.0 - j02, 0.0 - j12, 0.0, j23),
                (0.0 - j03, 0.0 - j13, 0.0 - j23, 0.0))

    w = np.asarray(w, dtype=float)
    report = {
        "params": {"a": p.a, "b": p.b,
                   "alpha_re": complex(p.alpha).real,
                   "alpha_im": complex(p.alpha).imag},
    }
    if abs(defect()) <= DEGENERACY_TOL:
        report["residuals"] = None
        report["passed"] = False
        return report
    dv = spec.dv(complex(w[0], w[2]))
    p_over_m = complex(w[1], w[3]) / spec.mass
    g_h = (dv, p_over_m, 1j * dv, 1j * p_over_m)
    jg0, jg1, jg2, jg3 = (_dot(row, g_h) for row in j_rows())
    res_z = abs(jg0 + 1j * jg2 - p_over_m)
    res_p = abs(jg1 + 1j * jg3 + dv)
    report["residuals"] = {"position_equation": res_z, "momentum_equation": res_p}
    report["passed"] = res_z <= 1e-10 and res_p <= 1e-10
    return report


def _near_degenerate_params(rng):
    """|alpha|^2 - ab - 1 = defect for defects from 2e-12 to 1e-8: above the
    degeneracy tolerance, with r- below the conditioning warning."""
    out = []
    for defect in (2e-12, 1e-11, 1e-10, 1e-9, 1e-8):
        while True:
            a, b, ai = rng.uniform(-1.0, 1.0, size=3)
            radicand = 1.0 + a * b - ai * ai + defect
            if radicand > 0.0:
                out.append(SymplecticParams(float(a), float(b),
                                            complex(math.sqrt(radicand), ai)))
                break
    return out


class TestCompatibilityReport:
    """The whole report, key for key and bit for bit (``repr`` of floats
    round-trips and shows the sign of zero), against the reference above."""

    @staticmethod
    def assert_same(params, spec, w):
        rep = verify_compatibility(params, spec, w)
        ref = _reference_compatibility(params, spec, w)
        assert repr(rep) == repr(ref), params
        return rep

    @pytest.mark.parametrize("mass", [0.5, 1.0])
    def test_sampled(self, builtins_map, mass, rng):
        for expr in builtins_map.values():
            spec = SystemSpec(expr, mass)
            for _ in range(100):
                self.assert_same(sample_params(rng), spec, rng.uniform(-2.0, 2.0, size=4))

    def test_near_degenerate_is_checked(self, builtin_specs, rng):
        # r- below the conditioning warning of ``holomech darboux``, above
        # the degeneracy tolerance: the residuals are computed
        params = _near_degenerate_params(rng) + [SymplecticParams(0.0, 0.0, 1 + 1e-4j),
                                                 SymplecticParams(0.0, 0.0, 1.00000001 + 0j)]
        for p in params:
            for spec in builtin_specs.values():
                rep = self.assert_same(p, spec, rng.uniform(-2.0, 2.0, size=4))
                assert rep["residuals"] is not None

    @pytest.mark.parametrize("params", [(0.0, 0.0, 1j), (0.0, 0.0, 0.6 + 0.8j),
                                        (0.0, 0.0, 1.0 + 2.0 ** -42), (2.0, -0.5, 0j),
                                        SymplecticParams(1.0, 3.0, 2.0 + 0j)])
    def test_exactly_degenerate(self, params, builtin_specs, rng):
        for spec in builtin_specs.values():
            rep = self.assert_same(params, spec, rng.uniform(-2.0, 2.0, size=4))
            assert not rep["passed"] and rep["residuals"] is None

    def test_tuple_form(self, builtin_specs, rng):
        specs = list(builtin_specs.values())
        for k in range(60):
            p = sample_params(rng)
            spec = specs[k % len(specs)]
            w = rng.uniform(-2.0, 2.0, size=4)
            for params in ((p.a, p.b, p.alpha),
                           [np.float64(p.a), np.float64(p.b), np.complex128(p.alpha)]):
                self.assert_same(params, spec, w)
                assert repr(verify_compatibility(params, spec, w)) == \
                    repr(verify_compatibility(p, spec, w))

    def test_non_finite_point(self, builtin_specs):
        # the residuals keep the nan and inf of the reference arithmetic
        p = SymplecticParams(0.3, -0.7, 0.2 - 0.4j)
        for w in ([0.1, math.inf, 0.2, 0.0], [0.1, 0.0, 0.2, math.nan]):
            self.assert_same(p, builtin_specs["iz3"], w)

    def test_trials_keep_the_draw_order(self, builtin_specs):
        # per trial: sample_params, then w; frame, residuals and compatibility
        # of those draws, bit for bit
        spec = builtin_specs["iz3"]
        rng = np.random.default_rng(7)
        for params, frame, res in structure_trials(spec, np.random.default_rng(7), 50):
            p = sample_params(rng)
            w = rng.uniform(-2.0, 2.0, size=4)
            ref_frame = darboux_frame(p)
            ref = {**frame_residuals(ref_frame, build_real_J(p)),
                   **verify_compatibility(p, spec, w)["residuals"]}
            assert params == {"a": p.a, "b": p.b, "alpha_re": p.alpha.real,
                              "alpha_im": p.alpha.imag}
            assert frame.S.tobytes() == ref_frame.S.tobytes()
            assert repr(res) == repr(ref)


class TestStructureErrors:
    """Error types and messages of ``darboux_frame`` and ``build_real_J``."""

    FINITE = "structure parameters must be finite: "
    DEGENERATE = "|alpha|^2 - a*b = 1 within 1e-12 (defect {}); structure not invertible"

    @pytest.mark.parametrize("params, error, message", [
        ((math.nan, 0.0, 0j), ValueError, FINITE + "a=nan b=0 alpha=0+0i"),
        ((0.0, math.inf, 0j), ValueError, FINITE + "a=0 b=inf alpha=0+0i"),
        ((-math.inf, 1.0, 0.5j), ValueError, FINITE + "a=-inf b=1 alpha=0+0.5i"),
        ((0.0, 0.0, complex(math.nan, 0.0)), ValueError, FINITE + "a=0 b=0 alpha=nan+0i"),
        ((0.3, -0.2, complex(0.1, math.inf)), ValueError,
         FINITE + "a=0.3 b=-0.2 alpha=0.1+infi"),
        ((0.0, 0.0, 1 + 0j), DegenerateStructureError, DEGENERATE.format("0.000e+00")),
        ((0.0, 0.0, 0.6 + 0.8j), DegenerateStructureError, DEGENERATE.format("0.000e+00")),
        ((0.0, 0.0, complex(1.0 + 2.0 ** -42, 0.0)), DegenerateStructureError,
         DEGENERATE.format("4.547e-13")),
    ])
    @pytest.mark.parametrize("form", [tuple, lambda p: SymplecticParams(*p)])
    @pytest.mark.parametrize("func", [darboux_frame, build_real_J])
    def test_invalid_parameters(self, func, form, params, error, message):
        with pytest.raises(error) as err:
            func(form(params))
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("params, error, message", [
        ((1e200, 0.0, 0j), ValueError,
         "eigen-magnitudes r+ = inf, r- = 0 are not finite for a=1e+200 b=0 alpha=0+0i"),
        ((0.0, 0.0, complex(1e200, 0.0)), ValueError,
         "eigen-magnitudes r+ = inf, r- = nan are not finite for a=0 b=0 alpha=1e+200+0i"),
        ((10.0, 0.1, complex(1.0, 1.0 + 2.0 ** -38)), DegenerateStructureError,
         "r_minus = 3.533e-13 <= 1e-12; no Darboux frame"),
    ])
    def test_frame_only(self, params, error, message):
        # J exists here; only its eigen-magnitudes rule out a frame
        assert np.isfinite(build_real_J(params)).all()
        with pytest.raises(error) as err:
            darboux_frame(params)
        assert type(err.value) is error and str(err.value) == message


def _mp_residuals(mpmath, p, frame):
    """Residuals of the float frame against the exact J and r+-, at the
    working precision of ``mpmath``."""
    mpf = mpmath.mpf
    a, b = mpf(p.a), mpf(p.b)
    ar, ai = mpf(complex(p.alpha).real), mpf(complex(p.alpha).imag)
    half = mpf(1) / 2
    upper = {(0, 1): half * (1 + ar), (0, 2): -half * a, (0, 3): -half * ai,
             (1, 2): -half * ai, (1, 3): -half * b, (2, 3): half * (ar - 1)}
    J = mpmath.zeros(4, 4)
    for (i, k), v in upper.items():
        J[i, k], J[k, i] = v, -v
    s = ar * ar + ai * ai
    A = a * a + b * b + 2 * (s + 1)
    B = mpmath.sqrt(((a + b) ** 2 + 4) * ((a - b) ** 2 + 4 * s))
    r_plus = mpmath.sqrt((A + B) / 8)
    r_minus = abs(s - a * b - 1) / mpmath.sqrt(2 * (A + B))
    S = mpmath.matrix(frame.S.tolist())
    sjs = S.T * J * S
    d = [r_plus, r_plus, r_minus, r_minus]
    jp = {(0, 1): r_plus, (1, 0): -r_plus, (2, 3): r_minus, (3, 2): -r_minus}
    orth = S.T * S
    block = max(abs(sjs[i, k] - jp.get((i, k), 0)) for i in range(4) for k in range(4))
    canon = max(abs(sjs[i, k] / mpmath.sqrt(d[i] * d[k]) - J_STANDARD[i, k])
                for i in range(4) for k in range(4))
    ortho = max(abs(orth[i, k] - (i == k)) for i in range(4) for k in range(4))
    return block, ortho, canon
