"""Symbolic certificates: the compatible family J(a, b, alpha), the
closed-form reference table, and the exact derivative.

The family is derived, not restated: sympy solves {z, H} = p/m and
{p, H} = -v'(z) for a general real antisymmetric J on w = (x, p, y, q), with
v an arbitrary function of z = x + i y.  ``build_real_J`` must satisfy that
solution, and its four parameters must reach every free unknown.

``build_real_J``, read as an exact matrix of (a, b, Re alpha, Im alpha), has
det J = (1 + ab - |alpha|^2)^2 / 16 and the eigenvalues +-i r+- of
``eigenvalue_magnitudes``.  With v = u + i s and the Cauchy-Riemann
equations as the only assumption, h = 2 H_r generates the complex motion and
{H_r, H_i} = 0 under J(0, 0, 0) and no other member, and the standard
Hamilton equations of h in the zero-parameter ``darboux_frame`` are the
complex ones.

The reference table is checked against h = 2 Re H and H_i = Im H built by
sympy from each catalog source text; the table's texts are what the package
evaluates, so this certifies the evaluated forms.  ``derivative`` is checked
against ``sympy.diff`` of the expression sympy builds from the tree.  Skipped
without sympy.
"""

import functools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_potentials import _expressions

from holomech import SystemSpec
from holomech.closed_forms import CORRECTED_FORMS, REFERENCE_MASS, REFERENCE_TABLE
from holomech.potentials import (
    BUILTIN_SOURCES,
    Call,
    Const,
    Neg,
    PotentialOverflowError,
    Power,
    Product,
    Quotient,
    Sum,
    Z,
    derivative,
    split_real_imag,
)
from holomech.symplectic import (
    J_STANDARD,
    SymplecticParams,
    build_real_J,
    darboux_frame,
    sample_params,
)

sp = pytest.importorskip("sympy")

# the upper entries of J, named j<row><column>
UPPER = [(i, k) for i in range(4) for k in range(i + 1, 4)]


@functools.cache
def family():
    """(unknowns, solution) of the two Hamilton equations for the bracket
    {A, B} = grad A^T J grad B."""
    x, p, y, q = w = sp.symbols("x p y q", real=True)
    m = sp.Symbol("m", positive=True)
    unknowns = sp.symbols([f"j{i}{k}" for i, k in UPPER], real=True)
    J = sp.zeros(4)
    for (i, k), j in zip(UPPER, unknowns):
        J[i, k], J[k, i] = j, -j
    z, P = x + sp.I * y, p + sp.I * q
    v = sp.Function("v")
    H = P**2 / (2 * m) + v(z)

    def bracket(f, g):
        return (sp.Matrix([f.diff(c) for c in w]).T * J * sp.Matrix([g.diff(c) for c in w]))[0]

    dv, d = v(z).diff(x), sp.Symbol("d")  # v'(z), then a symbol for it
    equations = []
    for residual in (bracket(z, H) - P / m, bracket(P, H) + dv):
        # zero for every p, q and v'(z): each coefficient, real and imaginary part
        for c in sp.Poly(sp.expand(residual.subs(dv, d)), d, p, q).coeffs():
            equations += [sp.re(c), sp.im(c)]
    (solution,) = sp.solve(equations, unknowns, dict=True)
    return unknowns, solution


def draws(n=20, seed=42):
    rng = np.random.default_rng(seed)
    return [sample_params(rng) for _ in range(n)]


def test_solution_is_the_two_parameter_cut():
    j01, j02, j03, j12, j13, j23 = family()[0]
    assert family()[1] == {j01: j23 + 1, j03: j12}


def test_build_real_J_satisfies_the_solution():
    unknowns, solution = family()
    for params in draws():
        J = build_real_J(params)
        assert np.array_equal(J, -J.T)
        values = {j: J[ik] for j, ik in zip(unknowns, UPPER)}
        for j, rhs in solution.items():
            assert abs(float(rhs.subs(values)) - values[j]) <= 1e-15, (params, j)


def test_parameters_reach_every_free_unknown():
    # the free unknowns are affine in (a, b, Re alpha, Im alpha), of rank 4
    unknowns, solution = family()
    free = [ik for j, ik in zip(unknowns, UPPER) if j not in solution]
    assert len(free) == 4
    params = draws()
    X = np.array([[p.a, p.b, p.alpha.real, p.alpha.imag, 1.0] for p in params])
    F = np.array([[build_real_J(p)[ik] for ik in free] for p in params])
    coef, *_ = np.linalg.lstsq(X, F, rcond=None)
    assert np.abs(X @ coef - F).max() <= 1e-14
    assert np.linalg.matrix_rank(coef[:4]) == 4


PARAMS = sp.symbols("a b alpha_r alpha_i", real=True)


@functools.cache
def package_J():
    """``build_real_J`` as an exact matrix of PARAMS: its entries are affine
    in them with dyadic coefficients, read off at zero and at 2 times each
    unit parameter (1 would be degenerate for alpha)."""
    zero = build_real_J(SymplecticParams(0.0, 0.0, 0j))
    steps = [build_real_J(SymplecticParams(*t)) - zero
             for t in ((2.0, 0.0, 0j), (0.0, 2.0, 0j), (0.0, 0.0, 2 + 0j), (0.0, 0.0, 2j))]
    return sp.Matrix(4, 4, lambda i, k: sp.Rational(zero[i, k]) + sum(
        sp.Rational(step[i, k]) / 2 * c for step, c in zip(steps, PARAMS)))


def test_package_J_is_build_real_J():
    for params in draws():
        values = dict(zip(PARAMS, (params.a, params.b, params.alpha.real, params.alpha.imag)))
        exact = np.array(package_J().subs(values), dtype=float)
        assert np.abs(exact - build_real_J(params)).max() <= 1e-15, params


def test_determinant():
    a, b, ar, ai = PARAMS
    assert sp.expand(package_J().det() - (1 + a * b - ar**2 - ai**2) ** 2 / 16) == 0


def test_eigenvalue_magnitudes_factorisation():
    # J's characteristic polynomial is l^4 + (A/4) l^2 + det J, so its roots
    # are +-i r+- with r+-^2 = (A +- B)/8 exactly when A^2 - B^2 = 64 det J,
    # which is 4 (|alpha|^2 - ab - 1)^2: the rearrangement behind r-
    a, b, ar, ai = PARAMS
    s, lam = ar**2 + ai**2, sp.Symbol("lambda")
    A = a**2 + b**2 + 2 * (s + 1)
    B2 = ((a + b) ** 2 + 4) * ((a - b) ** 2 + 4 * s)
    J = package_J()
    assert sp.expand(J.charpoly(lam).as_expr() - (lam**4 + A / 4 * lam**2 + J.det())) == 0
    assert sp.expand(A**2 - B2 - 4 * (s - a * b - 1) ** 2) == 0
    assert sp.expand(A**2 - B2 - 64 * J.det()) == 0


W = sp.symbols("x p y q", real=True)
M = sp.Symbol("m", positive=True)


@functools.cache
def holomorphic():
    """(grad 2 H_r, grad H_i, the complex field (p/m, -u_x, q/m, -s_x), the
    Cauchy-Riemann substitution) for v = u + i s on w = (x, p, y, q); the
    field is dz/dt = p/m, dp/dt = -v'(z) with v' = u_x + i s_x."""
    x, p, y, q = W
    u, s = sp.Function("u")(x, y), sp.Function("s")(x, y)

    def grad(f):
        return sp.Matrix([f.diff(c) for c in W])

    field = sp.Matrix([p / M, -u.diff(x), q / M, -s.diff(x)])
    cr = {u.diff(y): -s.diff(x), s.diff(y): u.diff(x)}
    return grad((p**2 - q**2) / M + 2 * u), grad(p * q / M + s), field, cr


def vanishing_params(expressions):
    """The parameter values at which every expression vanishes for all p, q
    and first derivatives of u and s."""
    _, p, _, q = W
    _, _, field, cr = holomorphic()
    ux, sx = sp.symbols("u_x s_x")
    named = {-field[1]: ux, -field[3]: sx}
    equations = []
    for e in expressions:
        equations += sp.Poly(sp.expand(e.subs(cr).subs(named)), p, q, ux, sx).coeffs()
    return sp.solve(equations, PARAMS, dict=True)


def test_h_generates_the_motion_under_J0_only():
    grad_h, _, field, cr = holomorphic()
    residual = package_J() * grad_h - field
    assert sp.simplify(residual.subs(dict.fromkeys(PARAMS, 0)).subs(cr)) == sp.zeros(4, 1)
    assert vanishing_params(residual) == [dict.fromkeys(PARAMS, 0)]


def test_invariants_in_involution_under_J0_only():
    grad_h, grad_hi, _, cr = holomorphic()
    bracket = (grad_h.T * package_J() * grad_hi)[0] / 2  # {H_r, H_i}_J
    assert sp.simplify(bracket.subs(dict.fromkeys(PARAMS, 0)).subs(cr)) == 0
    assert vanishing_params([bracket]) == [dict.fromkeys(PARAMS, 0)]


def test_darboux_frame_standard_equations():
    # xi = D^(-1/2) S^T w in the zero-parameter frame is w_to_darboux's
    # sqrt(2) (x, p, q, y); with dw/dxi = S D^(1/2) the standard equations
    # dxi/dt = J_std grad_xi h map back to the complex field
    frame = darboux_frame(SymplecticParams(0.0, 0.0, 0j))
    S = sp.Matrix(frame.S.tolist()).applyfunc(sp.Rational)
    root_d = sp.diag(*[sp.sqrt(sp.Rational(r)) for r in (frame.r_plus, frame.r_plus,
                                                          frame.r_minus, frame.r_minus)])
    x, p, y, q = W
    xi = root_d.inv() * S.T * sp.Matrix(W)
    assert sp.simplify(xi - sp.sqrt(2) * sp.Matrix([x, p, q, y])) == sp.zeros(4, 1)
    grad_h, _, field, cr = holomorphic()
    dw_dxi = S * root_d
    J_std = sp.Matrix(J_STANDARD.tolist()).applyfunc(sp.Rational)
    motion = dw_dxi * (J_std * (dw_dxi.T * grad_h))
    assert sp.simplify((motion - field).subs(cr)) == sp.zeros(4, 1)


# the Darboux coordinates, real
COORDS = sp.symbols("x1 p1 x2 p2", real=True)


def table_text(text):
    """A table entry's text as a sympy expression of the Darboux coordinates."""
    form = sp.sympify(text.replace("^", "**"), locals={str(c): c for c in COORDS})
    assert form.free_symbols <= set(COORDS), text
    return form


@functools.cache
def construction(name):
    """{"h": 2 Re H, "Hi": Im H} for H = P^2/(2m) + v(z) at the reference mass,
    z = (x1 + i p2)/sqrt(2), P = (p1 + i x2)/sqrt(2), v the catalog text."""
    x1, p1, x2, p2 = COORDS
    z = (x1 + sp.I * p2) / sp.sqrt(2)
    P = (p1 + sp.I * x2) / sp.sqrt(2)
    v = sp.sympify(BUILTIN_SOURCES[name].replace("^", "**"), locals={"i": sp.I, "z": z})
    re, im = sp.expand_complex(P**2 / (2 * sp.Rational(REFERENCE_MASS)) + v).as_real_imag()
    return {"h": 2 * re, "Hi": im}


def differs(text, name, column):
    return sp.simplify(table_text(text) - construction(name)[column]) != 0


def test_table_differs_from_the_construction_in_exactly_the_two_known_entries():
    bad = {(e.potential, e.column) for e in REFERENCE_TABLE
           if differs(e.source, e.potential, e.column)}
    assert bad == {("iz", "h"), ("neg_z4", "Hi")}


def test_corrected_forms_equal_the_construction():
    assert set(CORRECTED_FORMS) == {("iz", "h"), ("neg_z4", "Hi")}
    for (name, column), (text, _) in CORRECTED_FORMS.items():
        assert not differs(text, name, column), text


Z_SYMBOL = sp.Symbol("z")
# where two derivatives that differ by float folding are compared
POINTS = [0.3 + 0.2j, -0.7 + 0.4j, 1 - 0.5j]


def as_sympy(e):
    """The sympy expression of the tree e, each constant part as the
    17-digit float it holds."""
    match e:
        case Const(value):
            return sp.Float(repr(value.real), 17) + sp.I * sp.Float(repr(value.imag), 17)
        case Z():
            return Z_SYMBOL
        case Sum(left, right):
            return as_sympy(left) + as_sympy(right)
        case Product(left, right):
            return as_sympy(left) * as_sympy(right)
        case Quotient(left, right):
            return as_sympy(left) / as_sympy(right)
        case Power(base, exponent):
            return as_sympy(base) ** exponent
        case Neg(arg):
            return -as_sympy(arg)
        case Call(func, arg):
            return getattr(sp, func)(as_sympy(arg))
    raise TypeError(f"not an expression node: {e!r}")


def finite_at_points(e):
    """v and v' are finite at POINTS; elsewhere a numeric comparison means
    nothing, and sympy would evaluate the overflowing constant calls that
    folding left in place at huge precision."""
    spec = SystemSpec(e)
    try:
        for point in POINTS:
            split_real_imag(e, point.real, point.imag), spec.dv(point)
    except PotentialOverflowError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(_expressions.filter(finite_at_points))
# the folded v' is a subnormal double, one subnormal ulp (1.1e-12 relative) off
@example(Product(Const(1.1125369292536007e-308), Quotient(Z(), Const(6023))))
def test_derivative_agrees_with_sympy_diff(e):
    want, got = sp.diff(as_sympy(e), Z_SYMBOL), as_sympy(derivative(e))
    if sp.expand(want - got) == 0:
        return
    # constants folded in another order leave float residues; relative to the
    # smallest normal double at least, where a subnormal's ulp is coarser
    for point in POINTS:
        a, b = (sp.N(f.subs(Z_SYMBOL, point), 30) for f in (want, got))
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), sys.float_info.min), (e, point)
