"""Symbolic certificate of the compatible family J(a, b, alpha).

The family is derived, not restated: sympy solves {z, H} = p/m and
{p, H} = -v'(z) for a general real antisymmetric J on w = (x, p, y, q), with
v an arbitrary function of z = x + i y.  ``build_real_J`` must satisfy that
solution, and its four parameters must reach every free unknown.  Skipped
without sympy.
"""

import functools

import numpy as np
import pytest

from holomech.symplectic import build_real_J, sample_params

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
