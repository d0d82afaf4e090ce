"""Parser, evaluator, exact derivative, and analyticity checks."""

import cmath
import math
import re

import numpy as np
import pytest
from conftest import NON_CATALOG_SOURCES
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holomech import SystemSpec
from holomech.potentials import (
    ARRAY_FUNCS,
    BUILTIN_SOURCES,
    MAX_DEPTH,
    Call,
    Const,
    Neg,
    Power,
    Product,
    Quotient,
    Sum,
    Z,
    PotentialOverflowError,
    PotentialSyntaxError,
    UnsupportedFunctionError,
    _checked,
    compile_potential,
    derivative,
    get_builtin,
    make_call,
    make_neg,
    make_power,
    make_product,
    make_quotient,
    make_sum,
    parse_potential,
    split_real_imag,
)
from holomech.potentials import _ENTIRE_FUNCS, _checked, _tokenize


def eval_checked(e, z):
    """Checked v(z) through the compiled tree, as ``split_real_imag``
    evaluates it."""
    return _checked(compile_potential(e), complex(z), "potential")


def cauchy_riemann_residual(e, x, y, step):
    """Central-difference residuals of the Cauchy-Riemann conditions for the
    parts ``split_real_imag`` gives: (d_x v_r - d_y v_i, d_y v_r + d_x v_i),
    both vanishing up to the O(step^2) truncation for an analytic potential."""
    vr_xp, vi_xp = split_real_imag(e, x + step, y)
    vr_xm, vi_xm = split_real_imag(e, x - step, y)
    vr_yp, vi_yp = split_real_imag(e, x, y + step)
    vr_ym, vi_ym = split_real_imag(e, x, y - step)
    dvr_dx = (vr_xp - vr_xm) / (2.0 * step)
    dvr_dy = (vr_yp - vr_ym) / (2.0 * step)
    dvi_dx = (vi_xp - vi_xm) / (2.0 * step)
    dvi_dy = (vi_yp - vi_ym) / (2.0 * step)
    return dvr_dx - dvi_dy, dvr_dy + dvi_dx


class TestParse:
    def test_iz3_structure(self):
        assert parse_potential("i*z^3") == Product(Const(1j), Power(Z(), 3))

    def test_exp_of_iz(self):
        assert parse_potential("exp(i*z)") == Call("exp", Product(Const(1j), Z()))

    def test_sqrt_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            parse_potential("sqrt(z)")

    def test_make_call_rejects_unknown_function(self):
        # the parser refuses the name first; make_call owns the rule as well
        with pytest.raises(UnsupportedFunctionError, match="unknown entire function 'sqrt'"):
            make_call("sqrt", Z())

    def test_log_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            parse_potential("log(z)")

    def test_fractional_power_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            parse_potential("z^1.5")

    def test_negative_power_of_z_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            parse_potential("z^-2")

    def test_negative_power_of_constant_folds(self):
        assert parse_potential("2^-1") == Const(0.5 + 0j)

    def test_division_by_z_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            parse_potential("1/z")

    def test_division_by_zero(self):
        with pytest.raises(PotentialSyntaxError):
            parse_potential("z/0")

    def test_division_by_overflowing_constant(self):
        with pytest.raises(PotentialOverflowError):
            parse_potential("z/exp(10000)")

    @pytest.mark.parametrize("text, error", [
        ("1e400*z", PotentialOverflowError),
        ("z+1e308*10", PotentialOverflowError),
        ("2^100000", PotentialOverflowError),
        ("(" * 3000 + "z" + ")" * 3000, PotentialSyntaxError),
        ("sin(" * 400 + "z" + ")" * 400, PotentialSyntaxError),
        ("-" * 3000 + "z", PotentialSyntaxError),
        ("+".join(["z"] * 3000), PotentialSyntaxError),
        ("sin(" * MAX_DEPTH + "z" + ")" * MAX_DEPTH, PotentialSyntaxError),
        ("+".join(["z"] * (MAX_DEPTH + 1)), PotentialSyntaxError),
    ])
    def test_rejected_before_evaluation(self, text, error):
        with pytest.raises(error):
            parse_potential(text)

    def test_max_depth_accepted(self):
        n = MAX_DEPTH - 1
        for text in ("sin(" * n + "z" + ")" * n, "+".join(["z"] * MAX_DEPTH),
                     "*".join(["z"] * MAX_DEPTH)):
            spec = SystemSpec.from_source(text)
            assert cmath.isfinite(spec.dv(0.1 + 0.1j))

    def test_unknown_identifier_position(self):
        with pytest.raises(PotentialSyntaxError) as err:
            parse_potential("z + w")
        assert err.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(PotentialSyntaxError):
            parse_potential("z^2 )")

    def test_complex_literal_folds(self):
        assert parse_potential("2+3*i") == Const(2 + 3j)

    def test_unary_minus_binds_before_power(self):
        # grammar: factor := base ('^' int)?, base := '-' base, so the
        # minus is part of the power's base
        assert parse_potential("-z^2") == Power(make_neg(Z()), 2)
        assert parse_potential("-(z^2)") == make_neg(Power(Z(), 2))

    def test_whitespace_insignificant(self):
        assert parse_potential(" i * z ^ 3 ") == parse_potential("i*z^3")

    def test_quotient_by_constant(self):
        e = parse_potential("z^2/2")
        assert e == Quotient(Power(Z(), 2), Const(2 + 0j))

    def test_quotient_by_one_folds(self):
        assert parse_potential("z/1") == Z()

    @pytest.mark.parametrize("text, error, position", [
        ("z^\u00b2", PotentialSyntaxError, 2),   # superscript two: a digit, not decimal
        ("\u00b2", PotentialSyntaxError, 0),
        ("\u00bd", PotentialSyntaxError, 0),     # vulgar half: numeric, not a digit
        ("sin(1e400)", PotentialOverflowError, 4),
        ("cos(1e308*10)", PotentialOverflowError, 10),   # the product's fold, not cos(inf)
        ("z+1e308*10", PotentialOverflowError, 8),
        ("1e308*10-1e308*10", PotentialOverflowError, 6),  # the first fold to overflow
        ("1e308+1e308", PotentialOverflowError, 6),
        ("1e308/1e-308", PotentialOverflowError, 6),
        ("(1e200+1e200*i)*(1e200+1e200*i)", PotentialOverflowError, 16),  # nan real part
        ("(1e400)^0", PotentialOverflowError, 1),
        ("z + 1e400^0", PotentialOverflowError, 4),
        ("1e310h", PotentialOverflowError, 0),   # the first error in reading order
        ("z^1e400", PotentialOverflowError, 2),
        ("2^2000", PotentialOverflowError, 2),
        ("z/exp(10000)", PotentialOverflowError, 2),
        ("1e400*z", PotentialOverflowError, 0),
        # a constant call folds when it is read, whatever it is combined with
        ("exp(1000)", PotentialOverflowError, 0),
        ("exp(1000)*0", PotentialOverflowError, 0),
        ("cosh(800)*z^2", PotentialOverflowError, 0),
        ("sin(1e308*i)", PotentialOverflowError, 0),
    ])
    def test_error_class_and_position(self, text, error, position):
        with pytest.raises(error) as err:
            parse_potential(text)
        assert type(err.value) is error and err.value.position == position

    @pytest.mark.parametrize("text, error, message", [
        ("z/0", PotentialSyntaxError, "division by zero (at position 2)"),
        ("0^-1", PotentialSyntaxError, "zero raised to a negative power (at position 3)"),
        ("1/z", UnsupportedFunctionError, "division by a z-dependent expression introduces "
         "poles; only quotients by constants are entire (at position 2)"),
        ("z^-2", UnsupportedFunctionError, "negative power of a z-dependent expression has "
         "a pole and is not entire (at position 3)"),
        ("2^2000", PotentialOverflowError,
         "constant power overflows double precision (at position 2)"),
        ("z/exp(10000)", PotentialOverflowError,
         "constant exp overflows double precision (at position 2)"),
    ])
    def test_constructor_errors_at_operand(self, text, error, message):
        # each rule lives in its node constructor; the parser adds the position
        with pytest.raises(error) as err:
            parse_potential(text)
        assert type(err.value) is error and str(err.value) == message


def _reference_tokenize(text):
    """The hand-written tokenizer that preceded the regular expression; the
    token oracle for text without numeric characters that are not decimal
    digits (it passes those to ``float``)."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("number", float(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise PotentialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _token_outcome(tokenize, text):
    try:
        return tokenize(text)
    except PotentialSyntaxError as exc:
        return exc.position


_grammar_pieces = st.sampled_from([*"z i+-*/^().eE_0123456789", "sin", "cosh", "1e400",
                                   "\u00a0", "\u0663", "\uff11", "\u00e9", "$"])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_grammar_pieces, max_size=16).map("".join), st.text(max_size=16)))
def test_tokens_match_reference(text):
    assume(not any(c.isnumeric() and not c.isdecimal() for c in text))
    assert _token_outcome(_tokenize, text) == _token_outcome(_reference_tokenize, text)


class TestEval:
    def test_square_at_one_plus_i(self):
        assert eval_checked(parse_potential("z^2"), 1 + 1j) == 2j

    def test_i_sin_at_zero(self):
        assert eval_checked(parse_potential("i*sin(z)"), 0j) == 0j

    def test_iz3_at_i(self):
        assert eval_checked(parse_potential("i*z^3"), 1j) == 1 + 0j

    def test_compile_matches_eval(self, rng):
        for src in BUILTIN_SOURCES.values():
            e = parse_potential(src)
            f = compile_potential(e)
            for _ in range(50):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                assert f(z) == _eval(e, z)

    def test_array_compile_matches_eval(self, rng):
        # the numpy table evaluates a whole array in one call; cmath and the
        # numpy ufuncs may round differently, by a few ulp at most
        eps = np.finfo(float).eps
        for src in [*BUILTIN_SOURCES.values(), *NON_CATALOG_SOURCES]:
            e = parse_potential(src)
            z = rng.uniform(-2, 2, 500) + 1j * rng.uniform(-2, 2, 500)
            values = compile_potential(e, ARRAY_FUNCS)(z)
            assert values.shape == z.shape
            for zk, vk in zip(z.tolist(), values.tolist()):
                ref = eval_checked(e, zk)
                assert abs(vk - ref) <= 4 * eps * abs(ref)

    def test_overflow_flagged(self):
        e = parse_potential("exp(z)")
        with pytest.raises(PotentialOverflowError):
            eval_checked(e, 1e4 + 0j)

    def test_domain_error_flagged(self):
        # z^5 overflows to an infinite argument, where cmath.sin raises ValueError
        with pytest.raises(PotentialOverflowError):
            eval_checked(parse_potential("sin(z*z*z*z*z)"), 1e70 + 0j)


# Trees compared bit for bit between the generated functions and the
# reference evaluator: z itself (and its constant derivative), the catalog,
# three potentials outside it, and the deepest accepted trees, each with its
# exact derivative.
_DEEP_SOURCES = ["sin(" * (MAX_DEPTH - 1) + "z" + ")" * (MAX_DEPTH - 1),
                 "+".join(["z"] * MAX_DEPTH), "*".join(["z"] * MAX_DEPTH)]
_ORACLE_TREES = [f(parse_potential(src))
                 for src in ["z", *BUILTIN_SOURCES.values(), *NON_CATALOG_SOURCES,
                             *_DEEP_SOURCES]
                 for f in (lambda e: e, derivative)]


def _eval(e, z):
    """v(z) by walking the tree, the package's evaluator before every potential
    went through ``compile_potential``; the scalar oracle.  A subtree shared
    by several parents (as ``derivative`` builds them) is evaluated once per
    call and its value reused, keyed by node identity; every node is a pure
    function of ``z``, so the values are those of a full walk."""
    seen = {}  # id(node) -> value; e keeps every node alive

    def ev(node):
        value = seen.get(id(node))
        if value is not None:
            return value
        match node:
            case Const(value):
                return value
            case Z():
                return z
            case Sum(l, r):
                value = ev(l) + ev(r)
            case Product(l, r):
                value = ev(l) * ev(r)
            case Quotient(n, d):
                value = ev(n) / ev(d)
            case Power(b, n):
                value = ev(b) ** n
            case Neg(a):
                value = -ev(a)
            case Call(f, a):
                value = _ENTIRE_FUNCS[f](ev(a))
            case _:
                raise TypeError(f"not an expression node: {node!r}")
        seen[id(node)] = value
        return value

    return ev(e)


def _checked_eval(e, z):
    """The tree walk with the finiteness check of ``_checked``."""
    try:
        value = _eval(e, complex(z))
    except (OverflowError, ValueError) as exc:
        raise PotentialOverflowError(f"overflow at z={z!r}") from exc
    if not cmath.isfinite(value):
        raise PotentialOverflowError(f"non-finite value at z={z!r}")
    return value


def _closure_tree(e, funcs):
    """The compiler as a tree of closures, one per node, as it stood before
    the straight-line functions; the array oracle."""
    match e:
        case Const(value):
            return lambda z, _v=value: _v
        case Z():
            return lambda z: z
        case Sum(l, r):
            fl, fr = _closure_tree(l, funcs), _closure_tree(r, funcs)
            return lambda z: fl(z) + fr(z)
        case Product(l, r):
            fl, fr = _closure_tree(l, funcs), _closure_tree(r, funcs)
            return lambda z: fl(z) * fr(z)
        case Quotient(n, d):
            fn, fd = _closure_tree(n, funcs), _closure_tree(d, funcs)
            return lambda z: fn(z) / fd(z)
        case Power(b, n):
            fb = _closure_tree(b, funcs)
            return lambda z, _n=n: fb(z) ** _n
        case Neg(a):
            fa = _closure_tree(a, funcs)
            return lambda z: -fa(z)
        case Call(f, a):
            fa = _closure_tree(a, funcs)
            fn = funcs[f]
            return lambda z: fn(fa(z))
    raise TypeError(f"not an expression node: {e!r}")


def _scalar_outcome(f, *args):
    """Hex of both parts of f(*args), signed zeros included, or the exception type."""
    try:
        v = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return v.real.hex(), v.imag.hex()


class TestGeneratedFunctions:
    @pytest.mark.parametrize("k", range(len(_ORACLE_TREES)))
    def test_scalar_matches_eval_bitwise(self, k, rng):
        e = _ORACLE_TREES[k]
        f = compile_potential(e)
        zs = [complex(*rng.uniform(-2, 2, 2)) for _ in range(60)]
        zs += [complex(a, b) for a in (0.0, -0.0, 1.5) for b in (0.0, -0.0, -0.5)]
        zs += [1e3 + 0j, 1e70 + 0j, complex(0.0, 800.0), complex(1e200, -1e200)]
        for z in zs:
            assert _scalar_outcome(f, z) == _scalar_outcome(_eval, e, z), (k, z)

    @pytest.mark.parametrize("k", range(len(_ORACLE_TREES)))
    def test_checked_calls_match_checked_eval(self, k, rng):
        # the checked v and SystemSpec.dv give the tree walk's bits where it is
        # finite and PotentialOverflowError wherever it raises or is not finite
        e = _ORACLE_TREES[k]
        spec, v = SystemSpec(e), compile_potential(e)
        zs = [complex(*rng.uniform(-2, 2, 2)) for _ in range(20)]
        zs += [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        zs += [1e3 + 0j, 1e70 + 0j, complex(0.0, 800.0), complex(0.0, -800.0),
               complex(1e200, -1e200), complex(1.7e308, 1.7e308)]
        for z in zs:
            expected = _scalar_outcome(_checked_eval, e, z)
            assert _scalar_outcome(_checked, v, z, "v") == expected, (k, z)
            assert _scalar_outcome(spec.dv, z) == \
                _scalar_outcome(_checked_eval, derivative(spec.potential), z), (k, z)

    @pytest.mark.parametrize("k", range(len(_ORACLE_TREES)))
    def test_array_matches_closure_tree_bitwise(self, k, rng):
        e = _ORACLE_TREES[k]
        parts = [0.0, -0.0, 0.3, -1.7, 2e2, math.inf, -math.inf, math.nan]
        z = np.array([complex(a, b) for a in parts for b in parts])
        z = np.concatenate([z, rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)])
        with np.errstate(all="ignore"):
            got = compile_potential(e, ARRAY_FUNCS)(z)
            ref = _closure_tree(e, ARRAY_FUNCS)(z)
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_no_expression_text_in_source(self):
        # constants and functions reach the body as bound names, exponents as ints
        code = compile_potential(parse_potential("0.1234567*exp(z) + 3e-5*z^2")).__code__
        assert code.co_names and all(re.fullmatch(r"[cf]\d+", n) for n in code.co_names)
        assert all(re.fullmatch(r"z|t\d+", n) for n in code.co_varnames)
        assert all(c is None or type(c) is int for c in code.co_consts)

    def test_shared_subtrees_compile_once(self):
        # derivative shares each sin(...) level between the next level and its
        # own cos(...); emitting every distinct node once keeps the body linear
        def n_locals(depth):
            e = parse_potential("sin(" * depth + "z" + ")" * depth)
            return compile_potential(derivative(e)).__code__.co_nlocals

        step = n_locals(2) - n_locals(1)
        n = MAX_DEPTH - 1
        assert n_locals(n) - n_locals(n - 1) == step
        assert n_locals(n) <= n_locals(1) + step * (n - 1)


def test_eval_walks_shared_subtrees_once(monkeypatch):
    # derivative shares each sin(...) level between the next level and its own
    # cos(...); a full walk would call sin quadratically often in the depth
    from holomech import potentials

    def n_calls(depth):
        e = derivative(parse_potential("sin(" * depth + "z" + ")" * depth))
        calls = [0]
        for name, func in list(potentials._ENTIRE_FUNCS.items()):
            def counted(w, _func=func):
                calls[0] += 1
                return _func(w)
            monkeypatch.setitem(potentials._ENTIRE_FUNCS, name, counted)
        value = _eval(e, 0.3 + 0.1j)
        monkeypatch.undo()
        assert _scalar_outcome(compile_potential(e), 0.3 + 0.1j) == \
            (value.real.hex(), value.imag.hex())
        return calls[0]

    step = n_calls(2) - n_calls(1)
    n = MAX_DEPTH - 1
    assert n_calls(n) - n_calls(n - 1) == step
    assert n_calls(n) == n_calls(1) + step * (n - 1)


class TestDerivative:
    def test_iz3(self):
        d = derivative(parse_potential("i*z^3"))
        assert eval_checked(d, 1.0 + 0j) == 3j

    def test_exp_iz_at_zero(self):
        d = derivative(parse_potential("exp(i*z)"))
        assert eval_checked(d, 0j) == 1j

    def test_square_at_one_plus_i(self):
        d = derivative(parse_potential("z^2"))
        assert eval_checked(d, 1 + 1j) == 2 + 2j

    def test_quotient_rule_constant_denominator(self):
        d = derivative(parse_potential("z^3/3"))
        assert eval_checked(d, 2.0 + 0j) == pytest.approx(4.0)

    def test_matches_finite_differences(self, builtins_map, rng):
        # central differences with a real step approximate d/dz for an
        # analytic function; relative tolerance 1e-6 at step 1e-5
        h = 1e-5
        for expr in builtins_map.values():
            d = derivative(expr)
            for _ in range(20):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                fd = (eval_checked(expr, z + h) - eval_checked(expr, z - h)) / (2 * h)
                exact = eval_checked(d, z)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestSplitAndAnalyticity:
    def test_split_iz(self):
        assert split_real_imag(parse_potential("i*z"), 1.0, 0.0) == (0.0, 1.0)

    def test_split_square(self):
        assert split_real_imag(parse_potential("z^2"), 1.0, 1.0) == (0.0, 2.0)

    def test_split_exp(self):
        assert split_real_imag(parse_potential("exp(i*z)"), 0.0, 0.0) == (1.0, 0.0)

    def test_split_consistent_with_eval(self, builtins_map, rng):
        for expr in builtins_map.values():
            for _ in range(200):
                x, y = rng.uniform(-2, 2, size=2)
                vr, vi = split_real_imag(expr, x, y)
                assert complex(vr, vi) == _eval(expr, complex(x, y))

    def test_cauchy_riemann_iz3(self):
        r1, r2 = cauchy_riemann_residual(parse_potential("i*z^3"), 1.0, 1.0, 1e-5)
        assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8

    def test_cauchy_riemann_polynomial_tight(self, rng):
        e = parse_potential("z^2")
        for _ in range(20):
            x, y = rng.uniform(-2, 2, size=2)
            r1, r2 = cauchy_riemann_residual(e, x, y, 1e-5)
            assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10

    def test_cauchy_riemann_exp(self):
        r1, r2 = cauchy_riemann_residual(parse_potential("exp(i*z)"), 0.0, 0.0, 1e-5)
        assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8

    def test_cauchy_riemann_all_builtins(self, builtins_map, rng):
        for expr in builtins_map.values():
            for _ in range(100):
                x, y = rng.uniform(-2, 2, size=2)
                r1, r2 = cauchy_riemann_residual(expr, x, y, 1e-5)
                assert abs(r1) <= 1e-7 and abs(r2) <= 1e-7


class TestBuiltins:
    def test_count(self, builtins_map):
        assert len(builtins_map) == 6

    def test_lookup_iz3(self):
        assert get_builtin("iz3") == parse_potential("i*z^3")

    def test_unknown_not_found(self):
        with pytest.raises(KeyError):
            get_builtin("unknown")

    def test_catalog_order(self, builtins_map):
        assert list(builtins_map) == ["iz", "z2", "iz3", "neg_z4", "exp_iz", "i_sin_z"]


# ---------------------------------------------------------------------------
# Random expressions: ASTs built through the node constructors with finite
# constants, for the derivative oracle in test_certificate.py.
# ---------------------------------------------------------------------------

_consts = st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                             allow_nan=False, allow_infinity=False).map(Const)
_leaves = st.one_of(_consts, st.just(Z()))


def _folded_power(base, exponent):
    """make_power, except that a folded constant power that overflows comes
    out as a non-finite Const, for _all_consts_finite to drop."""
    try:
        return make_power(base, exponent)
    except OverflowError:
        return Const(complex(math.inf))


def _folded_call(func, arg):
    """make_call, except that a folded constant call that overflows comes out
    as a non-finite Const, for _all_consts_finite to drop."""
    try:
        return make_call(func, arg)
    except OverflowError:
        return Const(complex(math.inf))


def _branch(children):
    nonzero_consts = _consts.filter(lambda c: c.value != 0)
    return st.one_of(
        st.tuples(children, children).map(lambda t: make_sum(*t)),
        st.tuples(children, children).map(lambda t: make_product(*t)),
        st.tuples(children, nonzero_consts).map(lambda t: make_quotient(*t)),
        st.tuples(children, st.integers(0, 4)).map(lambda t: _folded_power(*t)),
        children.map(make_neg),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "sinh", "cosh"]),
                  children).map(lambda t: _folded_call(*t)),
    )


def _all_consts_finite(e):
    """Constant folding can overflow; such ASTs are outside the domain."""
    from holomech.potentials import Expr

    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            if not (cmath.isfinite(node.value)):
                return False
        else:
            stack.extend(v for v in vars(node).values() if isinstance(v, Expr))
    return True


_expressions = st.recursive(_leaves, _branch, max_leaves=12).filter(_all_consts_finite)


def test_overflowing_constant_power_is_dropped():
    # ((c^4)^4)^4 with c near 1e6 folds to 1e100^4, which make_power refuses
    with pytest.raises(OverflowError):
        make_power(Const(1e100), 4)
    folded = _folded_power(Const(1e100), 4)
    assert isinstance(folded, Const) and not cmath.isfinite(folded.value)
    assert not _all_consts_finite(make_sum(Z(), folded))
    assert _folded_power(Const(1e6), 4) == make_power(Const(1e6), 4)


def test_overflowing_constant_call_is_dropped():
    with pytest.raises(OverflowError):
        make_call("exp", Const(1e6))
    folded = _folded_call("exp", Const(1e6))
    assert isinstance(folded, Const) and not cmath.isfinite(folded.value)
    assert _folded_call("exp", Const(1.0)) == make_call("exp", Const(1.0))
