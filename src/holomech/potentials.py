"""Entire analytic potentials v(z): parsing, evaluation, exact differentiation.

The expression grammar admits only entire functions of the complex variable
``z``: polynomials, exp/sin/cos/sinh/cosh, sums, products, and quotients by
constants.  Constructs that would introduce a branch cut or a pole (sqrt,
log, fractional or negative powers of z, division by a z-dependent
expression) are rejected at parse time instead of being handled, so every
accepted expression satisfies the Cauchy-Riemann conditions everywhere.

Grammar (whitespace insignificant, numbers are decimal literals)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'i' | 'z' | func '(' expr ')' | '(' expr ')' | '-' base
    func   := 'exp' | 'sin' | 'cos' | 'sinh' | 'cosh'

AST nodes are frozen dataclasses; structural equality is decidable and all
values are immutable after construction, so expressions can be shared
freely across worker threads.  Node constructors fold purely numeric
subtrees and neutral elements, and nothing else, which keeps structural
equality predictable; a fold that overflows raises, so every z-free subtree
of a parsed expression is one finite ``Const``.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PotentialError",
    "PotentialSyntaxError",
    "UnsupportedFunctionError",
    "PotentialOverflowError",
    "MAX_DEPTH",
    "Expr",
    "Const",
    "Z",
    "Sum",
    "Product",
    "Quotient",
    "Power",
    "Neg",
    "Call",
    "parse_potential",
    "compile_potential",
    "ARRAY_FUNCS",
    "derivative",
    "split_real_imag",
    "BUILTIN_SOURCES",
    "get_builtin",
]


class PotentialError(ValueError):
    """Base class for potential parsing and evaluation failures; carries the
    offending position in the expression text if known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PotentialSyntaxError(PotentialError):
    """Malformed expression text."""


class UnsupportedFunctionError(PotentialError):
    """Construct that is not an entire function of z.

    Non-entire potentials (sqrt, log, fractional powers, poles) would force
    trajectories to track branch cuts; they are rejected outright.
    """


class PotentialOverflowError(PotentialError):
    """Evaluation left the range of double precision (e.g. exp of a large argument)."""


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Z(Expr):
    """The complex variable z."""


@dataclass(frozen=True)
class Sum(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Product(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Quotient(Expr):
    # Denominator is always a non-zero constant: quotients by z-dependent
    # expressions are rejected at parse time (they are not entire).
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


_ENTIRE_FUNCS: dict[str, Callable[[complex], complex]] = {
    "exp": cmath.exp,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
}

# The same functions as ufuncs over complex arrays, for compile_potential.
ARRAY_FUNCS: dict[str, Callable] = {name: getattr(np, name) for name in _ENTIRE_FUNCS}

# Recognized names that are *not* entire, so the error can explain why.
_NON_ENTIRE_FUNCS = {
    "sqrt", "log", "ln", "log10", "tan", "cot", "sec", "csc",
    "tanh", "coth", "sech", "csch", "asin", "acos", "atan",
    "asinh", "acosh", "atanh", "abs", "arg", "conj", "re", "im",
}

_ZERO = complex(0.0)
_ONE = complex(1.0)

# Deepest accepted nesting of parentheses, calls and unary minus, and deepest
# accepted expression tree.  Parsing, differentiation and compilation
# recurse over the tree, so this bound keeps them within the
# default interpreter recursion limit.
MAX_DEPTH = 100


# Smart constructors: fold constants and neutral elements so that parser
# output and symbolic derivatives stay compact and structurally predictable.

def make_sum(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value + right.value)
    if isinstance(left, Const) and left.value == _ZERO:
        return right
    if isinstance(right, Const) and right.value == _ZERO:
        return left
    return Sum(left, right)


def make_product(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value * right.value)
    if isinstance(left, Const):
        if left.value == _ZERO:
            return Const(_ZERO)
        if left.value == _ONE:
            return right
    if isinstance(right, Const):
        if right.value == _ZERO:
            return Const(_ZERO)
        if right.value == _ONE:
            return left
    return Product(left, right)


def make_quotient(num: Expr, den: Expr) -> Expr:
    if not isinstance(den, Const):  # the constructors fold z-free operands to a Const
        raise UnsupportedFunctionError(
            "division by a z-dependent expression introduces poles; "
            "only quotients by constants are entire")
    if den.value == _ZERO:
        raise ZeroDivisionError("division by zero")
    if isinstance(num, Const):
        return Const(num.value / den.value)
    if den.value == _ONE:
        return num
    return Quotient(num, den)


def make_power(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Const(_ONE)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if exponent < 0 and base.value == _ZERO:
            raise ZeroDivisionError("zero raised to a negative power")
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            raise OverflowError("constant power overflows double precision") from None
    if exponent < 0:
        raise UnsupportedFunctionError(
            "negative power of a z-dependent expression has a pole and is not entire")
    return Power(base, exponent)


def make_neg(arg: Expr) -> Expr:
    if isinstance(arg, Const):
        return Const(-arg.value)
    if isinstance(arg, Neg):
        return arg.arg
    return Neg(arg)


def make_call(func: str, arg: Expr) -> Expr:
    if func not in _ENTIRE_FUNCS:
        raise UnsupportedFunctionError(f"unknown entire function {func!r}")
    if isinstance(arg, Const):
        try:
            return Const(_ENTIRE_FUNCS[func](arg.value))
        except (OverflowError, ValueError):  # ValueError: cmath of an infinity
            raise OverflowError(f"constant {func} overflows double precision") from None
    return Call(func, arg)


# --------------------------------------------------------------------------
# Tokenizer and recursive-descent parser
# --------------------------------------------------------------------------

# One match per token: a decimal literal, a name, an operator, or any other
# character that is not whitespace, which is an error.  Whitespace matches no
# alternative, so finditer skips it.
_TOKEN = re.compile(r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])|\S")

# What a node constructor raises, as the parser reports it.
_LOCATED_ERRORS = {ZeroDivisionError: PotentialSyntaxError,
                   OverflowError: PotentialOverflowError}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind is None:
            raise PotentialSyntaxError(f"unexpected character {value!r}", pos)
        tokens.append((kind, float(value) if kind == "number" else value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


def _located(pos: int, make: Callable[..., Expr], *args) -> Expr:
    """``make(*args)`` for a node constructor, its error raised again as a
    PotentialError at position ``pos`` of the text; a constant it folds to a
    non-finite value raises PotentialOverflowError there too."""
    try:
        node = make(*args)
    except (ZeroDivisionError, OverflowError, PotentialError) as exc:
        raise _LOCATED_ERRORS.get(type(exc), type(exc))(str(exc), pos) from None
    if isinstance(node, Const) and not cmath.isfinite(node.value):
        raise PotentialOverflowError("constant overflows double precision", pos)
    return node


def _finite(value: float, pos: int) -> float:
    """A number literal's value; PotentialOverflowError where it is not finite."""
    if not math.isfinite(value):
        raise PotentialOverflowError("number overflows double precision", pos)
    return value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _match_op(self, chars: str) -> str | None:
        kind, value, _ = self._peek()
        if kind == "op" and value in chars:
            self.pos += 1
            return value  # type: ignore[return-value]
        return None

    def _expect_op(self, char: str) -> None:
        kind, value, pos = self._next()
        if kind != "op" or value != char:
            raise PotentialSyntaxError(f"expected {char!r}", pos)

    def parse(self) -> Expr:
        node = self.expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise PotentialSyntaxError("unexpected trailing input", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while (op := self._match_op("+-")) is not None:
            pos = self._peek()[2]
            rhs = self.term()
            node = _located(pos, make_sum, node, rhs if op == "+" else make_neg(rhs))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (op := self._match_op("*/")) is not None:
            make = make_product if op == "*" else make_quotient
            node = _located(self._peek()[2], make, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self._match_op("^"):
            sign = -1 if self._match_op("-") else 1
            kind, value, pos = self._next()
            if kind != "number":
                raise PotentialSyntaxError("expected integer exponent after '^'", pos)
            if not _finite(value, pos).is_integer():  # type: ignore[arg-type]
                raise UnsupportedFunctionError(
                    "fractional power is not entire (it has a branch cut)", pos)
            node = _located(pos, make_power, node, sign * int(value))  # type: ignore[arg-type]
        return node

    def base(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise PotentialSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels", self._peek()[2])
        node = self._atom()
        self.depth -= 1
        return node

    def _atom(self) -> Expr:
        kind, value, pos = self._next()
        if kind == "number":
            return Const(complex(_finite(value, pos)))  # type: ignore[arg-type]
        if kind == "name":
            name = value  # type: ignore[assignment]
            if name == "i":
                return Const(1j)
            if name == "z":
                return Z()
            if name in _ENTIRE_FUNCS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return _located(pos, make_call, name, arg)
            if name in _NON_ENTIRE_FUNCS:
                raise UnsupportedFunctionError(
                    f"{name!r} is not an entire function of z: it introduces "
                    "branch cuts or poles, which this package does not handle", pos)
            raise PotentialSyntaxError(f"unknown identifier {name!r}", pos)
        if kind == "op":
            if value == "(":
                node = self.expr()
                self._expect_op(")")
                return node
            if value == "-":
                return make_neg(self.base())
        raise PotentialSyntaxError("expected a number, 'i', 'z', function call, "
                                   "parenthesized expression, or unary minus", pos)


def parse_potential(text: str) -> Expr:
    """Parse expression text into an AST of an entire function of z.

    Rejects, besides malformed and non-entire input, constants that are not
    finite in double precision (literals or folds) and trees deeper than
    MAX_DEPTH.
    """
    tree = _Parser(text).parse()
    stack = [(tree, 1)]  # iterative, so that deep trees cannot exhaust the stack
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise PotentialSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels")
        match node:
            case Sum(l, r) | Product(l, r) | Quotient(l, r):
                stack += ((l, depth + 1), (r, depth + 1))
            case Power(a, _) | Neg(a) | Call(_, a):
                stack.append((a, depth + 1))
    return tree


# --------------------------------------------------------------------------
# Evaluation and exact differentiation
# --------------------------------------------------------------------------


def _checked(f: Callable[[complex], complex], z: complex, what: str) -> complex:
    """f(z) for a function from ``compile_potential``, raising
    PotentialOverflowError where it overflows or its value is not finite;
    ``what`` names the function in the message."""
    try:
        value = f(z)
    except (OverflowError, ValueError) as exc:  # ValueError: cmath of an infinity
        raise PotentialOverflowError(f"overflow evaluating {what} at z={z!r}") from exc
    if not cmath.isfinite(value):
        raise PotentialOverflowError(f"non-finite {what} at z={z!r}")
    return value


_BINARY_OPS = {Sum: "+", Product: "*", Quotient: "/"}


def compile_potential(e: Expr, funcs=_ENTIRE_FUNCS) -> Callable:
    """Generate one function computing v(z); it is the package's only
    evaluator of an expression tree.  The function does no finiteness check:
    ``split_real_imag`` and ``SystemSpec`` add one, and the integration kernels
    handle OverflowError and non-finite values themselves.

    The function body is straight-line code, one assignment per distinct
    operation node in the order of a depth-first walk, left operand first,
    so a tree of any accepted depth compiles and one call makes no further
    Python call except to the functions of ``funcs``.  A subtree shared by
    several parents (as ``derivative`` builds them) is computed once and its
    name reused; every node is a pure function of ``z``, so the values are
    those of a full walk of the tree.  Constants and functions reach the body
    as names (``c0``, ``f1``, ...) bound in its namespace and exponents as
    ``int`` literals; no text of the expression enters the generated source.

    ``funcs`` maps each function name to its implementation: the default
    cmath table gives a function of one Python complex, ``ARRAY_FUNCS`` a
    function of a complex numpy array, evaluated elementwise, that overflows
    to inf or nan instead of raising.
    """
    body: list[str] = []
    names: dict[str, object] = {}
    emitted: dict[int, str] = {}  # id(node) -> name; e keeps every node alive

    def bind(prefix: str, value) -> str:
        name = f"{prefix}{len(names)}"
        names[name] = value
        return name

    def emit(node: Expr) -> str:
        """Return the name holding ``node``, appending the statements that
        compute it on its first visit."""
        name = emitted.get(id(node))
        if name is not None:
            return name
        match node:
            case Z():
                return "z"
            case Const(value):
                name = emitted[id(node)] = bind("c", value)
                return name
            case Sum(l, r) | Product(l, r) | Quotient(l, r):
                left = emit(l)
                expr = f"{left} {_BINARY_OPS[type(node)]} {emit(r)}"
            case Power(b, n):
                expr = f"{emit(b)} ** {int(n)}"
            case Neg(a):
                expr = f"-{emit(a)}"
            case Call(f, a):
                func = bind("f", funcs[f])
                expr = f"{func}({emit(a)})"
            case _:
                raise TypeError(f"not an expression node: {node!r}")
        name = emitted[id(node)] = f"t{len(body)}"
        body.append(f"    {name} = {expr}")
        return name

    result = emit(e)
    source = "\n".join(["def potential(z):", *body, f"    return {result}", ""])
    namespace = {"__builtins__": {}, **names}
    exec(source, namespace)
    return namespace["potential"]


_CALL_DERIVS: dict[str, Callable[[Expr], Expr]] = {
    "exp": lambda a: make_call("exp", a),
    "sin": lambda a: make_call("cos", a),
    "cos": lambda a: make_neg(make_call("sin", a)),
    "sinh": lambda a: make_call("cosh", a),
    "cosh": lambda a: make_call("sinh", a),
}


def derivative(e: Expr) -> Expr:
    """Exact symbolic derivative dv/dz.

    The dynamics integrators evaluate dv/dz at every step; a symbolic
    derivative keeps conservation checks free of finite-difference noise.
    """
    match e:
        case Const():
            return Const(_ZERO)
        case Z():
            return Const(_ONE)
        case Sum(l, r):
            return make_sum(derivative(l), derivative(r))
        case Product(l, r):
            return make_sum(make_product(derivative(l), r),
                            make_product(l, derivative(r)))
        case Quotient(n, d):
            return make_quotient(derivative(n), d)
        case Power(b, n):
            return make_product(make_product(Const(complex(n)), make_power(b, n - 1)),
                                derivative(b))
        case Neg(a):
            return make_neg(derivative(a))
        case Call(f, a):
            return make_product(_CALL_DERIVS[f](a), derivative(a))
    raise TypeError(f"not an expression node: {e!r}")


def split_real_imag(e: Expr, x: float, y: float) -> tuple[float, float]:
    """Return (v_r, v_i), the real and imaginary parts of v(x + i y).

    Raises PotentialOverflowError where v is not finite.
    """
    v = _checked(compile_potential(e), complex(x, y), "potential")
    return v.real, v.imag


# --------------------------------------------------------------------------
# Built-in potential catalog
# --------------------------------------------------------------------------

# The six stock potentials used throughout the verification suite.
BUILTIN_SOURCES: dict[str, str] = {
    "iz": "i*z",
    "z2": "z^2",
    "iz3": "i*z^3",
    "neg_z4": "-(z^4)",
    "exp_iz": "exp(i*z)",
    "i_sin_z": "i*sin(z)",
}


def get_builtin(name: str) -> Expr:
    """AST of the catalog potential ``name``; KeyError for an unknown name."""
    if name not in BUILTIN_SOURCES:
        raise KeyError(f"unknown builtin potential {name!r}; "
                       f"available: {', '.join(BUILTIN_SOURCES)}")
    return parse_potential(BUILTIN_SOURCES[name])
