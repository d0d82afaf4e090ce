"""Complex Hamiltonian H = p^2/(2m) + v(z) and its real descriptions.

Phase-space conventions used everywhere in this package:

* complex frame: (z, p) in C^2 with z = x + i y, p = p + i q;
* real frame:    w = (w1, w2, w3, w4) = (x, p, y, q) in R^4;
* Darboux frame: xi = (x1, p1, x2, p2) = sqrt(2) * (x, p, q, y), the
  canonical coordinates of the zero-parameter symplectic structure.

Both row layouts are stated once, in ``_LAYOUT``, and every other module
reads them from there.  Real phase points are float arrays whose last axis
holds the four coordinates; ``w_to_darboux`` and ``darboux_to_w`` map one
point or a whole stack of trajectory samples alike, and so do
``hamiltonian_split``, ``darboux_hamiltonian`` and ``darboux_invariant``.  A complex start (z, p)
reaches its Darboux point through ``complex_to_darboux``.

The energy splits as H = H_r + i H_i with

    H_r = (p^2 - q^2)/(2m) + v_r(x, y),      H_i = p q / m + v_i(x, y),

and the real description is generated by h(xi) = 2 H_r with H_i playing the
role of an independent integral of motion.  All functions here are pure and
all containers immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .potentials import (
    ARRAY_FUNCS,
    Expr,
    PotentialOverflowError,
    _checked,
    compile_potential,
    derivative,
    parse_potential,
)

__all__ = [
    "SystemSpec",
    "hamiltonian_split",
    "darboux_hamiltonian",
    "darboux_invariant",
    "w_to_darboux",
    "darboux_to_w",
    "complex_to_darboux",
]

_SQRT2 = math.sqrt(2.0)


# Per frame, the part of (Re z, Im z, Re p, Im p) that each row component
# holds, which is also the column order of a complex (N, 2) array of (z, p)
# pairs viewed as float.  The Darboux kernels step the packed pair
# Z = x1 + i p2, P = p1 + i x2, that is sqrt(2) (z, p).
_LAYOUT = {
    "complex": (0, 2, 1, 3),   # w = (x, p, y, q)
    "darboux": (0, 2, 3, 1),   # xi / sqrt(2) = (x, p, q, y)
}
# Per frame, the row component that holds each part: the inverse of _LAYOUT.
_SLOT = {frame: tuple(parts.index(k) for k in range(4)) for frame, parts in _LAYOUT.items()}
# The w column of each xi component, (0, 1, 3, 2): swapping y and q is its
# own inverse, so darboux_to_w takes the same columns.
_SWAP_YQ = np.array([_SLOT["complex"][k] for k in _LAYOUT["darboux"]])


def _pairs_to_rows(zs, ps, frame: str) -> np.ndarray:
    """Sequences of z and of p -> (N, 4) float rows in ``frame``'s layout,
    each part copied bit for bit."""
    pairs = np.empty((len(zs), 2), complex)
    pairs[:, 0] = zs
    pairs[:, 1] = ps
    return pairs.view(float)[:, _LAYOUT[frame]]


def _row_to_pair(row, frame: str) -> tuple[complex, complex]:
    """The complex pair of one ``frame`` row, each part copied bit for bit:
    (z, p) of a w row, the packed (Z, P) = sqrt(2) (z, p) of a Darboux row."""
    zr, zi, pr, pi = _SLOT[frame]
    return complex(row[zr], row[zi]), complex(row[pr], row[pi])


def w_to_darboux(w) -> np.ndarray:
    """(..., 4) rows (x, p, y, q) -> (x1, p1, x2, p2) = sqrt(2) (x, p, q, y)."""
    return _SQRT2 * np.asarray(w, dtype=float).take(_SWAP_YQ, axis=-1)


def darboux_to_w(xi) -> np.ndarray:
    """(..., 4) rows (x1, p1, x2, p2) -> (x, p, y, q).

    The inverse of ``w_to_darboux`` up to rounding: the product and the
    quotient by sqrt(2) each round, so a round trip in either direction
    moves about one coordinate in eight of a normal row, by at most 1 ulp.
    """
    return np.asarray(xi, dtype=float).take(_SWAP_YQ, axis=-1) / _SQRT2


def complex_to_darboux(z: complex, p: complex) -> np.ndarray:
    """The Darboux point sqrt(2) (x, p, q, y) of the complex start (z, p); a
    part above about 1.27e308 overflows to inf, with no warning."""
    with np.errstate(over="ignore"):
        return _SQRT2 * _pairs_to_rows((z,), (p,), "darboux")[0]


@dataclass(frozen=True)
class SystemSpec:
    """An entire potential plus a particle mass.

    Compiles the exact symbolic derivative once, so integrators can evaluate
    it at every step without re-walking the AST, and the potential once over
    complex arrays, which ``hamiltonian_split`` reads for points and stacks.
    """

    potential: Expr
    mass: float = 0.5
    _dv: Callable[[complex], complex] = field(init=False, repr=False, compare=False)
    _v_array: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False,
                                                         compare=False)

    def __post_init__(self):
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be a positive finite real, got {self.mass!r}")
        object.__setattr__(self, "_dv", compile_potential(derivative(self.potential)))
        object.__setattr__(self, "_v_array", compile_potential(self.potential, ARRAY_FUNCS))

    @classmethod
    def from_source(cls, text: str, mass: float = mass) -> "SystemSpec":
        # ``mass`` defaults to the field's default, read in the class body
        return cls(parse_potential(text), mass)

    def dv(self, z: complex) -> complex:
        """Checked derivative value dv/dz."""
        return _checked(self._dv, z, "dv")


def hamiltonian_split(spec: SystemSpec, w):
    """(H_r, H_i) at the real phase point w = (x, p, y, q).

    The real and imaginary parts of H = p^2/(2m) + v(z) at the corresponding
    complex point.  A (..., 4) stack gives two (...) arrays from one
    evaluation of v, with NaN in both wherever v is not finite.  A point is
    the one-row stack of itself: it gives that row's two values as floats,
    and raises PotentialOverflowError where v is not finite.
    """
    w = np.asarray(w, dtype=float)
    m = spec.mass
    if w.shape[-1:] != (4,):
        raise ValueError(f"expected (..., 4) phase points, got shape {w.shape}")
    point = w.ndim == 1
    w = np.atleast_2d(w)
    zr, zi, pr, pi = _SLOT["complex"]
    x, y, p, q = w[..., zr], w[..., zi], w[..., pr], w[..., pi]
    # the parts are copied: x + 1j*y would turn an infinite y into a NaN
    # real part and a -0.0 y into +0.0
    z = np.empty(x.shape, dtype=complex)
    z.real, z.imag = x, y
    with np.errstate(all="ignore"):
        v = spec._v_array(z)
        hr = (p * p - q * q) / (2.0 * m) + v.real
        hi = p * q / m + v.imag
    finite = np.isfinite(v)  # one bool where v is a constant
    if point:
        if not finite.all():
            raise PotentialOverflowError(f"overflow evaluating v at z={complex(z[0])!r}")
        return float(hr[0]), float(hi[0])
    return np.where(finite, hr, np.nan), np.where(finite, hi, np.nan)


def darboux_hamiltonian(spec: SystemSpec, xi):
    """Equivalent real Hamiltonian h(xi) = 2 H_r, at a point or a stack.

    Spelled out, h = (p1^2 - x2^2)/(2m) + 2 v_r(x1/sqrt2, p2/sqrt2); it is
    computed as twice H_r of the inverse-mapped point so that h = 2 H_r holds
    by construction, floating-point operation for operation.
    """
    return 2.0 * hamiltonian_split(spec, darboux_to_w(xi))[0]


def darboux_invariant(spec: SystemSpec, xi):
    """Integral of motion H_i(xi) = x2 p1/(2m) + v_i(x1/sqrt2, p2/sqrt2), at a
    point or a stack."""
    return hamiltonian_split(spec, darboux_to_w(xi))[1]
