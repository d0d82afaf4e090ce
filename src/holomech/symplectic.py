"""Compatible symplectic structures on R^4 and their Darboux normal form.

The bracket {{A, B}} = sum_ij J_ij dA/dw_i dB/dw_j reproduces the complex
Hamilton equations dz/dt = {{z, H}}, dp/dt = {{p, H}} exactly when J belongs
to a four-parameter family indexed by two reals (a, b) and one complex
number alpha, subject to |alpha|^2 - a b != 1 (the structure degenerates on
that surface).  The standard symplectic matrix is *not* in the family: the
conventional Poisson bracket of any coordinate with an analytic H vanishes
identically.

Every member of the family is isomorphic to the standard structure.  This
module constructs the isomorphism explicitly: an orthogonal matrix S with
S^T J S in block form with eigen-magnitudes r+ >= r- > 0 on the blocks, and
the rescaled coordinates xi = D^{-1/2} S^T w (D = diag(r+, r+, r-, r-)) in
which the bracket becomes the standard one.

Every caller asks for one structure at a time, so the structure path is
straight-line float code over the six upper entries of J, with no eigen-solver:
J J^T = -J^2 has eigenvalue r+^2 on the plus plane and r-^2 on the minus plane,
which gives the plus-plane projector in closed form,
P+ = (J J^T - r-^2 I) / (r+^2 - r-^2), and P- = I - P+.  Gram-Schmidt over
the projector columns in a fixed seed order then picks each plane's first
basis vector (see ``darboux_frame``).  The compatibility check contracts
the exact gradient rows of z, p and H with those six entries directly.

All operations are pure and matrices are freshly allocated, so parameter
sweeps can run concurrently without shared state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonian import SystemSpec, hamiltonian_split

__all__ = [
    "DEGENERACY_TOL",
    "CONDITIONING_WARN_R_MINUS",
    "SAMPLE_MARGIN",
    "DegenerateStructureError",
    "SymplecticParams",
    "sample_params",
    "J_STANDARD",
    "build_complex_J",
    "build_real_J",
    "eigenvalue_magnitudes",
    "j_prime",
    "DarbouxFrame",
    "darboux_frame",
    "darboux_map",
    "inverse_darboux_map",
    "frame_residuals",
    "ScalarField",
    "coordinate_field",
    "position_field",
    "momentum_field",
    "hamiltonian_field",
    "hamiltonian_real_field",
    "hamiltonian_imag_field",
    "bracket",
    "standard_bracket",
    "verify_compatibility",
    "format_matrix",
]

# Absolute tolerance on |alpha|^2 - a b - 1 below which the structure is
# treated as non-invertible.
DEGENERACY_TOL = 1e-12

# Below this r- the Darboux rescaling amplifies rounding; reports carry a
# conditioning warning.
CONDITIONING_WARN_R_MINUS = 1e-6

# Randomized sweeps keep |degeneracy_defect| above this margin, a healthy
# distance from the degenerate surface.
SAMPLE_MARGIN = 0.05


class DegenerateStructureError(ValueError):
    """The parameters sit on (or within tolerance of) |alpha|^2 - ab = 1."""


@dataclass(frozen=True)
class SymplecticParams:
    """Free parameters (a, b, alpha) of the compatible family."""

    a: float
    b: float
    alpha: complex

    @property
    def degeneracy_defect(self) -> float:
        """|alpha|^2 - a b - 1; the structure is invertible iff this is nonzero."""
        al = complex(self.alpha)
        return al.real * al.real + al.imag * al.imag - self.a * self.b - 1.0

    @property
    def is_degenerate(self) -> bool:
        return abs(self.degeneracy_defect) <= DEGENERACY_TOL


def sample_params(rng) -> SymplecticParams:
    """Draw (a, b, Re alpha, Im alpha) uniformly from [-2, 2]^4, redrawing
    until |degeneracy_defect| exceeds SAMPLE_MARGIN."""
    while True:
        a, b = rng.uniform(-2.0, 2.0, size=2)
        alpha = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        params = SymplecticParams(float(a), float(b), alpha)
        if abs(params.degeneracy_defect) > SAMPLE_MARGIN:
            return params


def _as_params(params) -> SymplecticParams:
    if isinstance(params, SymplecticParams):
        return params
    a, b, alpha = params
    return SymplecticParams(float(a), float(b), complex(alpha))


J_STANDARD = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
J_STANDARD.setflags(write=False)

_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


def build_complex_J(params) -> np.ndarray:
    """Bracket matrix over the coordinates (z, p, z*, p*).

    Antisymmetric by construction; degeneracy is flagged on the parameters,
    never raised here.
    """
    p = _as_params(params)
    a, b, al = p.a, p.b, complex(p.alpha)
    upper = np.zeros((4, 4), dtype=complex)
    upper[0, 1] = 1.0
    upper[0, 2] = 1j * a
    upper[0, 3] = al
    upper[1, 2] = -al.conjugate()
    upper[1, 3] = 1j * b
    upper[2, 3] = 1.0
    return upper - upper.T


def _j_rows(p: SymplecticParams) -> tuple[tuple[float, ...], ...]:
    """The rows of the real J as float 4-tuples.

    Each lower entry is 0.0 - (upper entry), not its negation, so zero
    entries carry the signs of ``upper - upper.T``.
    """
    al = complex(p.alpha)
    j01, j02, j03 = 0.5 * (1.0 + al.real), 0.5 * (-p.a), 0.5 * (-al.imag)
    j12, j13, j23 = 0.5 * (-al.imag), 0.5 * (-p.b), 0.5 * (-1.0 + al.real)
    return ((0.0, j01, j02, j03),
            (0.0 - j01, 0.0, j12, j13),
            (0.0 - j02, 0.0 - j12, 0.0, j23),
            (0.0 - j03, 0.0 - j13, 0.0 - j23, 0.0))


def _checked_j_rows(params) -> tuple[SymplecticParams, tuple[tuple[float, ...], ...]]:
    """Validated parameters and the rows of their invertible J.

    Raises ValueError for a non-finite a, b or alpha and
    DegenerateStructureError when |alpha|^2 - ab = 1 (within tolerance).
    """
    p = _as_params(params)
    al = complex(p.alpha)
    if not (math.isfinite(p.a) and math.isfinite(p.b) and cmath.isfinite(al)):
        raise ValueError(f"structure parameters must be finite: a={p.a:g} "
                         f"b={p.b:g} alpha={al.real:g}{al.imag:+g}i")
    if p.is_degenerate:
        raise DegenerateStructureError(
            f"|alpha|^2 - a*b = 1 within {DEGENERACY_TOL:g} "
            f"(defect {p.degeneracy_defect:.3e}); structure not invertible")
    return p, _j_rows(p)


def build_real_J(params) -> np.ndarray:
    """Bracket matrix over the real coordinates w = (x, p, y, q).

    Raises ValueError when a, b or alpha is not finite and
    DegenerateStructureError when |alpha|^2 - ab = 1 (within tolerance),
    where the matrix is not invertible.
    """
    return np.array(_checked_j_rows(params)[1])


def eigenvalue_magnitudes(params) -> tuple[float, float]:
    """(r+, r-): the eigenvalues of the real bracket matrix are +-i r+-.

    Uses a cancellation-free rearrangement: with
    A = a^2 + b^2 + 2(|alpha|^2 + 1) and
    B = sqrt(((a+b)^2 + 4)((a-b)^2 + 4 |alpha|^2)) the textbook forms are
    r+- = sqrt((A +- B)/8), and A^2 - B^2 factors exactly as
    4 (|alpha|^2 - ab - 1)^2, giving

        r+ = sqrt((A + B)/8),     r- = ||alpha|^2 - ab - 1| / sqrt(2 (A + B)).

    The second form avoids the catastrophic cancellation of A - B near the
    degenerate surface, so r- vanishes to machine precision exactly when the
    degeneracy defect does.  Squares are products, so huge parameters give
    inf or nan here instead of raising OverflowError.
    """
    p = _as_params(params)
    a, b = p.a, p.b
    al = complex(p.alpha)
    s = al.real * al.real + al.imag * al.imag
    A = a * a + b * b + 2.0 * (s + 1.0)
    total, diff = a + b, a - b
    B = math.sqrt((total * total + 4.0) * (diff * diff + 4.0 * s))
    r_plus = math.sqrt((A + B) / 8.0)
    r_minus = abs(p.degeneracy_defect) / math.sqrt(2.0 * (A + B))
    return r_plus, r_minus


def j_prime(r_plus: float, r_minus: float) -> np.ndarray:
    """Block normal form with +r+ and +r- in the (1,2) and (3,4) entries."""
    return np.array([
        [0.0, r_plus, 0.0, 0.0],
        [-r_plus, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, r_minus],
        [0.0, 0.0, -r_minus, 0.0],
    ])


@dataclass(frozen=True, eq=False)
class DarbouxFrame:
    """Orthogonal change of basis S plus the eigen-magnitudes (r+, r-).

    S^T J S is the block form ``j_prime(r_plus, r_minus)``; the Darboux
    coordinates are xi = D^{-1/2} S^T w with D = diag(r+, r+, r-, r-).
    """

    S: np.ndarray
    r_plus: float
    r_minus: float

    def scaling(self) -> np.ndarray:
        return np.diag([self.r_plus, self.r_plus, self.r_minus, self.r_minus])


# Column seeds for the deterministic kernel-basis orthogonalization, in the
# order x, p, q, y: with this order the zero-parameter frame reduces to the
# signed permutation selecting (x, p, q, y), i.e. the familiar coordinates
# x1 = sqrt(2) x, p1 = sqrt(2) p, x2 = sqrt(2) q, p2 = sqrt(2) y.
_SEED_ORDER = (0, 1, 3, 2)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def darboux_frame(params) -> DarbouxFrame:
    """Construct the orthogonal frame mapping J to its block normal form.

    The two invariant planes of J are the eigenspaces of J J^T = -J^2 for
    the eigenvalues r+^2 and r-^2; their projectors are, in closed form,

        P+ = (J J^T - r-^2 I) / (r+^2 - r-^2),     P- = I - P+,

    or both the identity when r+ = r- (a = b, alpha = 0, where every plane
    is invariant).  Each plane's first basis vector u1 is chosen
    deterministically: the first projector column, in the seed order
    x, p, q, y, whose Gram-Schmidt remainder against the vectors already
    accepted has norm above 1e-8, normalised and oriented so its first
    component above 1e-9 in magnitude is positive.  Its partner is
    u2 = -(1/r) J u1, which makes the corresponding block entry exactly +r.
    Reproducible across runs and platforms up to floating-point noise.

    Raises ValueError when a, b, alpha, r+ or r- is not finite and
    DegenerateStructureError on (or within tolerance of) the degenerate
    surface.
    """
    p, J = _checked_j_rows(params)
    (_, j01, j02, j03), (_, _, j12, j13), (_, _, _, j23), _ = J
    r_plus, r_minus = eigenvalue_magnitudes(p)
    if not (math.isfinite(r_plus) and math.isfinite(r_minus)):
        al = complex(p.alpha)
        raise ValueError(f"eigen-magnitudes r+ = {r_plus:g}, r- = {r_minus:g} "
                         f"are not finite for a={p.a:g} b={p.b:g} "
                         f"alpha={al.real:g}{al.imag:+g}i")
    if r_minus <= DEGENERACY_TOL:
        raise DegenerateStructureError(
            f"r_minus = {r_minus:.3e} <= {DEGENERACY_TOL:g}; no Darboux frame")

    if r_plus - r_minus <= 1e-9 * max(1.0, r_plus):
        # Equal eigen-magnitudes: J^2 = -r^2 I and every plane is invariant;
        # Gram-Schmidt against already-accepted columns picks the second one.
        plus = minus = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                        (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    else:
        # The ten distinct entries of M = J J^T; rows and columns of the
        # projectors coincide, since both are symmetric.
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

    columns: list[tuple[float, ...]] = []
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
        else:  # projector rank defect; cannot happen for valid params
            raise DegenerateStructureError("kernel basis extraction failed")
        x0, x1, x2, x3 = c[0] / norm, c[1] / norm, c[2] / norm, c[3] / norm
        lead = next((x for x in (x0, x1, x2, x3) if abs(x) > 1e-9), x0)
        if lead < 0.0:
            x0, x1, x2, x3 = -x0, -x1, -x2, -x3
        u1 = (x0, x1, x2, x3)
        columns.append(u1)
        columns.append(tuple(-_dot(row, u1) / r for row in J))

    return DarbouxFrame(np.array(columns).T, r_plus, r_minus)


def darboux_map(frame: DarbouxFrame, w) -> np.ndarray:
    """Symplectic coordinates xi_a = r^{-1/2} sum_k S_{k a} w_k."""
    w = np.asarray(w, dtype=float)
    scale = np.array([frame.r_plus, frame.r_plus, frame.r_minus, frame.r_minus])
    return (frame.S.T @ w) / np.sqrt(scale)


def inverse_darboux_map(frame: DarbouxFrame, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    scale = np.array([frame.r_plus, frame.r_plus, frame.r_minus, frame.r_minus])
    return frame.S @ (xi * np.sqrt(scale))


def frame_residuals(frame: DarbouxFrame, J: np.ndarray) -> dict:
    """Max-norm residuals of the three defining frame properties:
    S^T J S = j_prime(r+, r-), S^T S = I and M J M^T = J_STANDARD for the
    linear map M = D^{-1/2} S^T."""
    r_plus, r_minus = frame.r_plus, frame.r_minus
    S = frame.S
    ST = S.T
    block = ST @ J @ S
    block[0, 1] -= r_plus
    block[1, 0] += r_plus
    block[2, 3] -= r_minus
    block[3, 2] += r_minus
    lin = ST.copy()
    lin[:2] *= 1.0 / math.sqrt(r_plus)
    lin[2:] *= 1.0 / math.sqrt(r_minus)
    return {
        "block_form": float(abs(block).max()),
        "orthogonality": float(abs(ST @ S - _EYE4).max()),
        "canonicity": float(abs(lin @ J @ lin.T - J_STANDARD).max()),
    }


# --------------------------------------------------------------------------
# Brackets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of w = (x, p, y, q) with an optional exact gradient.

    Fields without a gradient fall back to central differences with step
    1e-6 * max(1, |w|).
    """

    func: Callable[[np.ndarray], complex]
    grad: Callable[[np.ndarray], np.ndarray] | None = None


def _as_field(f) -> ScalarField:
    return f if isinstance(f, ScalarField) else ScalarField(func=f)


def _gradient(field: ScalarField, w: np.ndarray) -> np.ndarray:
    if field.grad is not None:
        return np.asarray(field.grad(w))
    step = 1e-6 * max(1.0, float(np.linalg.norm(w)))
    g = np.zeros(4, dtype=complex)
    for k in range(4):
        wp = w.copy()
        wm = w.copy()
        wp[k] += step
        wm[k] -= step
        g[k] = (field.func(wp) - field.func(wm)) / (2.0 * step)
    return g


def coordinate_field(k: int) -> ScalarField:
    e = np.zeros(4)
    e[k] = 1.0
    return ScalarField(func=lambda w: w[k], grad=lambda w: e)


def position_field() -> ScalarField:
    """The complex position z = x + i y as a scalar field on R^4."""
    g = np.array([1.0, 0.0, 1j, 0.0])
    return ScalarField(func=lambda w: complex(w[0], w[2]), grad=lambda w: g)


def momentum_field() -> ScalarField:
    """The complex momentum p = p + i q as a scalar field on R^4."""
    g = np.array([0.0, 1.0, 0.0, 1j])
    return ScalarField(func=lambda w: complex(w[1], w[3]), grad=lambda w: g)


def hamiltonian_field(spec: SystemSpec) -> ScalarField:
    """Complex H as a field on R^4, with its exact gradient.

    dH/dx = v', dH/dp = p/m, dH/dy = i v', dH/dq = i p/m, using analyticity
    of the potential.
    """
    def func(w):
        z = complex(w[0], w[2])
        p = complex(w[1], w[3])
        return p * p / (2.0 * spec.mass) + spec.v(z)

    def grad(w):
        z = complex(w[0], w[2])
        p_over_m = complex(w[1], w[3]) / spec.mass
        dv = spec.dv(z)
        return np.array([dv, p_over_m, 1j * dv, 1j * p_over_m])

    return ScalarField(func=func, grad=grad)


def hamiltonian_real_field(spec: SystemSpec) -> ScalarField:
    """H_r with exact gradient (Re v', p/m, -Im v', -q/m)."""
    def func(w):
        return hamiltonian_split(spec, w)[0]

    def grad(w):
        dv = spec.dv(complex(w[0], w[2]))
        m = spec.mass
        return np.array([dv.real, w[1] / m, -dv.imag, -w[3] / m])

    return ScalarField(func=func, grad=grad)


def hamiltonian_imag_field(spec: SystemSpec) -> ScalarField:
    """H_i with exact gradient (Im v', q/m, Re v', p/m)."""
    def func(w):
        return hamiltonian_split(spec, w)[1]

    def grad(w):
        dv = spec.dv(complex(w[0], w[2]))
        m = spec.mass
        return np.array([dv.imag, w[3] / m, dv.real, w[1] / m])

    return ScalarField(func=func, grad=grad)


def bracket(field_a, field_b, J: np.ndarray, w) -> complex:
    """{{A, B}} = sum_ij J_ij dA/dw_i dB/dw_j at the point w.

    Bilinear and antisymmetric in (A, B); real-valued fields give a bracket
    with exactly zero imaginary part for real J.
    """
    w = np.asarray(w, dtype=float)
    ga = _gradient(_as_field(field_a), w)
    gb = _gradient(_as_field(field_b), w)
    return complex(ga @ (np.asarray(J) @ gb))


def standard_bracket(field_a, field_b, w) -> complex:
    """Conventional Poisson bracket {A, B} (standard structure)."""
    return bracket(field_a, field_b, J_STANDARD, w)


def verify_compatibility(params, spec: SystemSpec, w) -> dict:
    """Check that the bracket of (z, p) with H reproduces Hamilton's equations.

    Residuals |{{z,H}} - p/m| and |{{p,H}} + v'(z)| are independent of the
    structure parameters; both must be <= 1e-10 for the report to pass.
    Failures (and degeneracy) are reported, never raised.
    """
    p = _as_params(params)
    w = np.asarray(w, dtype=float)
    report: dict = {
        "params": {"a": p.a, "b": p.b,
                   "alpha_re": complex(p.alpha).real,
                   "alpha_im": complex(p.alpha).imag},
        "degenerate": p.is_degenerate,
        "tolerance": 1e-10,
    }
    r_plus, r_minus = eigenvalue_magnitudes(p)
    report["r_plus"] = r_plus
    report["r_minus"] = r_minus
    if p.is_degenerate:
        report["residuals"] = None
        report["passed"] = False
        return report
    if r_minus < CONDITIONING_WARN_R_MINUS:
        report["warning"] = (f"r_minus = {r_minus:.3e} < "
                             f"{CONDITIONING_WARN_R_MINUS:g}: near-degenerate "
                             "structure, results may be ill-conditioned")
    # {{A, H}} = g_A . (J g_H) with the exact gradient row
    # g_H = (v', p/m, i v', i p/m) and the constant rows g_z = (1, 0, i, 0),
    # g_p = (0, 1, 0, i).
    dv = spec.dv(complex(w[0], w[2]))
    p_over_m = complex(w[1], w[3]) / spec.mass
    g_h = (dv, p_over_m, 1j * dv, 1j * p_over_m)
    jg0, jg1, jg2, jg3 = (_dot(row, g_h) for row in _j_rows(p))
    res_z = abs(jg0 + 1j * jg2 - p_over_m)
    res_p = abs(jg1 + 1j * jg3 + dv)
    report["residuals"] = {"position_equation": res_z, "momentum_equation": res_p}
    report["passed"] = bool(res_z <= 1e-10 and res_p <= 1e-10)
    return report


def format_matrix(M: np.ndarray) -> str:
    """Row-major rendering with 17 significant digits per entry."""
    rows = []
    for row in np.asarray(M):
        rows.append("  ".join(f"{v:.17g}" if not isinstance(v, complex)
                              else f"{v.real:.17g}{v.imag:+.17g}i" for v in row))
    return "\n".join(rows)
