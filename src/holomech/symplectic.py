"""Compatible symplectic structures on R^4 and their Darboux normal form.

The bracket {{A, B}} = sum_ij J_ij dA/dw_i dB/dw_j reproduces the complex
Hamilton equations dz/dt = {{z, H}}, dp/dt = {{p, H}} exactly when J belongs
to a four-parameter family indexed by two reals (a, b) and one complex
number alpha, subject to |alpha|^2 - a b != 1 (the structure degenerates on
that surface).  The standard symplectic matrix is *not* in the family: the
conventional Poisson bracket of any coordinate with an analytic H vanishes
identically.  Compatibility is a statement about brackets: the flow
preserves J(0, 0, 0), whose Hamiltonian is h = 2 H_r; of the catalog
potentials only z^2 and i*z keep other members too.

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
Each call reads (a, b, alpha) once, through ``_structure``, the one home of
the formulas for J, the degeneracy defect and r+-.  ``frame_residuals`` is
one stacked BLAS pass that makes the same products as the plain numpy
expressions ``S.T @ J @ S``, ``S.T @ S`` and ``M @ J @ M.T``, bit for bit.

All operations are pure and matrices are freshly allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonian import SystemSpec, _row_to_pair

__all__ = [
    "DEGENERACY_TOL",
    "CONDITIONING_WARN_R_MINUS",
    "SAMPLE_MARGIN",
    "DegenerateStructureError",
    "SymplecticParams",
    "sample_params",
    "J_STANDARD",
    "build_real_J",
    "eigenvalue_magnitudes",
    "DarbouxFrame",
    "darboux_frame",
    "frame_residuals",
    "position_field",
    "momentum_field",
    "hamiltonian_field",
    "bracket",
    "standard_bracket",
    "verify_compatibility",
    "structure_trials",
    "format_matrix",
]

# Absolute tolerance on |alpha|^2 - a b - 1 below which the structure is
# treated as non-invertible.
DEGENERACY_TOL = 1e-12

# Below this r- the Darboux rescaling amplifies rounding; ``holomech darboux``
# warns.
CONDITIONING_WARN_R_MINUS = 1e-6

# Largest accepted residual of each check: the three frame properties of
# ``frame_residuals`` and the two Hamilton equations of
# ``verify_compatibility``.
RESIDUAL_LIMITS = {"block_form": 1e-10, "orthogonality": 1e-12, "canonicity": 1e-10,
                   "position_equation": 1e-10, "momentum_equation": 1e-10}

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
        return _structure(self)[4]


def sample_params(rng) -> SymplecticParams:
    """Draw (a, b, Re alpha, Im alpha) uniformly from [-2, 2]^4, redrawing
    until |degeneracy_defect| exceeds SAMPLE_MARGIN."""
    while True:
        a, b = rng.uniform(-2.0, 2.0, size=2)
        alpha = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        params = SymplecticParams(float(a), float(b), alpha)
        if abs(params.degeneracy_defect) > SAMPLE_MARGIN:
            return params


J_STANDARD = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
J_STANDARD.setflags(write=False)

# What ``frame_residuals`` subtracts from S^T J S (before its four r+- entries),
# M J M^T and S^T S.
_TARGETS = np.stack((np.zeros((4, 4)), J_STANDARD, np.eye(4)))
_TARGETS.setflags(write=False)


def _structure(params) -> tuple:
    """(a, b, Re alpha, Im alpha, defect, rows of J, r+, r-), each computed once.

    The one place that reads the parameters and holds the formulas for the
    entries of J, the degeneracy defect and the eigen-magnitudes (see
    ``eigenvalue_magnitudes``).  The rows of the real J are float 4-tuples;
    each lower entry is 0.0 - (upper entry), not its negation, so zero
    entries carry the signs of ``upper - upper.T``.  Nothing here raises for
    non-finite or huge parameters: they give inf or nan.
    """
    if isinstance(params, SymplecticParams):
        a, b, al = params.a, params.b, params.alpha
    else:
        a, b, al = params
    a, b, al = float(a), float(b), complex(al)
    ar, ai = al.real, al.imag
    j01, j02, j03 = 0.5 * (1.0 + ar), 0.5 * (-a), 0.5 * (-ai)
    j12, j13, j23 = 0.5 * (-ai), 0.5 * (-b), 0.5 * (-1.0 + ar)
    rows = ((0.0, j01, j02, j03),
            (0.0 - j01, 0.0, j12, j13),
            (0.0 - j02, 0.0 - j12, 0.0, j23),
            (0.0 - j03, 0.0 - j13, 0.0 - j23, 0.0))
    s = ar * ar + ai * ai
    defect = s - a * b - 1.0
    A = a * a + b * b + 2.0 * (s + 1.0)
    total, diff = a + b, a - b
    B = math.sqrt((total * total + 4.0) * (diff * diff + 4.0 * s))
    r_plus = math.sqrt((A + B) / 8.0)
    r_minus = abs(defect) / math.sqrt(2.0 * (A + B))
    return a, b, ar, ai, defect, rows, r_plus, r_minus


def _checked_structure(params) -> tuple:
    """``_structure`` of parameters with an invertible J.

    Raises ValueError for a non-finite a, b or alpha and
    DegenerateStructureError when |alpha|^2 - ab = 1 (within tolerance).
    """
    st = _structure(params)
    a, b, ar, ai, defect = st[:5]
    if not (math.isfinite(a) and math.isfinite(b)
            and math.isfinite(ar) and math.isfinite(ai)):
        raise ValueError(f"structure parameters must be finite: a={a:g} "
                         f"b={b:g} alpha={ar:g}{ai:+g}i")
    if abs(defect) <= DEGENERACY_TOL:
        raise DegenerateStructureError(
            f"|alpha|^2 - a*b = 1 within {DEGENERACY_TOL:g} "
            f"(defect {defect:.3e}); structure not invertible")
    return st


def build_real_J(params) -> np.ndarray:
    """Bracket matrix over the real coordinates w = (x, p, y, q).

    Raises ValueError when a, b or alpha is not finite and
    DegenerateStructureError when |alpha|^2 - ab = 1 (within tolerance),
    where the matrix is not invertible.
    """
    return np.array(_checked_structure(params)[5], dtype=float)


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
    return _structure(params)[6:]


@dataclass(frozen=True, eq=False)
class DarbouxFrame:
    """Orthogonal change of basis S plus the eigen-magnitudes (r+, r-).

    S^T J S is the block normal form, +r+ in entry (1, 2) and +r- in entry
    (3, 4), their negatives below the diagonal, zeros elsewhere; the Darboux
    coordinates are xi = D^{-1/2} S^T w with D = diag(r+, r+, r-, r-).
    """

    S: np.ndarray
    r_plus: float
    r_minus: float


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
    a, b, ar, ai, _, J, r_plus, r_minus = _checked_structure(params)
    ((j00, j01, j02, j03), (j10, j11, j12, j13),
     (j20, j21, j22, j23), (j30, j31, j32, j33)) = J
    if not (math.isfinite(r_plus) and math.isfinite(r_minus)):
        raise ValueError(f"eigen-magnitudes r+ = {r_plus:g}, r- = {r_minus:g} "
                         f"are not finite for a={a:g} b={b:g} "
                         f"alpha={ar:g}{ai:+g}i")
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

    columns: list[tuple[float, float, float, float]] = []
    for r, proj in ((r_plus, plus), (r_minus, minus)):
        for k in _SEED_ORDER:
            c0, c1, c2, c3 = proj[k]
            for u0, u1, u2, u3 in columns:
                d = u0 * c0 + u1 * c1 + u2 * c2 + u3 * c3
                c0, c1, c2, c3 = c0 - d * u0, c1 - d * u1, c2 - d * u2, c3 - d * u3
            norm = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
            if norm > 1e-8:
                break
        else:  # projector rank defect; cannot happen for valid params
            raise DegenerateStructureError("kernel basis extraction failed")
        x0, x1, x2, x3 = c0 / norm, c1 / norm, c2 / norm, c3 / norm
        # orient by the first component above 1e-9 in magnitude (x0 if none)
        if abs(x0) > 1e-9:
            lead = x0
        elif abs(x1) > 1e-9:
            lead = x1
        elif abs(x2) > 1e-9:
            lead = x2
        elif abs(x3) > 1e-9:
            lead = x3
        else:
            lead = x0
        if lead < 0.0:
            x0, x1, x2, x3 = -x0, -x1, -x2, -x3
        columns.append((x0, x1, x2, x3))
        # u2 = -J u1 / r
        columns.append((-(j00 * x0 + j01 * x1 + j02 * x2 + j03 * x3) / r,
                        -(j10 * x0 + j11 * x1 + j12 * x2 + j13 * x3) / r,
                        -(j20 * x0 + j21 * x1 + j22 * x2 + j23 * x3) / r,
                        -(j30 * x0 + j31 * x1 + j32 * x2 + j33 * x3) / r))

    return DarbouxFrame(np.array(columns, dtype=float).T, r_plus, r_minus)


def frame_residuals(frame: DarbouxFrame, J: np.ndarray) -> dict:
    """Max-norm residuals of the three defining frame properties: S^T J S
    is the block normal form of ``DarbouxFrame``, S^T S = I and
    M J M^T = J_STANDARD for the linear map M = D^{-1/2} S^T.  X = [S^T; M]
    gives S^T J S and M J M^T from two matmuls, S^T S from a third."""
    r_plus, r_minus = frame.r_plus, frame.r_minus
    S = frame.S
    ST = S.T
    inv_p, inv_m = 1.0 / math.sqrt(r_plus), 1.0 / math.sqrt(r_minus)
    X = np.multiply(ST, np.array((1.0, 1.0, 1.0, 1.0, inv_p, inv_p, inv_m, inv_m), dtype=float)
                    .reshape(2, 4, 1))
    R = np.empty((3, 4, 4))
    np.matmul(X @ J, X.transpose(0, 2, 1), out=R[:2])
    np.matmul(ST, S, out=R[2])
    R -= _TARGETS
    R[0, 0, 1] -= r_plus
    R[0, 1, 0] += r_plus
    R[0, 2, 3] -= r_minus
    R[0, 3, 2] += r_minus
    block, canon, orth = np.abs(R, out=R).reshape(3, 16).max(axis=1).tolist()
    return {"block_form": block, "orthogonality": orth, "canonicity": canon}


# --------------------------------------------------------------------------
# Brackets
# --------------------------------------------------------------------------


def position_field() -> Callable[[np.ndarray], np.ndarray]:
    """The gradient of the complex position z = x + i y on R^4."""
    g = np.array([1.0, 0.0, 1j, 0.0])
    return lambda w: g


def momentum_field() -> Callable[[np.ndarray], np.ndarray]:
    """The gradient of the complex momentum p = p + i q on R^4."""
    g = np.array([0.0, 1.0, 0.0, 1j])
    return lambda w: g


def hamiltonian_field(spec: SystemSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The exact gradient of complex H on R^4.

    dH/dx = v', dH/dp = p/m, dH/dy = i v', dH/dq = i p/m, using analyticity
    of the potential.
    """
    return lambda w: np.array(_h_gradient(spec, w))


def _h_gradient(spec: SystemSpec, w) -> tuple:
    """(v', p/m, i v', i p/m): the gradient of complex H at the w row."""
    z, p = _row_to_pair(w, "complex")
    dv = spec.dv(z)
    p_over_m = p / spec.mass
    return dv, p_over_m, 1j * dv, 1j * p_over_m


def bracket(field_a, field_b, J: np.ndarray, w) -> complex:
    """{{A, B}} = sum_ij J_ij dA/dw_i dB/dw_j at the point w, for A and B
    given by their gradient functions.

    Bilinear and antisymmetric in (A, B); real-valued fields give a bracket
    with exactly zero imaginary part for real J.
    """
    w = np.asarray(w, dtype=float)
    return complex(field_a(w) @ (np.asarray(J) @ field_b(w)))


def standard_bracket(field_a, field_b, w) -> complex:
    """Conventional Poisson bracket {A, B} (standard structure)."""
    return bracket(field_a, field_b, J_STANDARD, w)


def verify_compatibility(params, spec: SystemSpec, w) -> dict:
    """Check that the bracket of (z, p) with H reproduces Hamilton's equations.

    Residuals |{{z,H}} - p/m| and |{{p,H}} + v'(z)| are independent of the
    structure parameters; both must be within RESIDUAL_LIMITS (1e-10) for
    the report to pass.  A degenerate structure is reported, never raised:
    its residuals are None and it does not pass.
    """
    a, b, ar, ai, defect, J, _, _ = _structure(params)
    named = {"a": a, "b": b, "alpha_re": ar, "alpha_im": ai}
    if abs(defect) <= DEGENERACY_TOL:
        return {"params": named, "residuals": None, "passed": False}
    # {{A, H}} = g_A . (J g_H) with the constant rows g_z = (1, 0, i, 0) and
    # g_p = (0, 1, 0, i)
    g_h = _h_gradient(spec, np.asarray(w, dtype=float))
    jg0, jg1, jg2, jg3 = _dot(J[0], g_h), _dot(J[1], g_h), _dot(J[2], g_h), _dot(J[3], g_h)
    residuals = {"position_equation": abs(jg0 + 1j * jg2 - g_h[1]),
                 "momentum_equation": abs(jg1 + 1j * jg3 + g_h[0])}
    return {"params": named, "residuals": residuals, "passed": within_limits(residuals)}


def structure_trials(spec: SystemSpec, rng, trials: int):
    """Per trial, draw (a, b, alpha) by ``sample_params``, then w uniform in
    [-2, 2]^4; yield (params report, frame, residuals), the residuals of
    ``frame_residuals`` and of ``verify_compatibility`` in one dict."""
    for _ in range(trials):
        params = sample_params(rng)
        w = rng.uniform(-2.0, 2.0, size=4)
        frame = darboux_frame(params)
        res = frame_residuals(frame, build_real_J(params))
        compat = verify_compatibility(params, spec, w)
        res.update(compat["residuals"])
        yield compat["params"], frame, res


def within_limits(residuals: dict) -> bool:
    """Whether every residual is within its entry of RESIDUAL_LIMITS."""
    return all(value <= RESIDUAL_LIMITS[key] for key, value in residuals.items())


def format_matrix(M: np.ndarray) -> str:
    """Row-major rendering of a real matrix, 17 significant digits per entry."""
    return "\n".join("  ".join(f"{v:.17g}" for v in row) for row in np.asarray(M))
