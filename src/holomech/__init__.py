"""holomech: real descriptions of complex-potential Hamiltonian dynamics.

Classical dynamics generated by an entire analytic potential v(z) lives in
C^2 = R^4.  This package builds the family of symplectic structures on R^4
compatible with the complex Hamilton equations, the orthogonal Darboux
transformation to the standard structure, and the equivalent real
Hamiltonian h = 2 H_r (with H_i as an independent integral of motion), and
it integrates and cross-validates trajectories in both descriptions.
"""

from .potentials import (
    PotentialError,
    PotentialSyntaxError,
    UnsupportedFunctionError,
    PotentialOverflowError,
    split_real_imag,
    BUILTIN_SOURCES,
    get_builtin,
)
from .hamiltonian import (
    SystemSpec,
    hamiltonian_split,
    darboux_hamiltonian,
    darboux_invariant,
    w_to_darboux,
    darboux_to_w,
)
from .symplectic import (
    DegenerateStructureError,
    SymplecticParams,
    J_STANDARD,
    build_real_J,
    eigenvalue_magnitudes,
    DarbouxFrame,
    darboux_frame,
    frame_residuals,
    position_field,
    momentum_field,
    hamiltonian_field,
    bracket,
    standard_bracket,
    verify_compatibility,
    format_matrix,
)
from .dynamics import (
    IntegratorConfig,
    FlowConfig,
    Trajectory,
    ConstraintUnsolvableError,
    ConstraintFreeError,
    GridMismatchError,
    EquivalenceReport,
    integrate_complex,
    integrate_darboux,
    split_step,
    invariant_flow,
    solve_invariant_zero,
    equivalence_report,
)
from .closed_forms import verify_reference_table

__version__ = "0.1.0"
