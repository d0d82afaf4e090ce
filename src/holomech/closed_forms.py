"""Closed-form reference table for h and H_i at mass 1/2.

For each catalog potential this module states hand-derived closed forms of
the equivalent real Hamiltonian h(x1, p1, x2, p2) and of the invariant
H_i(x1, p1, x2, p2), each once, as the text the report prints; that text,
with ``^`` read as ``**``, is compiled once per process into the function
the check evaluates.  A form sees only its coordinates, ``math.sqrt`` and
numpy's exp, sin, cos, sinh and cosh (any other name fails at import), so it
evaluates a whole column of sample points at once and shares no code with
the generic path, the ground truth: ``verify_reference_table`` compares the
two at seeded random points and reports a wrong entry as DISCREPANT instead
of silently inheriting it.  It makes one ``hamiltonian_split`` per catalog
potential on the mapped samples and takes h = 2 H_r and H_i from it: the
values ``darboux_hamiltonian`` and ``darboux_invariant`` give, bit for bit.

Two entries are known to disagree with the generic construction:

* ``iz`` h-column:      table has -p2/sqrt(2), the construction gives -sqrt(2)*p2;
* ``neg_z4`` Hi-column: table has -x1*p2^3,    the construction gives +x1*p2^3.

Corrected forms for both are bundled and verified alongside the report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import sqrt
from typing import Callable

import numpy as np

from .hamiltonian import SystemSpec, darboux_to_w, hamiltonian_split
# not used here: perfbench/workloads.py patches them by name
from .hamiltonian import darboux_hamiltonian, darboux_invariant
from .potentials import get_builtin

__all__ = [
    "REFERENCE_MASS",
    "ReferenceEntry",
    "REFERENCE_TABLE",
    "CORRECTED_FORMS",
    "verify_reference_table",
]

REFERENCE_MASS = 0.5

# Most sample points ``verify_reference_table`` accepts; the check holds
# about 550 bytes per point at its peak, so about 0.55 GB here.
MAX_TABLE_POINTS = 10**6

# (x1, p1, x2, p2) -> value, on floats or elementwise on equal-shape arrays.
FormFunc = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# Every name a form may use besides its four coordinates.
_FORM_NAMES = {"sqrt": sqrt, "exp": np.exp, "sin": np.sin, "cos": np.cos,
               "sinh": np.sinh, "cosh": np.cosh}


def _compile_form(text: str) -> FormFunc:
    """``text``, with ``^`` read as ``**``, as a function of (x1, p1, x2, p2);
    ValueError if it names anything but those and ``_FORM_NAMES``."""
    namespace = {"__builtins__": {}, **_FORM_NAMES}
    exec(compile(f"def form(x1, p1, x2, p2): return {text.replace('^', '**')}",
                 f"<closed form {text!r}>", "exec"), namespace)
    if unknown := set(namespace["form"].__code__.co_names) - _FORM_NAMES.keys():
        raise ValueError(f"closed form {text!r} names {sorted(unknown)}")
    return namespace["form"]


@dataclass(frozen=True)
class ReferenceEntry:
    potential: str
    column: str  # "h" or "Hi"
    source: str
    func: FormFunc = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "func", _compile_form(self.source))


REFERENCE_TABLE: list[ReferenceEntry] = [
    ReferenceEntry("iz", "h", "p1^2 - p2/sqrt(2) - x2^2"),
    ReferenceEntry("iz", "Hi", "x2*p1 + x1/sqrt(2)"),
    ReferenceEntry("z2", "h", "p1^2 - p2^2 + x1^2 - x2^2"),
    ReferenceEntry("z2", "Hi", "x2*p1 + x1*p2"),
    ReferenceEntry("iz3", "h", "p1^2 + (p2^3 - 3*x1^2*p2)/sqrt(2) - x2^2"),
    ReferenceEntry("iz3", "Hi", "x2*p1 + (x1^3 - 3*x1*p2^2)/(2*sqrt(2))"),
    ReferenceEntry("neg_z4", "h", "p1^2 - (x1^4 - 6*x1^2*p2^2 + p2^4)/2 - x2^2"),
    ReferenceEntry("neg_z4", "Hi", "x2*p1 - x1^3*p2 - x1*p2^3"),
    ReferenceEntry("exp_iz", "h", "p1^2 + 2*exp(-p2/sqrt(2))*cos(x1/sqrt(2)) - x2^2"),
    ReferenceEntry("exp_iz", "Hi", "x2*p1 + exp(-p2/sqrt(2))*sin(x1/sqrt(2))"),
    ReferenceEntry("i_sin_z", "h", "p1^2 - 2*cos(x1/sqrt(2))*sinh(p2/sqrt(2)) - x2^2"),
    ReferenceEntry("i_sin_z", "Hi", "x2*p1 + sin(x1/sqrt(2))*cosh(p2/sqrt(2))"),
]

# Independently re-derived corrections for the two known-bad entries.
CORRECTED_FORMS: dict[tuple[str, str], tuple[str, FormFunc]] = {
    key: (text, _compile_form(text)) for key, text in [
        (("iz", "h"), "p1^2 - sqrt(2)*p2 - x2^2"),
        (("neg_z4", "Hi"), "x2*p1 - x1^3*p2 + x1*p2^3")]}


@functools.cache
def _reference_spec(name: str) -> SystemSpec:
    """The catalog potential ``name`` at the reference mass, compiled once per
    process (a SystemSpec is immutable)."""
    return SystemSpec(get_builtin(name), REFERENCE_MASS)


def verify_reference_table(seed: int, points: int, tol: float = 1e-12) -> dict:
    """Compare every table entry against the generic construction.

    Evaluates each closed form and the generic path at ``points`` seeded
    random Darboux points in [-2, 2]^4 (mass fixed at 1/2), each once on the
    whole sample block; the generic path is one ``hamiltonian_split`` per
    potential, giving both its h and its H_i row.  Entries whose maximum
    absolute deviation exceeds ``tol`` are flagged DISCREPANT, with both
    values at the worst point (the first one attaining the maximum) printed
    and, where available, a corrected form that is itself verified against
    the generic path.  Raises ValueError unless 1 <= points <= MAX_TABLE_POINTS.
    """
    if not 1 <= points <= MAX_TABLE_POINTS:
        raise ValueError(f"points must lie in [1, {MAX_TABLE_POINTS}], got {points}")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-2.0, 2.0, size=(points, 4))
    columns = samples.T
    w = darboux_to_w(samples)
    splits = {name: hamiltonian_split(_reference_spec(name), w)
              for name in dict.fromkeys(e.potential for e in REFERENCE_TABLE)}
    gen = np.stack([2.0 * splits[e.potential][0] if e.column == "h" else splits[e.potential][1]
                    for e in REFERENCE_TABLE])
    ref = np.stack([e.func(*columns) for e in REFERENCE_TABLE])
    dev = np.abs(ref - gen)
    worst = dev.argmax(axis=1)

    rows = []
    consistent = True
    for i, entry in enumerate(REFERENCE_TABLE):
        k = worst[i]
        row = {
            "potential": entry.potential,
            "column": entry.column,
            "reference_form": entry.source,
            "max_deviation": float(dev[i, k]),
            "status": "PASS" if dev[i, k] <= tol else "DISCREPANT",
        }
        if row["status"] == "DISCREPANT":
            row["worst_point"] = [float(c) for c in samples[k]]
            row["reference_value"] = float(ref[i, k])
            row["generic_value"] = float(gen[i, k])
            corrected = CORRECTED_FORMS.get((entry.potential, entry.column))
            if corrected is None:
                consistent = False
            else:
                src, func = corrected
                cdev = float(np.max(np.abs(func(*columns) - gen[i])))
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
