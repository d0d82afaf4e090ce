"""Closed-form reference table for h and H_i at mass 1/2.

For each catalog potential this module stores hand-derived closed forms of
the equivalent real Hamiltonian h(x1, p1, x2, p2) and of the invariant
H_i(x1, p1, x2, p2), kept verbatim as an *independent* cross-check of the
generic evaluation path.  The forms are written with numpy functions, so
each one evaluates a whole column of sample points at once; they share no
code with the generic path.  The generic path (darboux_hamiltonian /
darboux_invariant) is the ground truth: ``verify_reference_table`` compares
the two at seeded random points, so a wrong entry in this table is reported
as DISCREPANT instead of being silently inherited.

Two entries are known to disagree with the generic construction:

* ``iz`` h-column:      table has -p2/sqrt(2), the construction gives -sqrt(2)*p2;
* ``neg_z4`` Hi-column: table has -x1*p2^3,    the construction gives +x1*p2^3.

Corrected forms for both are bundled and verified alongside the report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonian import SystemSpec, darboux_hamiltonian, darboux_invariant
from .potentials import get_builtin

__all__ = [
    "REFERENCE_MASS",
    "ReferenceEntry",
    "REFERENCE_TABLE",
    "CORRECTED_FORMS",
    "verify_reference_table",
]

REFERENCE_MASS = 0.5

_S2 = math.sqrt(2.0)

# (x1, p1, x2, p2) -> value, on floats or elementwise on equal-shape arrays.
FormFunc = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ReferenceEntry:
    potential: str
    column: str  # "h" or "Hi"
    source: str
    func: FormFunc


def _entry(potential, column, source, func):
    return ReferenceEntry(potential, column, source, func)


REFERENCE_TABLE: list[ReferenceEntry] = [
    _entry("iz", "h", "p1^2 - p2/sqrt(2) - x2^2",
           lambda x1, p1, x2, p2: p1**2 - p2 / _S2 - x2**2),
    _entry("iz", "Hi", "x2*p1 + x1/sqrt(2)",
           lambda x1, p1, x2, p2: x2 * p1 + x1 / _S2),
    _entry("z2", "h", "p1^2 - p2^2 + x1^2 - x2^2",
           lambda x1, p1, x2, p2: p1**2 - p2**2 + x1**2 - x2**2),
    _entry("z2", "Hi", "x2*p1 + x1*p2",
           lambda x1, p1, x2, p2: x2 * p1 + x1 * p2),
    _entry("iz3", "h", "p1^2 + (p2^3 - 3*x1^2*p2)/sqrt(2) - x2^2",
           lambda x1, p1, x2, p2: p1**2 + (p2**3 - 3.0 * x1**2 * p2) / _S2 - x2**2),
    _entry("iz3", "Hi", "x2*p1 + (x1^3 - 3*x1*p2^2)/(2*sqrt(2))",
           lambda x1, p1, x2, p2: x2 * p1 + (x1**3 - 3.0 * x1 * p2**2) / (2.0 * _S2)),
    _entry("neg_z4", "h", "p1^2 - (x1^4 - 6*x1^2*p2^2 + p2^4)/2 - x2^2",
           lambda x1, p1, x2, p2: p1**2 - (x1**4 - 6.0 * x1**2 * p2**2 + p2**4) / 2.0 - x2**2),
    _entry("neg_z4", "Hi", "x2*p1 - x1^3*p2 - x1*p2^3",
           lambda x1, p1, x2, p2: x2 * p1 - x1**3 * p2 - x1 * p2**3),
    _entry("exp_iz", "h", "p1^2 + 2*exp(-p2/sqrt(2))*cos(x1/sqrt(2)) - x2^2",
           lambda x1, p1, x2, p2: p1**2 + 2.0 * np.exp(-p2 / _S2) * np.cos(x1 / _S2) - x2**2),
    _entry("exp_iz", "Hi", "x2*p1 + exp(-p2/sqrt(2))*sin(x1/sqrt(2))",
           lambda x1, p1, x2, p2: x2 * p1 + np.exp(-p2 / _S2) * np.sin(x1 / _S2)),
    _entry("i_sin_z", "h", "p1^2 - 2*cos(x1/sqrt(2))*sinh(p2/sqrt(2)) - x2^2",
           lambda x1, p1, x2, p2: p1**2 - 2.0 * np.cos(x1 / _S2) * np.sinh(p2 / _S2) - x2**2),
    _entry("i_sin_z", "Hi", "x2*p1 + sin(x1/sqrt(2))*cosh(p2/sqrt(2))",
           lambda x1, p1, x2, p2: x2 * p1 + np.sin(x1 / _S2) * np.cosh(p2 / _S2)),
]

# Independently re-derived corrections for the two known-bad entries.
CORRECTED_FORMS: dict[tuple[str, str], tuple[str, FormFunc]] = {
    ("iz", "h"): ("p1^2 - sqrt(2)*p2 - x2^2",
                  lambda x1, p1, x2, p2: p1**2 - _S2 * p2 - x2**2),
    ("neg_z4", "Hi"): ("x2*p1 - x1^3*p2 + x1*p2^3",
                       lambda x1, p1, x2, p2: x2 * p1 - x1**3 * p2 + x1 * p2**3),
}


@functools.cache
def _reference_spec(name: str) -> SystemSpec:
    """The catalog potential ``name`` at the reference mass, compiled once per
    process (a SystemSpec is immutable)."""
    return SystemSpec(get_builtin(name), REFERENCE_MASS)


def _generic(spec: SystemSpec, column: str, xi: np.ndarray) -> np.ndarray:
    if column == "h":
        return darboux_hamiltonian(spec, xi)
    return darboux_invariant(spec, xi)


def verify_reference_table(seed: int = 42, points: int = 100,
                           tol: float = 1e-12) -> dict:
    """Compare every table entry against the generic construction.

    Evaluates each closed form and the generic path at ``points`` seeded
    random Darboux points in [-2, 2]^4 (mass fixed at 1/2), each once on the
    whole sample block.  Entries whose maximum absolute deviation exceeds
    ``tol`` are flagged DISCREPANT, with both values at the worst point (the
    first one attaining the maximum) printed and, where available, a
    corrected form that is itself verified against the generic path.
    """
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-2.0, 2.0, size=(points, 4))
    columns = samples.T

    rows = []
    consistent = True
    for entry in REFERENCE_TABLE:
        gen = _generic(_reference_spec(entry.potential), entry.column, samples)
        ref = entry.func(*columns)
        dev = np.abs(ref - gen)
        k = int(np.argmax(dev))
        row = {
            "potential": entry.potential,
            "column": entry.column,
            "reference_form": entry.source,
            "max_deviation": float(dev[k]),
            "status": "PASS" if dev[k] <= tol else "DISCREPANT",
        }
        if row["status"] == "DISCREPANT":
            row["worst_point"] = [float(c) for c in samples[k]]
            row["reference_value"] = float(ref[k])
            row["generic_value"] = float(gen[k])
            corrected = CORRECTED_FORMS.get((entry.potential, entry.column))
            if corrected is None:
                consistent = False
            else:
                src, func = corrected
                cdev = float(np.max(np.abs(func(*columns) - gen)))
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
