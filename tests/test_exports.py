"""The package exports only what its callers use."""

import ast
import re
from pathlib import Path

import holomech

ROOT = Path(__file__).resolve().parent.parent

# Exported for callers of the functions that return or raise them, though no
# caller below names them: the frame of ``darboux_frame``, the fields of
# ``position_field`` and its kin, the report of ``equivalence_report``, and
# the parse errors under ``PotentialError``.
RESULT_TYPES = {"DarbouxFrame", "ScalarField", "EquivalenceReport"}
EXCEPTION_TYPES = {"PotentialSyntaxError", "UnsupportedFunctionError"}


def _exported_names():
    tree = ast.parse((ROOT / "src" / "holomech" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_has_a_caller():
    callers = [ROOT / "src" / "holomech" / "cli.py", ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "scripts").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(path.read_text() for path in callers)
    unused = [name for name in _exported_names()
              if name not in RESULT_TYPES | EXCEPTION_TYPES
              and not re.search(rf"\b{name}\b", text)]
    assert unused == []
    for name in RESULT_TYPES | EXCEPTION_TYPES:
        assert isinstance(getattr(holomech, name), type), name
    for name in EXCEPTION_TYPES:
        assert issubclass(getattr(holomech, name), holomech.PotentialError), name
