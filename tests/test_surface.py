"""Every public library name is reached by the system, not only by its tests.

A public top-level function or class of `src/dunking/*.py` must be named,
outside its own definition, by code in the package, the demos, perfbench or
the acceptance suite.  A name counts where it is an identifier, an
attribute, an imported name or a word of a string literal (perfbench wraps
library functions by their dotted names); docstrings and comments do not
count.  Unit tests do not count either: a name only they reach is surface
that no command, demo or workload needs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dunking"
REACHERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py")),
            ROOT / "tests" / "test_acceptance.py"]

# Parseval mass of the eigen-expansion is a named physical invariant, and
# rhe.spectral_reconstruction is what its unit test checks it through.
ALLOWED = {"rhe.spectral_reconstruction"}

WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _names_used(node, docstrings):
    """Every identifier that `node` refers to, by code or string literal."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub not in docstrings:
            yield from WORD.findall(sub.value)


def unreached_names() -> list[str]:
    public = []   # (name, "module.name")
    used = set()
    for path in REACHERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = set(_docstrings(tree))
        for node in tree.body:
            defined = None
            if path.parent == PACKAGE and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined = node.name
                public.append((node.name, f"{path.stem}.{node.name}"))
            # a definition's own body (recursion, its methods) reaches nothing
            used.update(n for n in _names_used(node, docstrings) if n != defined)
    return sorted(q for n, q in public if n not in used and q not in ALLOWED)


def test_every_public_name_is_reached():
    assert unreached_names() == []
