"""Source hygiene: every name a package module imports is used in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qhofer"
# __init__.py imports names only to re-export them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Imported names never referenced, as (line, name); lines marked
    ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "import os\n"
        "import sys\n"
        "from math import pi, tau  # noqa: F401\n"
        "from fractions import (\n"
        "    Fraction,\n"
        "    gcd,\n"
        ")\n"
        "print(sys.argv, Fraction(1))\n"
    )
    assert unused_imports(source) == [(1, "os"), (6, "gcd")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
