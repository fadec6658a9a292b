"""Source hygiene: every name a package module imports is used in it, every
private top-level definition is used somewhere in the package, the package
imports nothing outside the standard library, the float module and the
command line's module level import no package module but ``novikov``, every
exception class is a ``ParseError`` or a ``CheckError``, every other public
class but the model and the element is a tuple, every method and every
public name has a caller outside the tests, the README's library tour
runs, every demo prints its pinned output, and a test past the suite's time
limit fails alone."""

import ast
import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from test_golden import DEMOS, demo_golden, run_demo

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qhofer"
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


def orphaned_private_definitions(sources: dict) -> list:
    """Top-level ``_name`` functions and classes of ``sources`` (module name to
    text) that no other top-level statement of any module references, as
    (module, name).  Dunder names are exempt; a reference from inside the
    definition itself, such as recursion, does not count."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    referenced = {}
    for module, stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        referenced[id(stmt)] = names
    return sorted(
        (module, stmt.name)
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.endswith("__")
        and not any(
            stmt.name in names for key, names in referenced.items() if key != id(stmt)
        )
    )


def test_orphan_checker_flags_unreferenced_private_definitions():
    sources = {
        "a.py": (
            "def _used(): pass\n"
            "def _orphan(): pass\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Base: pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _used()\n"
        ),
        "b.py": (
            "from .a import _Base\n"
            "import a\n"
            "def _helper(): pass\n"
            "VALUE = a._helper2\n"
            "def _helper2(): pass\n"
        ),
    }
    assert orphaned_private_definitions(sources) == [
        ("a.py", "_orphan"),
        ("a.py", "_recursive"),
        ("b.py", "_helper"),
    ]


def test_no_orphaned_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_definitions(sources) == []


def referenced_names(sources: list) -> set:
    """Every name that a source text in ``sources`` references: a bare name,
    an attribute or an imported name; a ``def`` or ``class`` is not one."""
    referenced = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    return referenced


def unreferenced_methods(package: dict, sources: list) -> list:
    """Non-dunder methods defined in ``package`` (module name to text) whose
    name no source text in ``sources`` references, as (module, class, name)."""
    referenced = referenced_names(sources)
    return sorted(
        (module, cls.name, fn.name)
        for module, source in package.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in referenced
    )


def test_method_checker_flags_a_planted_orphan():
    package = {
        "a.py": (
            "class A:\n"
            "    def __init__(self): self.used()\n"
            "    def used(self): pass\n"
            "    def orphan(self): pass\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "    @classmethod\n"
            "    def build(cls): return cls()\n"
        ),
    }
    tests = "from a import A\nA.build().size\n"
    assert unreferenced_methods(package, [*package.values(), tests]) == [("a.py", "A", "orphan")]


def readme_python_blocks() -> list:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def caller_sources() -> list:
    """What the product runs, apart from the tests: the package modules but
    ``__init__``, the demos, perfbench's scripts and the README's python blocks."""
    files = [PACKAGE / m for m in MODULES]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [p.read_text(encoding="utf-8") for p in files] + readme_python_blocks()


# Methods that a standard-library base class calls by name.
BASE_CLASS_HOOKS = [("cli.py", "_Parser", "error")]


def test_every_method_is_referenced():
    # A method whose only callers are tests fails here, as a public name does below.
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_methods(package, caller_sources()) == BASE_CLASS_HOOKS


# Public names that only the tests call, with the reason each stays public.
TEST_ONLY_PUBLIC = {
    "valuation_walk": "the exact walk that the max-plus sequence is checked against",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    import qhofer

    referenced = referenced_names(caller_sources())
    assert [n for n in qhofer.__all__ if n not in referenced] == sorted(TEST_ONLY_PUBLIC)


def third_party_imports(source: str) -> list:
    """Absolute imports anywhere in ``source``, function-local ones included,
    of modules outside the standard library, as (line, module)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        stdlib = sys.stdlib_module_names
        found += [(node.lineno, n) for n in names if n.partition(".")[0] not in stdlib]
    return sorted(found)


def test_import_checker_flags_third_party_modules():
    source = (
        "from __future__ import annotations\n"
        "import json, scipy.linalg\n"
        "from . import novikov\n"
        "from .novikov import _frac\n"
        "from fractions import Fraction\n"
        "def f():\n"
        "    import pandas as pd\n"
        "    from sympy import Rational\n"
    )
    assert third_party_imports(source) == [(2, "scipy.linalg"), (7, "pandas"), (8, "sympy")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_standard_library_only(module):
    assert third_party_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def package_imports(source: str, module_level: bool = False) -> list:
    """Package modules that ``source`` imports, relatively or by absolute name,
    as (line, module); only the top-level statements when ``module_level``."""
    tree = ast.parse(source)
    found = []
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # The package is flat, so a relative import has level 1.
            module = f"qhofer.{node.module or ''}".rstrip(".") if node.level else node.module
            names = [f"qhofer.{a.name}" for a in node.names] if module == "qhofer" else [module]
        else:
            continue
        found += [(node.lineno, n.partition(".")[2]) for n in names if n.startswith("qhofer.")]
    return sorted(found)


def test_package_import_checker():
    source = (
        "import json, qhofer.cli\n"
        "from . import novikov\n"
        "from .novikov import _frac\n"
        "from qhofer import seidel_bounds\n"
        "from qhofer.quantum_homology import power\n"
        "def f():\n"
        "    from .hofer_lengths import SampledPath\n"
    )
    top = [(1, "cli"), (2, "novikov"), (3, "novikov"), (4, "seidel_bounds"), (5, "quantum_homology")]
    assert package_imports(source, module_level=True) == top
    assert package_imports(source) == [*top, (7, "hofer_lengths")]


def test_float_module_imports_only_novikov():
    source = (PACKAGE / "hofer_lengths.py").read_text(encoding="utf-8")
    assert {name for _, name in package_imports(source)} == {"novikov"}


def test_cli_module_level_imports_only_novikov():
    # Each subcommand imports its own stack when it runs.
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert {name for _, name in package_imports(source, module_level=True)} == {"novikov"}


def stray_exceptions(modules) -> list:
    """Exception classes that ``modules`` define and that derive from neither
    ``ParseError`` (exit 1) nor ``CheckError`` (exit 2), as (module, name)."""
    from qhofer.novikov import CheckError, ParseError

    return sorted(
        (module.__name__, name)
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
        and not issubclass(obj, (ParseError, CheckError))
    )


def test_exception_checker_flags_a_planted_class():
    planted = types.ModuleType("planted")
    exec(
        "from qhofer.novikov import CheckError, ParseError\n"
        "class Failed(CheckError): pass\n"
        "class Unreadable(ParseError): pass\n"
        "class Stray(Exception): pass\n"
        "class Plain: pass\n",
        planted.__dict__,
    )
    assert stray_exceptions([planted]) == [("planted", "Stray")]


def test_every_exception_has_an_exit_code():
    # Anything else would reach main's ValueError/OSError clause, or no clause.
    modules = [importlib.import_module(f"qhofer.{name[:-3]}") for name in MODULES]
    assert stray_exceptions(modules) == []


def test_public_value_types_are_tuples():
    """Every public class but the errors, the model and the element is an
    immutable tuple: a NamedTuple, or a subclass of one that checks its fields."""
    import qhofer

    classes = [getattr(qhofer, name) for name in qhofer.__all__]
    others = [cls.__name__ for cls in classes if isinstance(cls, type)
              and not issubclass(cls, (tuple, BaseException))]
    assert others == ["ManifoldModel", "QHElement"]


def test_readme_tour_runs():
    """The tour's first two python blocks run as written, in one namespace;
    the third reads a CSV file that the README does not ship."""
    namespace: dict = {}
    for block in readme_python_blocks()[:2]:
        exec(block, namespace)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo):
    assert run_demo(demo) == demo_golden(demo).read_text(encoding="utf-8")


def test_a_test_past_the_time_limit_fails_and_the_run_goes_on(tmp_path):
    # The suite's conftest, loaded by a throwaway suite with a 0.2 s limit.
    conftest = str(ROOT / "tests" / "conftest.py")
    (tmp_path / "conftest.py").write_text(
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('limit', {conftest!r})\n"
        "limit = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(limit)\n"
        "limit.TEST_TIME_LIMIT_S = 0.2\n"
        "pytest_runtest_call = limit.pytest_runtest_call\n"
    )
    (tmp_path / "test_spin.py").write_text(
        "def test_spin():\n    while True:\n        pass\n\n\ndef test_next():\n    pass\n"
    )
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert "test_spin - TimeoutError: test ran past its 0.2 s limit" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
