"""Every name a ``primerec`` module imports is used there, every private
top-level name is used somewhere in the package, and every ``__all__`` entry
names an attribute of its module.

A stdlib stand-in for a linter's unused-import and dead-code rules: each
module under ``src/primerec`` is parsed with ``ast``.  An imported name must
be referenced somewhere in the module or listed in its ``__all__`` (which
covers the package's re-exports in ``__init__.py``).  A top-level ``_name``
(not a dunder) must be referenced by some module of the package, so a
helper left behind when its last caller goes fails here.  A stale
``__all__`` entry would otherwise fail only at ``from primerec.x import *``.

A fresh interpreter that imports the package and builds the CLI parser
loads none of the modules that only some commands use.

``recursion`` reads the prime table only in its entries, once in each:
everything below them takes the primes it is given.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "primerec"
MODULES = sorted(SRC.glob("*.py"))


def _all(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    """``file:line name`` for each imported name the module never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _all(tree)
    return [f"{path.name}:{line} {name}" for name, line in imported if name not in used]


def unreferenced_private_names(paths: list) -> list:
    """``file:line name`` for each private top-level name no module references."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.startswith("_") and not name.endswith("__") and name not in used
            ]
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "mpnum.py", "recursion.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_catches_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""Doc."""\n\nimport math\nfrom fractions import Fraction\n\nx = math.pi\n')
    assert unused_imports(mod) == ["mod.py:4 Fraction"]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(MODULES) == []


def test_catches_an_unreferenced_private_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text('"""Doc."""\n\n_LIMIT = 3\n_cache = {}\n\n\ndef _left_behind(x):\n    return x\n')
    b.write_text('"""Doc."""\n\nfrom .a import _LIMIT\nfrom . import a\n\ny = a._cache\n')
    assert unreferenced_private_names([a, b]) == ["a.py:7 _left_behind"]


# The entries of ``recursion`` that read the prime table: its public
# functions but the estimates, and ``_size_series``, which sizes every
# estimate, of one cell or a series, and which ``analysis`` calls too.
PRIME_READERS = {
    "required_precision", "euler_product", "residual", "scaled_residual", "_size_series",
}


def prime_table_reads(path: Path, readers: set) -> list:
    """``file:line`` for each reference to the ``primes`` module, or import
    from it, outside the functions ``readers`` and past the first in each."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in tree.body:
        reads = sorted(
            n.lineno
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id == "primes"
            or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "primes"
        )
        if isinstance(node, ast.FunctionDef) and node.name in readers:
            reads = reads[1:]
        found += [f"{path.name}:{line}" for line in reads]
    return found


def test_recursion_reads_primes_only_at_entry():
    assert prime_table_reads(SRC / "recursion.py", PRIME_READERS) == []


def test_catches_a_prime_table_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""Doc."""\n\nfrom . import primes\nfrom .primes import nth_prime\n\n\n'
        "def entry(n):\n    ps = primes.first_n_primes(n)\n    return ps, primes.nth_prime(n)\n\n\n"
        "def _inner(n):\n    return primes.nth_prime(n)\n"
    )
    assert prime_table_reads(mod, {"entry"}) == ["mod.py:4", "mod.py:9", "mod.py:13"]


def missing_exports(module) -> list:
    """The entries of ``module.__all__`` that name no attribute of it."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    name = "primerec" if path.stem == "__init__" else f"primerec.{path.stem}"
    assert missing_exports(importlib.import_module(name)) == []


def test_catches_a_stale_export():
    mod = types.ModuleType("mod")
    mod.__all__ = ["kept", "removed"]
    mod.kept = 1
    assert missing_exports(mod) == ["removed"]


# Loaded only by the commands that use them: the fan-out's old pool, the
# statistics fits, exact rationals, JSON output and the selftest suites.
# dataclasses, and the inspect it imports, by none: the records are named tuples.
NOT_AT_START_UP = (
    "dataclasses",
    "inspect",
    "concurrent.futures",
    "multiprocessing",
    "statistics",
    "fractions",
    "json",
    "primerec.selftest",
    "primerec.oracle",
)


def test_start_up_imports():
    code = (
        "import sys, primerec, primerec.cli\n"
        "primerec.cli.build_parser()\n"
        "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))\n"
    )
    path = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *NOT_AT_START_UP],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.split() == []
