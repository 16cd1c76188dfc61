"""Every name a ``primerec`` module imports is used there.

A stdlib stand-in for a linter's unused-import rule: each module under
``src/primerec`` is parsed with ``ast``, and an imported name must be
referenced somewhere in the module or listed in its ``__all__`` (which
covers the package's re-exports in ``__init__.py``).
"""

import ast
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


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "mpnum.py", "recursion.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_catches_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""Doc."""\n\nimport math\nfrom fractions import Fraction\n\nx = math.pi\n')
    assert unused_imports(mod) == ["mod.py:4 Fraction"]
