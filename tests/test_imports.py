"""Every name a ``plverify`` module imports is used in that module.

No linter runs on this repository, and a deletion easily leaves an import
behind. ``__init__.py`` is exempt: its imports are the package's re-exports.
A name counts as used when it appears as a name or as the root of an
attribute chain anywhere in the module outside its import statements,
string annotations included (``from __future__ import annotations`` keeps
every annotation a string until it is read).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "plverify"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """The local name each import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "_SimplexState" or "np.ndarray"
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return used


def test_the_check_sees_a_leftover_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx: 'tau' = pi\n")
    assert set(_imported(tree)) - _used(tree) == {"os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
