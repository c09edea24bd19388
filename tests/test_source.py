"""Source hygiene, read with the standard library's ``ast``: no module of
the package imports a name that it never uses. ``__init__.py`` is left
out, because its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "matchcore"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(text: str) -> list[str]:
    """The names that ``text``'s imports bind and that no other line reads,
    each as ``<line>: <name>``. Annotations count as reads; a quoted one
    does not, since the package writes none."""
    tree = ast.parse(text)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda b: b[1])
            if name not in used]


def test_the_check_sees_an_unused_import():
    text = ("from __future__ import annotations\n"
            "import os, sys as system\n"
            "from .lp import eliminate, solve\n"
            "def f(x: os.PathLike) -> None:\n"
            "    return solve(x)\n")
    assert unused_imports(text) == ["2: system", "3: eliminate"]
    assert MODULES, SOURCE


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
