"""Source hygiene, read with the standard library's ``ast``: no module of
the package imports a name that it never uses, and none reads another
module's private name. ``__init__.py`` is left out, because its imports
are the package's re-exports. Every private name is read somewhere, and
every name that a docstring or comment quotes, or that README.md quotes
as a dotted name, is defined somewhere. README.md quotes no private name."""

import ast
import builtins
import io
import re
import tokenize
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


def private_reads(text: str) -> list[str]:
    """The private names that ``text`` takes from a sibling module, either
    imported (``from .lp import _Tableau``) or read off a module imported
    whole (``analysis._session`` after ``from . import analysis``), each
    as ``<line>: <name>``."""
    tree = ast.parse(text)
    siblings: set[str] = set()
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_check_sees_a_private_read():
    text = ("from . import analysis as a, fixtures\n"
            "from .lp import _Tableau, solve\n"
            "def f(g, lp):\n"
            "    return a._session(g), fixtures.FIXTURES, lp._rows, solve(lp)\n")
    assert private_reads(text) == ["2: _Tableau", "4: a._session"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_another_modules_private_name(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def unread_privates(texts: dict[str, str]) -> list[str]:
    """The private names that the modules ``texts`` (file name -> source)
    define, at module level or as a method of a module-level class, and
    that no module reads, each as ``<file>:<line>: <name>``. A read is a
    name or an attribute loaded anywhere, so a method counts as read when
    any object's attribute of its name is; a dunder name is not private."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    defined: list[tuple[str, int, str, str]] = []
    read: set[str] = set()
    for file, text in texts.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((file, node.lineno, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(file, item.lineno, item.name, f"{node.name}.{item.name}")
                            for item in node.body if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(file, name.lineno, name.id, name.id)
                            for target in targets for name in ast.walk(target)
                            if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{file}:{line}: {shown}" for file, line, name, shown in defined
            if private(name) and name not in read]


def test_the_check_sees_an_unread_private_name():
    texts = {"a.py": ("_LIMIT = 3\n"
                      "_SPARE, shown = 1, 2\n"
                      "def _helper():\n"
                      "    return _LIMIT\n"
                      "def _orphan():\n"
                      "    return _helper()\n"
                      "class _Box:\n"
                      "    def __init__(self):\n"
                      "        self._rows = []\n"
                      "    def _left(self):\n"
                      "        return self._rows\n"
                      "    def _used(self):\n"
                      "        return 1\n"),
             "b.py": "def f(box):\n    return box._used()\n"}
    assert unread_privates(texts) == ["a.py:2: _SPARE", "a.py:5: _orphan",
                                      "a.py:7: _Box", "a.py:10: _Box._left"]


def test_every_private_name_is_read_by_some_module():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SOURCE.glob("*.py"))}
    assert unread_privates(texts) == []


NAMED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def defined_names(texts: dict[str, str]) -> set[str]:
    """What the modules ``texts`` (file name -> source) define: a module
    (a file of ``texts``), a function, class, method or parameter, a name
    or an attribute assigned anywhere, a module or name that an import
    binds, one of the modules' string constants (the words of a file
    format) or a builtin."""
    defined = set(dir(builtins))
    for file, text in texts.items():
        defined.add(Path(file).stem)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update((getattr(node, "module", None) or "").split("."))
                for alias in node.names:
                    defined.update(alias.name.split("."))
                    defined.add(alias.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                defined.add(node.value)
    return defined


def stale_doc_names(texts: dict[str, str]) -> list[str]:
    """The names and dotted names that the docstrings and comments of
    ``texts`` (file name -> source) quote in double backticks and that
    name nothing the modules define, each as ``<file>:<line>: <name>``.
    Each part of a dotted name must be in ``defined_names``."""
    defined = defined_names(texts)
    notes: list[tuple[str, int, str]] = []
    for file, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc is not None:
                    first = node.body[0].lineno
                    notes += [(file, first + i, line) for i, line in enumerate(doc.splitlines())]
        notes += [(file, token.start[0], token.string)
                  for token in tokenize.generate_tokens(io.StringIO(text).readline)
                  if token.type == tokenize.COMMENT]
    return [f"{file}:{line}: {name}" for file, line, note in sorted(notes)
            for name in NAMED.findall(note)
            if not all(part in defined for part in name.split("."))]


def test_the_check_sees_a_stale_name_in_a_docstring_or_comment():
    texts = {"a.py": ('"""Reads ``b.Box``, ``fractions.Fraction`` and ``Gone``."""\n'
                      "from fractions import Fraction\n"
                      "def f(rows):\n"
                      '    """Scans ``rows`` for ``top``, a ``game`` by ``len``,\n'
                      '    not by ``_Cuts``."""\n'
                      "    # ``Box.table`` is kept; ``_Cuts.table`` is not.\n"
                      "    top = len(rows)\n"
                      '    return top, "game", Fraction(top)\n'),
             "b.py": "class Box:\n    def __init__(self):\n        self.table = []\n"}
    assert stale_doc_names(texts) == ["a.py:1: Gone", "a.py:5: _Cuts", "a.py:6: _Cuts.table"]


def test_every_name_quoted_in_a_docstring_or_comment_is_defined():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SOURCE.glob("*.py"))}
    assert stale_doc_names(texts) == []


DOTTED = re.compile(r"(?<!`)`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`(?!`)")


def stale_readme_names(readme: str, texts: dict[str, str]) -> list[str]:
    """The dotted names that ``readme`` quotes in single backticks and
    that name nothing the modules ``texts`` define (``defined_names``),
    each as ``<line>: <name>``. A file name ending in ``.py`` is skipped,
    and a leading ``matchcore.`` is dropped, so ``matchcore.lp`` names the
    module ``lp``."""
    defined = defined_names(texts)
    out = []
    for number, line in enumerate(readme.splitlines(), 1):
        for name in DOTTED.findall(line):
            parts = name.removeprefix("matchcore.").split(".")
            if not name.endswith(".py") and not all(part in defined for part in parts):
                out.append(f"{number}: {name}")
    return out


def test_the_check_sees_a_stale_dotted_name_in_the_readme():
    texts = {"lp.py": "class OptimalFace:\n    def range(self):\n        return 1\n",
             "analysis.py": "def _session():\n    return 2\n"}
    readme = ("The engine (`matchcore.lp`) answers `OptimalFace.range`, cached in\n"
              "`analysis._session`; see `demo.py`, ``kept.py`` and `x`.\n"
              "Gone: `analysis._CoalitionCuts` and `matchcore.solver`.\n")
    assert stale_readme_names(readme, texts) == ["3: analysis._CoalitionCuts",
                                                 "3: matchcore.solver"]


def test_every_dotted_name_quoted_in_the_readme_is_defined():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SOURCE.glob("*.py"))}
    readme = (SOURCE.parent.parent / "README.md").read_text(encoding="utf-8")
    assert DOTTED.findall(readme)
    assert stale_readme_names(readme, texts) == []


QUOTED = re.compile(r"(?<!`)`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`(?!`)")


def private_readme_names(readme: str) -> list[str]:
    """The names and dotted names that ``readme`` quotes in single
    backticks with a part that starts with an underscore, each as
    ``<line>: <name>``; a file name ending in ``.py`` and a lone ``_`` are
    skipped. README describes behaviour, and the docstrings name the code
    behind it."""
    return [f"{number}: {name}" for number, line in enumerate(readme.splitlines(), 1)
            for name in QUOTED.findall(line) if not name.endswith(".py")
            and any(part.startswith("_") and part != "_" for part in name.split("."))]


def test_the_check_sees_a_private_name_in_the_readme():
    readme = ("The engine (`matchcore.lp`) answers `OptimalFace.range`; see\n"
              "`__init__.py`, ``_kept``, `_` and `x_y`. Cached in `analysis._session`\n"
              "by `_Session`, cut by `_Session.cut`.\n")
    assert private_readme_names(readme) == ["2: analysis._session", "3: _Session",
                                            "3: _Session.cut"]


def test_the_readme_quotes_no_private_name():
    readme = (SOURCE.parent.parent / "README.md").read_text(encoding="utf-8")
    assert QUOTED.findall(readme)
    assert private_readme_names(readme) == []
