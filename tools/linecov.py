"""List the statements of ``src/matchcore`` that the tier-1 suite never runs.

Runs the test suite in this process under a ``sys.settrace`` line tracer
that follows only frames whose code lives in ``src/matchcore``, then
prints one line per statement that no test executed:

    src/matchcore/<module>.py:<line>: <first line of the statement>

Statements are those ``ast`` lists, docstrings excluded, and so are
``global`` and ``nonlocal``, which compile to no instruction. A simple
statement counts as run when any of its lines ran; a compound one
(``if``, ``for``, ``def``, ``try``, ...) when a line of its header, its
decorators included, ran or the first statement of its body did. Only
the standard library is used besides pytest, and nothing is written: no
``.pytest_cache``, no bytecode. Pytest's own report goes to stderr, so
stdout holds the list alone. Extra arguments go to pytest, e.g. a test
file or ``-k``. Run from anywhere:

    python3 tools/linecov.py                 # the whole suite, about 2.5 min
    python3 tools/linecov.py tests/test_lp.py

The exit code is pytest's.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matchcore"


def statements(tree: ast.Module):
    """(first line, lines that show it ran) of each statement, in line
    order, docstrings and declarations excluded."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(id(body[0]))
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            lines = set(range(start, max(start, body[0].lineno - 1) + 1))
            lines.add(body[0].lineno)
        else:
            lines = set(range(node.lineno, node.end_lineno + 1))
        found.append((node.lineno, lines))
    return sorted(found, key=lambda s: s[0])


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` with the line tracer on; (exit code, the lines
    run in each file of the package)."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    tracers = {}

    def local_for(filename):
        lines = hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        local = tracers.get(filename)
        if local is None:
            local = tracers[filename] = local_for(filename)
        if event == "line":
            local(frame, event, arg)
        return local

    import pytest

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = trace_suite(argv)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        ran = hits.get(str(path), set())
        for line, lines in statements(ast.parse(text)):
            total += 1
            if not lines & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} statements not run", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
