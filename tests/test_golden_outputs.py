"""Byte-for-byte CLI and demo outputs on the demo instances.

Every subcommand that accepts a demo file's kind is run in-process
through ``cli.main`` on each ``demos/instances/*.game``, in both output
formats, together with ``reproduce-paper``. Its stdout and exit code must
match the file under ``tests/golden/``, so a refactor that changes any
printed fact, its order or its formatting fails here. Each
``demos/*.py`` script is run in-process too, and its stdout must match
``tests/golden/demo.<script>.out``.

To rewrite the golden files after a change that is meant to alter the
output, run ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from matchcore.cli import main
from matchcore.instance_io import parse_instance

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
INSTANCES = DEMOS / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("records", "text")

# Subcommands that take an instance file, with the kinds they accept
# (None: every kind) and any extra arguments. The demo files carry no
# imputation line, so core-check pins the input-error exit code.
_FILE_COMMANDS = (
    ("solve", None, ()),
    ("classify", None, ()),
    ("core-check", None, ()),
    ("tum-check", None, ()),
    ("extremes", ("assignment", "uniform_b"), ("--samples", "20", "--seed", "1")),
    ("concurrency", ("general",), ()),
    ("surplus", ("hoffman_kruskal",), ()),
)


def cases():
    """(golden file name, argv) for every covered call, in a fixed order."""
    out = []
    for fmt in FORMATS:
        out.append((f"reproduce-paper.{fmt}.out",
                    ["reproduce-paper", "--format", fmt]))
    for path in sorted(INSTANCES.glob("*.game")):
        kind = parse_instance(path.read_text(encoding="utf-8")).kind.value
        for command, kinds, extra in _FILE_COMMANDS:
            if kinds is not None and kind not in kinds:
                continue
            for fmt in FORMATS:
                out.append((f"{path.stem}.{command}.{fmt}.out",
                            [command, str(path), "--format", fmt, *extra]))
    return out


def demo_cases():
    """(golden file name, script path) for every demo script."""
    return [(f"demo.{path.stem}.out", path) for path in sorted(DEMOS.glob("*.py"))]


def render(argv) -> str:
    """The exit code line, then stdout exactly as printed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n" + stdout.getvalue()


def run_demo(path: Path) -> str:
    """Stdout of the demo script, run as ``python3 demos/<script>.py`` would."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(path), run_name="__main__")
    return stdout.getvalue()


@pytest.mark.parametrize("name, argv", cases(), ids=[name for name, _ in cases()])
def test_cli_output_matches_golden(name, argv):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert render(argv) == expected


@pytest.mark.parametrize("name, path", demo_cases(), ids=[name for name, _ in demo_cases()])
def test_demo_output_matches_golden(name, path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_demo(path) == expected


def test_every_golden_file_is_checked():
    names = [n for n, _ in cases()] + [n for n, _ in demo_cases()]
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(names)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for name, argv in cases():
        (GOLDEN / name).write_text(render(argv), encoding="utf-8")
    for name, path in demo_cases():
        (GOLDEN / name).write_text(run_demo(path), encoding="utf-8")
    sys.exit(0)
