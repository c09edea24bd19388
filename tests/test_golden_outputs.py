"""Byte-for-byte CLI and demo outputs on the demo instances.

Every subcommand that accepts a demo file's kind is run in-process
through ``cli.main`` on each ``demos/instances/*.game``, in both output
formats, together with ``reproduce-paper``. Its stdout and exit code must
match the file under ``tests/golden/``, so a refactor that changes any
printed fact, its order or its formatting fails here. ``core-check`` is
also run on each demo file with one imputation line appended that pays
the worth to the first agent, so its verdicts and witnesses are pinned
(``<file>.core-check-paid.<format>.out``). Each ``demos/*.py`` script is
run in-process too, and its stdout must match
``tests/golden/demo.<script>.out``. The demo instances must be the
packaged ones that ``reproduce-paper`` reads, file for file and byte for
byte.

To rewrite the golden files after a change that is meant to alter the
output, run ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import io
import runpy
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

import pytest

from matchcore.cli import main
from matchcore.instance_io import parse_instance
from matchcore.oracle import max_weight
from matchcore.rationals import format_rational

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
INSTANCES = DEMOS / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("records", "text")

# Subcommands that take an instance file, with the kinds they accept
# (None: every kind) and any extra arguments. The demo files carry no
# imputation line, so core-check pins the input-error exit code here;
# ``paid_cases`` pins its verdicts.
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


def paid_cases():
    """(golden file name, demo file, format) for core-check on every demo
    file with an imputation line that pays the worth to the first agent."""
    return [(f"{path.stem}.core-check-paid.{fmt}.out", path, fmt)
            for path in sorted(INSTANCES.glob("*.game")) for fmt in FORMATS]


def demo_cases():
    """(golden file name, script path) for every demo script."""
    return [(f"demo.{path.stem}.out", path) for path in sorted(DEMOS.glob("*.py"))]


def render(argv) -> str:
    """The exit code line, then stdout exactly as printed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n" + stdout.getvalue()


def render_paid(path: Path, fmt: str, directory: Path) -> str:
    """core-check on a copy of the demo file, written to ``directory``,
    whose imputation line pays the worth to the first agent."""
    text = path.read_text(encoding="utf-8")
    instance = parse_instance(text)
    worth = max_weight(instance)[0]
    paid = directory / path.name
    paid.write_text(f"{text}imputation {instance.agents[0]}={format_rational(worth)}\n",
                    encoding="utf-8")
    return render(["core-check", str(paid), "--format", fmt])


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


@pytest.mark.parametrize("name, path, fmt", paid_cases(),
                         ids=[name for name, _, _ in paid_cases()])
def test_core_check_with_an_imputation_matches_golden(name, path, fmt, tmp_path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert render_paid(path, fmt, tmp_path) == expected


@pytest.mark.parametrize("name, path", demo_cases(), ids=[name for name, _ in demo_cases()])
def test_demo_output_matches_golden(name, path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_demo(path) == expected


def test_demo_instances_are_the_packaged_instances():
    # The goldens and the benchmark read the demo copy; the fixtures, and
    # so reproduce-paper, read the packaged one. The repository keeps
    # demos/instances as a symlink to the packaged directory; a checkout
    # that turns it into a copy, or into a file holding the link's
    # target, fails here.
    packaged = files("matchcore") / "instances"
    demo = {p.name: p.read_bytes() for p in INSTANCES.glob("*.game")}
    assert demo
    assert demo == {p.name: p.read_bytes() for p in packaged.iterdir()
                    if p.name.endswith(".game")}


def test_every_golden_file_is_checked():
    names = ([n for n, _ in cases()] + [n for n, _, _ in paid_cases()]
             + [n for n, _ in demo_cases()])
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(names)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for name, argv in cases():
        (GOLDEN / name).write_text(render(argv), encoding="utf-8")
    with tempfile.TemporaryDirectory() as directory:
        for name, path, fmt in paid_cases():
            (GOLDEN / name).write_text(render_paid(path, fmt, Path(directory)),
                                       encoding="utf-8")
    for name, path in demo_cases():
        (GOLDEN / name).write_text(run_demo(path), encoding="utf-8")
    sys.exit(0)
