"""The library calls that the benchmark workloads make still work.

Builds round 0 of every workload in ``benchmark/workloads.py`` with seed
7, runs each operation and checks it the way the benchmark does, so a
change of signature or result shape that would break the benchmark fails
here, in seconds. The benchmark's files are imported, never written:
bytecode caching is off while they load.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(ROOT / "benchmark"))
        yield importlib.import_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", ["coalition", "dual-face", "cli"])
def test_round_zero_runs_and_checks_clean(workloads, name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = workloads[name]
    (items,) = workload.setup(7, tmp_path, 1)
    assert items
    for item in items:
        records, problems = workload.check(item, workload.run(item))
        assert records and problems == [], (name, problems)
