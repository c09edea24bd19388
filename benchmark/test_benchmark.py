"""Smoke tests for the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py

They run from the repository root, one round per workload, and take
about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_wrong_answer_is_counted_as_failed(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    workload = WORKLOADS["dual-face"]
    honest = workload.run
    corrupted = []

    def wrong_first_extreme(game):
        out = honest(game)
        if "in_image" in out and not corrupted:
            out["in_image"] = [False] + out["in_image"][1:]
            corrupted.append(game)
        return out

    monkeypatch.setattr(workload, "run", wrong_first_extreme)
    assert run.main(["--workload", "dual-face", "--seed", "7", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    result = _result(out)
    assert corrupted
    assert result["correct"] is False
    assert result["failed"] == 1
    ratio = next(line.split()[1] for line in out.splitlines()
                 if line.strip().startswith("failed_ratio"))
    assert float(ratio) == pytest.approx(1 / result["attempted"], rel=1e-5)
    assert "FAILED an extreme imputation is outside D(I)" in out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digest_does_not_depend_on_hash_seed(workload):
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = _bench("--workload", workload, "--seed", "5", "--seconds", "0", env=env)
        assert done.returncode == 0, done.stderr
        assert _result(done.stdout)["failed"] == 0
        digests += [line for line in done.stdout.splitlines() if line.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_traced_run_fails_when_a_required_layer_is_silent(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    workload = WORKLOADS["dual-face"]
    monkeypatch.setattr(workload, "TRACE_ROUNDS", 1)
    monkeypatch.setattr(workload, "REQUIRED_LAYERS",
                        workload.REQUIRED_LAYERS + ("instance_io.parse",))
    assert run.main(["--workload", "dual-face", "--seed", "7", "--seconds", "0",
                     "--trace", "1"]) == 3
    captured = capsys.readouterr()
    assert "instance_io.parse" in captured.err
    assert '"correct"' not in captured.out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
