"""The library calls that the benchmark workloads make still work.

Builds round 0 of every workload in ``benchmark/workloads.py`` with seed
7, runs each operation and checks it the way the benchmark does, so a
change of signature or result shape that would break the benchmark fails
here, in seconds. A traced pass over the workload's traced rounds checks
that its spans still reach every layer the benchmark requires. The
benchmark's files are imported, never written: bytecode caching is off
while they load.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def import_benchmark():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(ROOT / "benchmark"))
        yield importlib.import_module


@pytest.fixture(scope="module")
def workloads(import_benchmark):
    return import_benchmark("workloads").WORKLOADS


@pytest.mark.parametrize("name", ["coalition", "dual-face", "cli"])
def test_round_zero_runs_and_checks_clean(workloads, name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = workloads[name]
    (items,) = workload.setup(7, tmp_path, 1)
    assert items
    for item in items:
        records, problems = workload.check(item, workload.run(item))
        assert records and problems == [], (name, problems)


@pytest.mark.parametrize("name", ["coalition", "dual-face", "cli"])
def test_traced_rounds_reach_every_required_layer(import_benchmark, name, tmp_path,
                                                  monkeypatch):
    # Every traced round, as `run.py --trace 1` covers them: round 0 alone
    # may miss a layer (dual-face at seed 7 draws uniform_b capacity 1
    # there, so it never reaches games.restrict).
    run, tracing = import_benchmark("run"), import_benchmark("tracing")
    monkeypatch.chdir(ROOT)
    workload = run.WORKLOADS[name]
    tally, tracer = run.Tally(), tracing.Tracer()
    rounds = workload.setup(7, tmp_path, workload.TRACE_ROUNDS)
    tracer.install()
    try:
        for items in rounds:
            run.run_round(workload, items, run.find_caches(), tally, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.problems
    metrics = tracing.layer_metrics(tracer, tally.cache)
    missing = [layer for layer in workload.REQUIRED_LAYERS
               if not metrics[f"{layer}.calls"][0]]
    assert missing == []


def _three_by_three():
    """A 3 + 3 b_matching game with capacities above one, the shape of a
    coalition-workload game that scans coalition rows."""
    from matchcore.games import GameKind, make_instance

    return make_instance(GameKind.B_MATCHING, ["a1", "a2", "a3"], ["b1", "b2", "b3"],
                         [("a1", "b1", 5), ("a1", "b2", 3), ("a2", "b2", 4),
                          ("a3", "b3", 2), ("a2", "b1", 3), ("a3", "b2", 1)],
                         capacities={"a1": 2, "a2": 1, "a3": 3, "b1": 1, "b2": 2, "b3": 1})


def test_core_scans_read_the_closed_coalitions_alone():
    # Of the game's 62 proper coalitions, 26 are closed: every member has
    # a neighbour inside. They are the core's rows that each membership
    # scan reads, and all 26 demand more than 0, so they are the candidate
    # rows of row generation too. A member on no inner edge adds no row.
    from matchcore import analysis

    g = _three_by_three()
    assert sum(1 for _ in analysis._coalition_demands(g)) == 26
    assert len(analysis._CoalitionCuts(g).table) == 26


def test_clearing_the_found_caches_makes_every_operation_cold(import_benchmark):
    # The benchmark clears every lru_cache of the matchcore modules before
    # each operation and counts what follows as a cold start. Per-instance
    # state kept anywhere else would survive and make the second run
    # cheaper, so two cold runs on the same game object must search the
    # same number of games.
    from matchcore import analysis, oracle

    run = import_benchmark("run")
    g = _three_by_three()
    caches = run.find_caches()
    assert oracle._enumerate_optimal in caches
    misses = []
    for _ in range(2):
        for cache in caches:
            cache.cache_clear()
        nonempty, witness = analysis.core_nonempty(g)
        assert nonempty and analysis.is_core_imputation(g, witness).in_core
        misses.append(oracle._enumerate_optimal.cache_info().misses)
    assert misses[0] == misses[1] > 1
