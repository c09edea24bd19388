"""matchcore benchmark: one closed-loop client driving the library in-process.

    python3 benchmark/run.py --workload coalition --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports ``matchcore`` from ``src/``
and writes its instance files and span logs under ``.benchwork/``.

With ``--trace 0`` the run measures as many whole rounds of the workload
as fit in ``--seconds`` at the workload's nominal round time, in one or
more passes, and reports the end-to-end metrics. Each operation starts
cold, as a fresh CLI process would: every ``functools.lru_cache`` found
on a ``matchcore`` module is cleared first. Reported times are scaled by
the machine's speed at that moment (see ``reference_scale``); the
unscaled figures are printed too. Answers are checked after the clock
stops, and an operation that raises or fails a check counts as failed.

With ``--trace 1`` the run covers a fixed number of rounds, each once
plain and once with spans around every public function of the layer
modules, and reports the per-layer metrics, which repeat exactly for a
seed, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS

SETUP_REPEATS = 9
# Time the reference work is scaled to; see reference_scale().
REFERENCE_S = 0.001
WORKDIR = Path(".benchwork")
P90_MIN_OPS = 100


def _reference_work() -> None:
    row = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(40)]
    pivot = [Fraction(i % 3 + 1, i % 4 + 1) for i in range(40)]
    for _ in range(12):
        factor = row[3] / pivot[3]
        row = [a - factor * b for a, b in zip(row, pivot)]


def reference_scale() -> float:
    """REFERENCE_S over the fastest of three timings of fixed reference work.

    On a shared machine other tenants slow everything, at times by more
    than twofold for tens of seconds, and at a level that drifts from
    minute to minute. Every time the benchmark reports is multiplied by this
    factor, taken just before the timed work: exact-rational row
    elimination in plain Python, which matchcore's code cannot change,
    so a slowdown of the machine cancels and one of matchcore does not.
    On a quiet machine the work takes about 1.2 ms, so scaled times are
    close to raw ones.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_S / best


class Tally:
    """What one sequence of operations did: latencies (raw and scaled by
    reference_scale()), failures, cache use."""

    def __init__(self):
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[str] = []
        self.cache: dict[str, list[int]] = {}

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def find_caches() -> list:
    """Every lru_cache bound to an attribute of a matchcore module."""
    found = {}
    for mod in tracing.matchcore_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_info", None)) and \
                    callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def run_round(workload, items, caches, tally: Tally, tracer=None, digest=False) -> None:
    for item in items:
        for cache in caches:
            cache.cache_clear()
        scale = reference_scale()
        if tracer is not None:
            tracer.on = True
            tracer.op += 1
        start = time.perf_counter()
        try:
            result, error = workload.run(item), None
        except Exception as exc:      # a raising operation is a failed one
            result, error = None, exc
        elapsed = time.perf_counter() - start
        tally.raw.append(elapsed)
        tally.latencies.append(elapsed * scale)
        if tracer is not None:
            tracer.on = False
        for cache in caches:
            info = cache.cache_info()
            counts = tally.cache.setdefault(cache.__module__.rpartition(".")[2], [0, 0])
            counts[0] += info.hits
            counts[1] += info.misses
        if error is None:
            try:
                records, problems = workload.check(item, result)
            except Exception as exc:  # a wrong-shaped answer is a failed one
                records, problems = [], [f"check raised {exc!r}"]
        else:
            records, problems = [], [f"raised {error!r}"]
        if problems:
            tally.failed += 1
            tally.problems += problems
        if digest:
            tally.records += records or [f"failed {problems}"]


def round_count(workload, seconds: float, trace: bool) -> int:
    """Rounds in one run: fixed by ``--seconds`` and the workload's nominal
    round time, not by the clock, so every run of a seed (on any commit)
    measures the same instances."""
    if trace:
        return workload.TRACE_ROUNDS
    return max(1, round(seconds / (workload.PASSES * workload.ROUND_S)))


def set_up(workload, seed: int, count: int):
    """Import matchcore afresh and build the run's rounds; returns them,
    the caches and the median set-up time over the repeats."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "matchcore" or n.startswith("matchcore.")]:
            del sys.modules[name]
        scale = reference_scale()
        start = time.perf_counter()
        importlib.import_module("matchcore")
        rounds = workload.setup(seed, WORKDIR / f"{workload.name}-{seed}", count)
        times.append((time.perf_counter() - start) * scale)
    return rounds, find_caches(), statistics.median(times)


def measure(workload, rounds, caches) -> Tally:
    """Run every round ``workload.PASSES`` times over."""
    tally = Tally()
    for index, items in enumerate(rounds):
        run_round(workload, items, caches, tally, digest=index == 0)
    for _ in range(workload.PASSES - 1):
        for items in rounds:
            run_round(workload, items, caches, tally)
    return tally


def fastest(times: list[float], passes: int) -> list[float]:
    """Each instance's fastest time over the passes."""
    width = len(times) // passes
    return [min(times[i::width]) for i in range(width)]


def measure_traced(workload, rounds, caches, seed: int):
    """Run each round plain, then traced; returns both tallies and the
    per-layer metrics with the tracing overhead."""
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    for index, items in enumerate(rounds):
        run_round(workload, items, caches, plain, digest=index == 0)
        tracer.install()
        try:
            run_round(workload, items, caches, traced, tracer=tracer)
        finally:
            tracer.uninstall()
    tracer.write(WORKDIR / f"spans-{workload.name}-{seed}.jsonl")
    metrics = tracing.layer_metrics(tracer, traced.cache)
    plain_rate = len(plain.latencies) / plain.busy_s
    traced_rate = len(traced.latencies) / traced.busy_s
    metrics["trace.untraced_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100 * (plain_rate - traced_rate) / plain_rate, "%")
    return plain, traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src", "matchcore", "__init__.py").is_file():
        print("error: run from the repository root; src/matchcore is missing",
              file=sys.stderr)
        return 2
    if "src" not in sys.path:
        sys.path.insert(0, "src")
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    count = round_count(workload, args.seconds, bool(args.trace))
    rounds, caches, setup_s = set_up(workload, args.seed, count)

    if args.trace:
        plain, traced, metrics = measure_traced(workload, rounds, caches, args.seed)
        missing = [layer for layer in workload.REQUIRED_LAYERS
                   if not metrics.get(f"{layer}.calls", (0,))[0]]
        if missing:
            print(f"error: traced run recorded no calls into {', '.join(missing)}; "
                  "the wrappers no longer reach these layers", file=sys.stderr)
            return 3
        tallies = (plain, traced)
    else:
        tally = measure(workload, rounds, caches)
        best = fastest(tally.latencies, workload.PASSES)
        raw = fastest(tally.raw, workload.PASSES)
        metrics = {
            "throughput_per_s": (len(best) / sum(best), "1/s"),
            "latency_p50_ms": (1000 * statistics.median(best), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        tallies = (tally,)

    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    digest = hashlib.sha256("\n".join(tallies[0].records).encode()).hexdigest()
    print(f"workload {workload.name}  seed {args.seed}  operations {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':28s} {failed / attempted:14.6g} ratio")
        # Over every operation, not each instance's fastest, and only where
        # at least ten operations lie beyond it.
        if len(tally.latencies) >= P90_MIN_OPS:
            p90 = statistics.quantiles(tally.latencies, n=10)[-1]
            print(f"  {'latency_p90_ms':28s} {1000 * p90:14.6g} ms")
        print(f"  unscaled: throughput_per_s {len(raw) / sum(raw):.6g} 1/s, "
              f"latency_p50_ms {1000 * statistics.median(raw):.6g} ms")
    if args.trace:
        print("  (lp.solve.cells is computed: the sum of rows x variables of each LP passed in)")
    print(f"digest {digest}")
    for problem in [p for t in tallies for p in t.problems][:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
