"""The three benchmark workloads: what each runs, checks and digests.

Each workload generates its instances from the run's seed in rounds. A
round is a fixed list of slots (kind, size and graph shape); the seed
draws the numbers and the placement of agents in every slot, so a round
costs about the same whichever seed made it. ``ROUND_S`` is a round's
nominal time at this commit; it sets how many rounds a run of a given
length measures. A run goes over its rounds ``PASSES`` times and keeps
each instance's fastest time, which drops the moments when other load
stalled a short operation; operations of a second or more average such
stalls out themselves, so one pass over more instances serves better. One
operation is one call to ``run``; ``check`` runs after the clock stops.
``check`` returns digest records, which hold only verdicts and worths
that no choice of LP vertex can change, and a list of problems, each of
which counts the operation as failed.
"""

from __future__ import annotations

import importlib
import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import seeded


def _load_api():
    mc = importlib.import_module("matchcore")
    return mc, mc.GameKind


def _fmt(value) -> str:
    return "-" if value is None else str(value)


class Coalition:
    """Exact core emptiness and membership over the 2^n coalition sweep.

    Why: ``core_nonempty`` writes one dense LP row per coalition that can
    earn anything (over 200 rows at 8 agents) and ``is_core_imputation``
    then re-reads every coalition worth, so this workload is where the
    coalition LP and the oracle's memoised worths dominate. Row
    generation should move it and little else.

    Size limits: 6 to 8 agents and at most 12 edges. One round holds one
    8-agent graph and twelve games of 6 or 7 agents, so the median
    operation sits among the mid-sized games; a 25 s run measures four
    rounds in one pass. The 8-agent graph takes about 2 s today and its
    cost varies most with its weights, so more of them per round would
    make a run's throughput depend on its seed. Instances at 10 to 12 vertices take 10 to 130 s
    each today, so they would allow at most one operation per run; they
    join this workload once ``core_nonempty`` is fast enough to run there
    many times per check.
    """

    name = "coalition"
    SLOTS = (("general", 6, 0, 9), ("general", 7, 0, 10), ("assignment", 3, 4, 8),
             ("b_matching", 3, 4, 8), ("general", 7, 0, 12), ("hoffman_kruskal", 3, 4, 8),
             ("general", 8, 0, 10),
             ("general", 6, 0, 10), ("general", 7, 0, 11), ("assignment", 4, 3, 8),
             ("b_matching", 4, 3, 8), ("general", 7, 0, 9), ("hoffman_kruskal", 4, 3, 8))
    ROUND_S = 6.0
    PASSES = 1
    TRACE_ROUNDS = 1
    MAX_WEIGHT = 9
    REQUIRED_LAYERS = ("lp.solve", "oracle", "formulations.build",
                       "games.restrict", "analysis")

    def setup(self, seed: int, workdir: Path, count: int) -> list[list]:
        self.mc, self.kinds = _load_api()
        return [[_slot_instance(seed, self.name, r, i, slot, self.MAX_WEIGHT)
                 for i, slot in enumerate(self.SLOTS)] for r in range(count)]

    def run(self, game):
        nonempty, witness = self.mc.core_nonempty(game)
        verdict = self.mc.is_core_imputation(game, witness) if nonempty else None
        return nonempty, witness, verdict

    def check(self, game, result):
        mc, kinds = self.mc, self.kinds
        nonempty, _, verdict = result
        problems = []
        if nonempty and not verdict.in_core:
            problems.append("core_nonempty witness is not in the core")
        if game.kind is kinds.GENERAL:
            concurrent = mc.check_concurrency(game).concurrent
            if concurrent != nonempty:
                problems.append(f"core_nonempty={nonempty} but concurrent={concurrent}")
        elif game.kind is not kinds.HOFFMAN_KRUSKAL and not nonempty:
            problems.append("bipartite game without edge bounds reported an empty core")
        worth = mc.max_weight(game)[0]
        # The bounded-edge verdict depends on which optimal dual the pivot
        # rule reaches, so it stays out of the digest.
        shown = "-" if game.kind is kinds.HOFFMAN_KRUSKAL else nonempty
        return [f"{game.kind.value} n={len(game.agents)} worth={worth} core={shown}"], problems


class DualFace:
    """Queries over the optimal dual face of small, tie-heavy bipartite games.

    Why: complementarity, payoff ranges, extreme imputations and D(I)
    membership each re-solve a small LP over the optimal dual face (at
    most 21 rows), and classification enumerates every optimal matching,
    so this workload is many small LPs plus whole-instance oracle misses
    and never builds a coalition LP. Warm-started face queries should
    move it; row generation should not.

    Size limits: sides of 3 to 5, at most 10 edges, weights 1 to 4 so
    that optimal matchings tie often. One round holds every bipartite
    kind at four sizes, about 2.5 s, and a 25 s run measures five rounds
    twice, 160 operations. Sides of 5 and 5 are left out: the
    uniform-capacity games there vary fourfold in cost, which would make
    one run's mean depend on its seed.
    """

    name = "dual-face"
    KINDS = ("assignment", "uniform_b", "b_matching", "hoffman_kruskal")
    SIZES = ((3, 3, 6), (3, 4, 8), (4, 4, 10), (4, 5, 10))
    ROUND_S = 2.5
    PASSES = 2
    TRACE_ROUNDS = 3
    MAX_WEIGHT = 4
    SAMPLED_DUALS = 4
    REQUIRED_LAYERS = ("lp.solve", "oracle", "formulations.build",
                       "games.restrict", "analysis")

    def setup(self, seed: int, workdir: Path, count: int) -> list[list]:
        self.mc, self.kinds = _load_api()
        slots = [(kind, nu, nv, m) for nu, nv, m in self.SIZES for kind in self.KINDS]
        return [[_slot_instance(seed, self.name, r, i, slot, self.MAX_WEIGHT)
                 for i, slot in enumerate(slots)] for r in range(count)]

    def run(self, game):
        mc, kinds = self.mc, self.kinds
        out = {"report": mc.verify_complementarity(game)}
        if game.kind in (kinds.ASSIGNMENT, kinds.UNIFORM_B):
            face = mc.DualFace(game)
            extremes = mc.extreme_imputations(game, face)
            out["extremes"] = extremes
            out["ranges"] = {q: mc.payoff_range(game, q, face) for q in game.agents}
            out["in_image"] = [mc.in_dual_image(game, imp) for imp in extremes]
            # A face with fewer vertices than asked for repeats them, so
            # every game pays for the same number of membership scans.
            duals = mc.sample_dual_vertices(game, self.SAMPLED_DUALS, 1, face)
            out["sampled_in_core"] = [
                mc.is_core_imputation(game, mc.dual_to_imputation(game, duals[i % len(duals)])).in_core
                for i in range(self.SAMPLED_DUALS)]
        if game.kind is kinds.HOFFMAN_KRUSKAL:
            dual = mc.optimal_dual(game)
            out["account"] = mc.surplus_account(game, dual)
            out["imputation"] = mc.dual_to_imputation(game, dual)
        return out

    def check(self, game, out):
        mc, kinds = self.mc, self.kinds
        problems = []
        report = out["report"]
        if not report.ok:
            problems.append("complementarity violations: " + "; ".join(report.violations))
        worth = mc.max_weight(game)[0]
        records = [f"{game.kind.value} n={len(game.agents)} worth={worth} "
                   f"degenerate={report.degenerate}"]
        records += [f"player {p.agent} {p.label.value} {p.paid_sometimes}"
                    for p in report.players]
        records += [f"team {t.edge[0]}-{t.edge[1]} {t.label.value} {t.always_paid_fairly}"
                    for t in report.teams]
        if "ranges" in out:
            problems += _check_ranges(mc, kinds, game, out, worth)
            records += [f"range {q} {_fmt(lo)} {_fmt(hi)}"
                        for q, (lo, hi) in out["ranges"].items()]
            records.append(f"in_image={out['in_image']} "
                           f"sampled_in_core={all(out['sampled_in_core'])}")
        if "account" in out:
            account, imputation = out["account"], out["imputation"]
            if account.worth != worth:
                problems.append(f"surplus account worth {account.worth} != {worth}")
            if imputation.total != account.surplus:
                problems.append(f"dual imputation pays {imputation.total}, "
                                f"surplus is {account.surplus}")
        return records, problems


def _check_ranges(mc, kinds, game, out, worth) -> list[str]:
    problems = []
    left = set(game.side_u)
    favor_u, favor_v = out["extremes"]
    for q, (lo, hi) in out["ranges"].items():
        if lo is None or hi is None or lo > hi:
            problems.append(f"payoff range of {q} is {lo}..{hi}")
            continue
        if (favor_u[q], favor_v[q]) != ((hi, lo) if q in left else (lo, hi)):
            problems.append(f"extremes of {q} are not the ends of its range")
        if game.kind is kinds.ASSIGNMENT:
            # Demange (1982), Leonard (1983): the largest core payoff of q
            # in an assignment game is v(N) - v(N without q).
            rest = [p for p in game.agents if p != q]
            if hi != worth - mc.worth(game, rest):
                problems.append(f"largest payoff of {q} is {hi}, closed form disagrees")
    if not all(out["in_image"]):
        problems.append("an extreme imputation is outside D(I)")
    if not all(out["sampled_in_core"]):
        problems.append("a sampled dual vertex maps outside the core")
    return problems


@dataclass(frozen=True)
class CliCall:
    label: str
    argv: tuple[str, ...]
    kind: str
    worth: Fraction | None


# Report sections whose values no choice of optimal LP vertex can change.
_SOLVER_FREE = ("matching", "game", "players", "teams", "theorem check", "core",
                "dual image", "payoff ranges", "extreme favoring side_u",
                "extreme favoring side_v", "concurrency", "constraint matrix",
                "summary")


class Cli:
    """In-process ``matchcore.cli.main`` with ``--format records``.

    Why: the only workload that reaches instance parsing, report
    rendering, the regression fixtures and the total-unimodularity sweep,
    and the one where ``extremes`` recomputes payoff ranges per sample;
    fixing that should move this workload's throughput.

    Size limits: the eight demo instances plus one seeded file per kind
    with 6 or 7 agents in each round, every subcommand that accepts the
    file's kind, and ``reproduce-paper`` once per round (about 60 calls,
    7 s); a 25 s run measures two rounds twice. Seven agents keep the
    constraint matrix within the sweep's cap of order 8.
    """

    name = "cli"
    SLOTS = (("assignment", 3, 3, 7), ("uniform_b", 3, 3, 7), ("b_matching", 3, 4, 8),
             ("hoffman_kruskal", 3, 3, 7), ("general", 7, 0, 10))
    ROUND_S = 7.0
    PASSES = 2
    TRACE_ROUNDS = 1
    MAX_WEIGHT = 9
    REQUIRED_LAYERS = ("lp.solve", "oracle", "formulations.build", "formulations.tum",
                       "games.restrict", "analysis", "instance_io.parse", "cli.main")

    def setup(self, seed: int, workdir: Path, count: int) -> list[list]:
        self.mc, self.kinds = _load_api()
        self.cli = importlib.import_module("matchcore.cli")
        workdir.mkdir(parents=True, exist_ok=True)
        demos = sorted(Path("demos", "instances").glob("*.game"))
        if not demos:
            raise FileNotFoundError("no demos/instances/*.game files")
        demo_calls = []
        for index, path in enumerate(demos):
            text = path.read_text(encoding="utf-8")
            game = self.mc.parse_instance(text)
            demo_calls += self._calls(path.stem, str(path), game, text, index, seed, workdir)
        rounds = []
        for r in range(count):
            calls = list(demo_calls)
            for i, slot in enumerate(self.SLOTS):
                game = _slot_instance(seed, self.name, r, i, slot, self.MAX_WEIGHT)
                label = f"r{r}-{slot[0]}"
                path = workdir / f"{label}.game"
                text = self.mc.render_instance(game)
                path.write_text(text, encoding="utf-8")
                calls += self._calls(label, str(path), game, text, r + i, seed, workdir)
            calls.append(CliCall("fixtures", ("reproduce-paper", "--format", "records"),
                                 "-", None))
            rounds.append(calls)
        return rounds

    def _calls(self, label, path, game, text, index, seed, workdir) -> list[CliCall]:
        kinds = self.kinds
        worth = self.mc.max_weight(game)[0]
        with_imputation = workdir / f"{label}.imputation.game"
        with_imputation.write_text(text + _imputation_line(self.mc, game, worth, index, seed),
                                   encoding="utf-8")
        commands = [("solve", path), ("classify", path), ("core-check", str(with_imputation)),
                    ("tum-check", path)]
        if game.kind in (kinds.ASSIGNMENT, kinds.UNIFORM_B):
            commands.append(("extremes", path, "--samples", "20", "--seed", "1"))
        if game.kind is kinds.GENERAL:
            commands.append(("concurrency", path))
        if game.kind is kinds.HOFFMAN_KRUSKAL:
            commands.append(("surplus", path))
        return [CliCall(label, (*command, "--format", "records"), game.kind.value, worth)
                for command in commands]

    def run(self, call: CliCall):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, call: CliCall, result):
        code, out, err = result
        command = call.argv[0]
        problems = []
        if code != 0:
            problems.append(f"{command} {call.label} exited {code}: {err.strip()}")
        elif err:
            problems.append(f"{command} {call.label} wrote to stderr: {err.strip()}")
        rows = [line.split("\t") for line in out.splitlines()]
        if command == "reproduce-paper":
            failed = [row for row in rows if len(row) > 1 and row[1] == "FAIL"]
            if failed or ["summary", "result", "all fixtures pass"] not in rows:
                problems.append(f"reproduce-paper reports {len(failed)} FAIL lines")
        if command == "solve" and ["matching", "worth", str(call.worth)] not in rows:
            problems.append(f"solve {call.label} does not report worth {call.worth}")
        hidden = ("core",) if call.kind == "hoffman_kruskal" else ()
        kept = ["\t".join(row) for row in rows
                if command == "reproduce-paper"
                or (row[0] in _SOLVER_FREE and row[0] not in hidden)]
        return [f"{call.label} {command} exit={code}", *kept], problems


def _imputation_line(mc, game, worth, index, seed) -> str:
    """An ``imputation`` line for core-check.

    Even-numbered files carry the payoffs of the deterministic optimal
    dual, which a full coalition scan must confirm; odd-numbered ones a
    seeded split of the worth, which the scan usually blocks early.
    """
    payoffs = None
    if index % 2 == 0:
        try:
            payoffs = mc.dual_to_imputation(game, mc.optimal_dual(game)).as_dict
        except ValueError:
            payoffs = None      # general game without a core
    if payoffs is None:
        rng = seeded.rng_for(seed, "imputation", index, len(game.agents))
        shares = {q: rng.randint(0, 3) for q in game.agents}
        total = sum(shares.values()) or 1
        payoffs = {q: Fraction(worth) * s / total for q, s in shares.items()}
    return "imputation " + " ".join(f"{q}={v}" for q, v in payoffs.items()) + "\n"


def _slot_instance(seed, workload, round_index, slot_index, slot, max_weight):
    kind, nu, nv, m = slot
    shape = seeded.rng_for("shape", workload, round_index, slot_index)
    rng = seeded.rng_for(seed, workload, round_index, slot_index)
    if kind == "general":
        return seeded.general(shape, rng, nu, m, max_weight)
    return seeded.bipartite(shape, rng, kind, nu, nv, m, max_weight)


WORKLOADS = {w.name: w for w in (Coalition(), DualFace(), Cli())}
