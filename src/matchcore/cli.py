"""Command-line front end.

The subcommands and what each reports are listed once, in ``_COMMANDS``;
``matchcore --help`` prints them. ``build_parser`` describes the parser,
and it runs once per process, when this module is imported.

``main(argv)`` may be called many times in one process; it returns the
exit code: 0 success, 1 analysis failure, 2 input error. Argparse's own
usage errors and ``--help`` leave by ``SystemExit``, with codes 2 and 0.
Every number is printed exactly as p/q (or a plain integer).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import analysis, fixtures
from .caps import CapExceededError
from .formulations import (
    build_primal,
    is_totally_unimodular,
    lower_dual_var,
    upper_dual_var,
    vertex_dual_var,
)
from .games import GameInstance, GameKind, make_imputation
from .instance_io import InstanceError, parse_instance_with_imputation
from .oracle import InfeasibleInstanceError, enumerate_optima, max_weight
from .rationals import format_rational

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "unbounded"
    return str(value)


@dataclass
class Report:
    """Ordered sections of (key, value) facts; values render losslessly."""
    sections: list[tuple[str, list[tuple[str, str]]]] = field(default_factory=list)

    def add(self, title: str, rows) -> None:
        self.sections.append((title, [(k, _fmt(v)) for k, v in rows]))

    def render_text(self) -> str:
        chunks = []
        for title, rows in self.sections:
            chunks.append(title)
            chunks.append("-" * len(title))
            width = max((len(k) for k, _ in rows), default=0)
            for key, value in rows:
                chunks.append(f"{key.ljust(width)}  {value}")
            chunks.append("")
        return "\n".join(chunks).rstrip() + "\n"

    def render_records(self) -> str:
        lines = []
        for title, rows in self.sections:
            for key, value in rows:
                lines.append(f"{title}\t{key}\t{value}")
        return "\n".join(lines) + "\n"

    def render(self, mode: str) -> str:
        return self.render_records() if mode == "records" else self.render_text()


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceError(f"cannot read {path}: not UTF-8 text") from exc
    return parse_instance_with_imputation(text)


def _describe(instance: GameInstance, report: Report) -> None:
    report.add("instance", [
        ("kind", instance.kind.value),
        ("agents", " ".join(instance.agents)),
        ("edges", len(instance.edges)),
    ])


def _dual_rows(instance, dual):
    """Every pay, then every floor, then every ceil row (not build_dual's order)."""
    rows = [(vertex_dual_var(q), dual.vertex(q)) for q in instance.agents]
    if instance.kind is GameKind.HOFFMAN_KRUSKAL:
        rows += [(lower_dual_var(e.key), dual.lower(e.key)) for e in instance.edges]
        rows += [(upper_dual_var(e.key), dual.upper(e.key))
                 for e in instance.edges if e.upper is not None]
    return rows


def cmd_solve(args, report: Report, instance: GameInstance, payoffs) -> int:
    value, witness = max_weight(instance)
    report.add("matching", [
        ("worth", value),
        ("program optimum", analysis.primal_optimum(instance)),
        ("optimal matchings", len(enumerate_optima(instance))),
        ("one optimum", " ".join(f"{u}-{v}x{m}" for (u, v), m in witness.entries)
            or "(empty)"),
    ])
    dual = analysis.optimal_dual(instance)
    report.add("deterministic optimal dual", _dual_rows(instance, dual))
    if instance.kind is GameKind.GENERAL and not analysis.is_concurrent(instance):
        report.add("imputation", [("core", "empty (not concurrent)")])
    else:
        imp = analysis.dual_to_imputation(instance, dual)
        rows = [(q, imp[q]) for q in instance.agents]
        if instance.kind is GameKind.HOFFMAN_KRUSKAL:
            rows.append(("surplus", imp.total))
        report.add("imputation from the dual", rows)
    return EXIT_OK


def cmd_classify(args, report: Report, instance: GameInstance, payoffs) -> int:
    result = analysis.verify_complementarity(instance)
    report.add("game", [
        ("degenerate", result.degenerate),
        ("concurrent", "n/a" if result.concurrent is None else _fmt(result.concurrent)),
    ])
    def verdict(flag, if_true, if_false):
        if flag is None:
            return "core empty"
        return if_true if flag else if_false

    report.add("players", [
        (p.agent, f"{p.label.value}, "
                  + verdict(p.paid_sometimes, "paid sometimes", "never paid"))
        for p in result.players])
    report.add("teams", [
        (f"{u}-{v}", f"{t.label.value}, "
                     + verdict(t.always_paid_fairly, "always paid fairly",
                               "sometimes overpaid"))
        for (u, v), t in ((t.edge, t) for t in result.teams)])
    if result.gaps:
        report.add("one-directional gaps", [("note", g) for g in result.gaps])
    report.add("theorem check",
               [("violations", len(result.violations))]
               + [("counterexample", v) for v in result.violations])
    return EXIT_OK if result.ok else EXIT_ANALYSIS


def cmd_core_check(args, report: Report, instance: GameInstance, payoffs) -> int:
    if payoffs is None:
        raise InstanceError("core-check needs an 'imputation' line in the file")
    imp = make_imputation(instance, payoffs)
    verdict = analysis.is_core_imputation(instance, imp)
    report.add("imputation", [(q, imp[q]) for q in instance.agents])
    rows = [("verdict", "IN CORE" if verdict.in_core else "NOT IN CORE")]
    if not verdict.in_core:
        rows += [
            ("blocking coalition", " ".join(sorted(verdict.witness))),
            ("coalition demand", verdict.witness_demand),
            ("coalition allocation", verdict.witness_allocation),
        ]
    report.add("core", rows)
    if instance.kind is not GameKind.GENERAL:
        in_image = analysis.in_dual_image(instance, imp)
        report.add("dual image", [
            ("verdict", "IN D(I)" if in_image else "NOT IN D(I)")])
    return EXIT_OK


def cmd_extremes(args, report: Report, instance: GameInstance, payoffs) -> int:
    high_left, high_right = analysis.extreme_imputations(instance)
    # Each extreme pays every agent one end of its payoff range.
    ranges = {q: sorted((high_left[q], high_right[q])) for q in instance.agents}
    report.add("payoff ranges", [(q, f"{_fmt(lo)} .. {_fmt(hi)}")
                                 for q, (lo, hi) in ranges.items()])
    report.add("extreme favoring side_u", [(q, high_left[q]) for q in instance.agents])
    report.add("extreme favoring side_v", [(q, high_right[q]) for q in instance.agents])
    checked = 0
    for imp in analysis.sample_core_vertices(instance, args.samples, args.seed):
        for q, (lo, hi) in ranges.items():
            if not (lo <= imp[q] <= hi):
                report.add("sample check", [("violation", f"{q} pays {imp[q]}")])
                return EXIT_ANALYSIS
        checked += 1
    report.add("sample check", [("sampled core vertices within ranges", checked)])
    return EXIT_OK


def cmd_concurrency(args, report: Report, instance: GameInstance, payoffs) -> int:
    result = analysis.check_concurrency(instance)
    report.add("concurrency", [
        ("fractional optimum", result.fractional_optimum),
        ("integral optimum", result.integral_optimum),
        ("core", "CORE NON-EMPTY" if result.concurrent else "CORE EMPTY"),
    ])
    return EXIT_OK


def cmd_tum_check(args, report: Report, instance: GameInstance, payoffs) -> int:
    lp = build_primal(instance)
    rows = [c.coeffs for c in lp.constraints]
    report.add("constraint matrix", [
        ("rows", len(rows)),
        ("columns", len(lp.variables)),
        ("totally unimodular", is_totally_unimodular(rows)),
    ])
    return EXIT_OK


def cmd_surplus(args, report: Report, instance: GameInstance, payoffs) -> int:
    dual = analysis.optimal_dual(instance)
    account = analysis.surplus_account(instance, dual)
    imp = analysis.dual_to_imputation(instance, dual)
    report.add("deterministic optimal dual", _dual_rows(instance, dual))
    report.add("surplus account", [
        ("worth", account.worth),
        ("adjustment", account.adjustment),
        ("surplus", account.surplus),
    ])
    report.add("payments", [(q, imp[q]) for q in instance.agents])
    return EXIT_OK


def cmd_reproduce(args, report: Report, instance, payoffs) -> int:
    failures = 0
    for fixture, checks in fixtures.run_all():
        rows = []
        for check in checks:
            mark = "PASS" if check.passed else "FAIL"
            failures += 0 if check.passed else 1
            detail = f" [{check.detail}]" if check.detail and not check.passed else ""
            rows.append((mark, check.label + detail))
        report.add(f"{fixture.name}: {fixture.summary}", rows)
    report.add("summary", [("result", "all fixtures pass" if not failures
                            else f"{failures} checks failed")])
    return EXIT_OK if failures == 0 else EXIT_ANALYSIS


_EVERY_KIND = tuple(GameKind)

# name: (handler, the instance kinds it accepts or None when it reads no
# instance file, help text).
_COMMANDS = {
    "solve": (cmd_solve, _EVERY_KIND,
              "worth, program optimum, deterministic dual, induced payoffs"),
    "classify": (cmd_classify, _EVERY_KIND,
                 "player/team classes with payment and fairness verdicts"),
    "core-check": (cmd_core_check, _EVERY_KIND,
                   "core and D(I) membership of the file's imputation line"),
    "extremes": (cmd_extremes, (GameKind.ASSIGNMENT, GameKind.UNIFORM_B),
                 "payoff ranges, antipodal core imputations (assignment, uniform_b)"),
    "concurrency": (cmd_concurrency, (GameKind.GENERAL,),
                    "fractional vs integral optimum of a general game"),
    "tum-check": (cmd_tum_check, _EVERY_KIND,
                  "total-unimodularity test of the constraint matrix"),
    "surplus": (cmd_surplus, (GameKind.HOFFMAN_KRUSKAL,),
                "surplus accounting under the deterministic dual (hoffman_kruskal)"),
    "reproduce-paper": (cmd_reproduce, None,
                        "run the built-in regression fixtures"),
}


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count of at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcore",
        description="Exact analysis of matching-based cooperative games.")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "records"), default="text",
                        help="human-readable text or one record per fact")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, kinds, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=blurb, description=blurb)
        if kinds is not None:
            p.add_argument("instance", help="instance file path")
    extremes = sub.choices["extremes"]
    extremes.add_argument("--samples", type=_count, default=50, metavar="N",
                          help="random-objective core vertices checked against the ranges")
    extremes.add_argument("--seed", type=int, default=0, metavar="N",
                          help="seed for random-objective sampling")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handler, kinds, _ = _COMMANDS[args.command]
    report = Report()
    try:
        instance = payoffs = None
        if kinds is not None:
            instance, payoffs = _load(args.instance)
            if instance.kind not in kinds:
                raise InstanceError(f"{args.command} applies to "
                                    f"{' and '.join(k.value for k in kinds)} instances")
            _describe(instance, report)
        code = handler(args, report, instance, payoffs)
    except (InstanceError, CapExceededError, InfeasibleInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, ValueError) as exc:
        # A contradicted theorem, or a library call rejecting a value the
        # analysis itself produced; bad input raises the errors above.
        print(f"analysis failure: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    sys.stdout.write(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
