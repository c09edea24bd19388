"""Command-line behaviour: outputs, exit codes, record mode."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from matchcore import analysis, cli, fixtures
from matchcore.cli import _COMMANDS, main
from matchcore.formulations import vertex_dual_var
from matchcore.instance_io import parse_instance, render_instance
from matchcore.oracle import max_weight
from matchcore.rationals import parse_rational

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_check_in_core_not_in_image(tmp_path, capsys):
    path = write(tmp_path, "g.game",
                 fixtures.fixture_by_name("three_agent_b_matching").text
                 + "imputation u=4\n")
    code, out, _ = run(capsys, "core-check", path)
    assert code == 0
    assert "IN CORE" in out and "NOT IN D(I)" in out


def test_core_check_blocked_vector_reports_witness(tmp_path, capsys):
    path = write(tmp_path, "k3.game",
                 fixtures.fixture_by_name("unit_triangle").text
                 + "imputation i=1/3 j=1/3 k=1/3\n")
    code, out, _ = run(capsys, "core-check", path)
    assert code == 0
    assert "NOT IN CORE" in out
    assert "blocking coalition" in out


def test_core_check_reports_the_grand_range_end_a_wrong_total_passes(tmp_path, capsys):
    # The surplus of this hoffman_kruskal game ranges over [4, 12] across
    # its optimal duals, so a total of 1 falls short of 4.
    path = write(tmp_path, "hub.game",
                 fixtures.fixture_by_name("hub_capacity_surplus").text
                 + "imputation u=1\n")
    code, out, _ = run(capsys, "core-check", path, "--format", "records")
    assert code == 0
    records = [line.split("\t") for line in out.splitlines()]
    assert [r for r in records if r[0] == "core"] == [
        ["core", "verdict", "NOT IN CORE"],
        ["core", "blocking coalition", "u v1 v2"],
        ["core", "coalition demand", "4"],
        ["core", "coalition allocation", "1"],
    ]


def test_core_check_requires_imputation(tmp_path, capsys):
    path = write(tmp_path, "g.game",
                 fixtures.fixture_by_name("three_agent_b_matching").text)
    code, _, err = run(capsys, "core-check", path)
    assert code == 2
    assert "imputation" in err


def test_concurrency_output(tmp_path, capsys):
    path = write(tmp_path, "k3.game", fixtures.fixture_by_name("unit_triangle").text)
    code, out, _ = run(capsys, "concurrency", path)
    assert code == 0
    assert "3/2" in out and "CORE EMPTY" in out


def test_solve_renders_exact_values(tmp_path, capsys):
    path = write(tmp_path, "pendant.game",
                 fixtures.fixture_by_name("triangle_with_pendant").text)
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert "1/2" in out  # the unique dual pays v2 and v3 one half each


def test_surplus_command(tmp_path, capsys):
    path = write(tmp_path, "floor.game",
                 fixtures.fixture_by_name("floored_edges_pair").text)
    code, out, _ = run(capsys, "surplus", path)
    assert code == 0
    assert "surplus" in out and "6" in out


def test_help_lists_every_subcommand_with_its_blurb(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")     # one line per subcommand
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (_, _, blurb) in _COMMANDS.items():
        assert any(line.split() == [name, *blurb.split()] for line in lines), name


DEMO = str(ROOT / "demos" / "instances" / "tennis_pairs.game")   # an assignment game


def test_main_parses_with_the_parser_built_at_import(capsys, monkeypatch):
    expected = run(capsys, "solve", DEMO)

    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert run(capsys, "solve", DEMO) == expected and expected[0] == 0
    for argv, code in ((["extremes", DEMO, "--samples", "-3"], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == code


def test_the_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    defaults = run(capsys, "extremes", DEMO, "--samples", "50", "--seed", "0")
    assert run(capsys, "extremes", DEMO, "--samples", "3", "--seed", "5") != defaults
    assert run(capsys, "extremes", DEMO) == defaults

    text = run(capsys, "solve", DEMO)
    assert run(capsys, "solve", DEMO, "--format", "records") != text
    assert run(capsys, "solve", DEMO) == text

    with pytest.raises(SystemExit) as done:
        main(["solve", DEMO, "--format", "csv"])
    assert done.value.code == 2
    assert capsys.readouterr().out == ""
    assert run(capsys, "solve", DEMO) == text

    monkeypatch.setenv("COLUMNS", "200")
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["--help"])
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith("usage: matchcore")


def test_module_entry_point_exits_with_argparse_and_input_codes(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def entry(*argv):
        return subprocess.run([sys.executable, "-m", "matchcore.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60)

    done = entry("--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert "reproduce-paper" in done.stdout
    done = entry("solve", str(tmp_path / "missing.game"))
    assert (done.returncode, done.stdout) == (2, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read")


def test_tum_check(tmp_path, capsys):
    path = write(tmp_path, "k3.game", fixtures.fixture_by_name("unit_triangle").text)
    code, out, _ = run(capsys, "tum-check", path)
    assert code == 0 and "totally unimodular  no" in out
    path2 = write(tmp_path, "b.game",
                  fixtures.fixture_by_name("three_agent_b_matching").text)
    code, out, _ = run(capsys, "tum-check", path2)
    assert code == 0 and "yes" in out


def _bipartite(g):
    """Breadth-first two-colouring of the game's graph."""
    side = {}
    for start in g.agents:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        for q in queue:
            for e in g.edges:
                if e.touches(q):
                    other = e.v if e.u == q else e.u
                    if other not in side:
                        side[other] = 1 - side[q]
                        queue.append(other)
                    elif side[other] == side[q]:
                        return False
    return True


@pytest.mark.parametrize("kind", ["assignment", "uniform_b", "b_matching",
                                  "hoffman_kruskal", "general"])
def test_tum_check_decides_cap_size_games(kind, tmp_path, capsys):
    # 12 agents and 16 edges, two nonzeros per column: Heller &
    # Tompkins's test decides, and its verdict is the graph's bipartiteness.
    for _, s, g in helpers.cap_set((kind,)):
        path = write(tmp_path, f"{kind}_{s}.game", render_instance(g))
        code, out, err = run(capsys, "tum-check", path)
        assert (code, err) == (0, "")
        assert "rows                12" in out and "columns             16" in out
        assert f"totally unimodular  {'yes' if _bipartite(g) else 'no'}" in out


def test_classify_seven_ring(tmp_path, capsys):
    path = write(tmp_path, "ring.game",
                 fixtures.fixture_by_name("weighted_seven_ring").text)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert "violations  0" in out
    assert "subpar" in out and "essential" in out


def test_extremes_with_samples(tmp_path, capsys):
    g = helpers.random_bipartite(random.Random(13), helpers.ALL_BIPARTITE[0],
                                 max_side=3, max_edges=5)
    path = write(tmp_path, "a.game", render_instance(g))
    code, out, _ = run(capsys, "extremes", path, "--samples", "6", "--seed", "4")
    assert code == 0
    assert "sampled core vertices within ranges" in out


def test_negative_sample_count_exits_two(tmp_path, capsys):
    path = write(tmp_path, "edge.game", render_instance(helpers.single_edge()))
    with pytest.raises(SystemExit) as exit_info:
        main(["extremes", path, "--samples", "-3"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --samples: expected a count of at least 0, got -3" in captured.err


def test_reproduce_paper_passes(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 40
    assert "all fixtures pass" in out


def test_reproduce_paper_fails_loudly_on_mismatch(capsys, monkeypatch):
    fake = fixtures.Fixture("broken", "forced failure",
                            lambda g: [fixtures.Check("forced", False, "boom")])
    g = parse_instance(fixtures.fixture_by_name("unit_triangle").text)
    monkeypatch.setattr(fixtures, "run_all",
                        lambda: [(fake, fake.run(g))])
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 1
    assert "FAIL" in out


def test_input_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.game"))
    assert code == 2 and "cannot read" in err
    bad = write(tmp_path, "bad.game", "game assignment\nside_u a\nside_v b\n"
                                      "edge a b weight zero\n")
    code, _, err = run(capsys, "solve", bad)
    assert code == 2 and "line 4" in err
    latin = tmp_path / "latin.game"
    latin.write_bytes(b"game assignment\nside_u a\xff\nside_v b\nedge a\xff b weight 1\n")
    code, out, err = run(capsys, "solve", str(latin))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {latin}: not UTF-8 text\n"


def test_negative_imputation_value_exits_two_with_its_line(tmp_path, capsys):
    path = write(tmp_path, "g.game",
                 fixtures.fixture_by_name("three_agent_b_matching").text
                 + "imputation u=5 v1=-1\n")
    code, out, err = run(capsys, "core-check", path)
    assert code == 2 and out == ""
    assert "line 10" in err and "negative payoff" in err


@pytest.mark.parametrize("extra, message", [
    ("b ghost 5\n", "error: capacity for unknown agent 'ghost'\n"),
    ("b v1 3\n", "error: line 10: second b line for 'v1'\n"),
    ("imputation u=4\nimputation u=3\n", "error: line 11: second payoff for 'u'\n"),
    ("game hoffman_kruskal\n", "error: line 10: second game line\n"),
    ("b_const 2\nb_const 5\n", "error: line 11: second b_const line\n"),
    ("edge u v1 weight 1 upper 1 upper 3\n",
     "error: line 10: second upper on one edge line\n"),
])
def test_repeated_or_unknown_names_exit_two(tmp_path, capsys, extra, message):
    path = write(tmp_path, "g.game",
                 fixtures.fixture_by_name("three_agent_b_matching").text + extra)
    code, out, err = run(capsys, "core-check", path)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("old, new, message", [
    ("weight 1", "weight 1_000", "line 6: not a rational literal: '1_000'"),
    ("b a 1", "b a 1_0", "line 4: expected an integer, got '1_0'"),
    ("b b 1", "b b \u0662", "line 5: expected an integer, got '\u0662'"),
    ("weight 1\n", "weight 1\nimputation a=1_0 b=0\n", "line 7: not a rational literal: '1_0'"),
], ids=["weight", "b", "b-arabic-indic", "imputation"])
def test_numbers_outside_the_grammar_exit_two(tmp_path, capsys, old, new, message):
    # int() and Fraction() would read each of these tokens as a number.
    path = tmp_path / "g.game"
    path.write_text("game b_matching\nside_u a\nside_v b\nb a 1\nb b 1\n"
                    "edge a b weight 1\n".replace(old, new), encoding="utf-8")
    assert run(capsys, "core-check", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("extra, message", [
    ("b_const 2\n", "a uniform capacity only applies to uniform_b instances"),
    ("b i 2\n", "per-vertex capacities only apply to b_matching and "
                "hoffman_kruskal instances"),
], ids=["b_const", "b"])
def test_capacity_data_the_kind_does_not_use_exits_two(tmp_path, capsys, extra, message):
    path = write(tmp_path, "g.game", fixtures.fixture_by_name("unit_triangle").text + extra)
    assert run(capsys, "solve", path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, fixture, message", [
    ("extremes", "unit_triangle", "extremes applies to assignment and uniform_b instances"),
    ("concurrency", "hub_capacity_surplus", "concurrency applies to general instances"),
    ("surplus", "three_agent_b_matching", "surplus applies to hoffman_kruskal instances"),
])
def test_command_on_a_kind_it_does_not_accept_exits_two(tmp_path, capsys, command,
                                                        fixture, message):
    path = write(tmp_path, "g.game", fixtures.fixture_by_name(fixture).text)
    assert run(capsys, command, path) == (2, "", f"error: {message}\n")


def test_library_value_error_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def rejected(*args, **kwargs):
        raise ValueError("dual solution is not optimal")

    monkeypatch.setattr(analysis, "optimal_dual", rejected)
    path = write(tmp_path, "edge.game", render_instance(helpers.single_edge()))
    code, out, err = run(capsys, "solve", path)
    assert code == 1
    assert out == ""
    assert err == "analysis failure: dual solution is not optimal\n"


def test_cap_refusal_exits_two(tmp_path, capsys):
    path = write(tmp_path, "path.game", render_instance(helpers.general_path(13)))
    code, out, err = run(capsys, "solve", path)
    assert code == 2 and out == ""
    assert err == "error: 13 vertices exceed the enumeration cap of 12\n"


def test_flags_are_accepted_only_where_read(tmp_path, capsys):
    path = write(tmp_path, "edge.game", render_instance(helpers.single_edge()))
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", path, "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_records_mode_reverifies_against_the_oracle(tmp_path, capsys):
    fixture = fixtures.fixture_by_name("three_agent_b_matching")
    path = write(tmp_path, "g.game", fixture.text)
    code, out, _ = run(capsys, "solve", path, "--format", "records")
    assert code == 0
    records = [line.split("\t") for line in out.strip().splitlines()]
    assert all(len(r) == 3 for r in records)
    g = fixture.instance()
    dual = analysis.optimal_dual(g)
    imp = analysis.dual_to_imputation(g, dual)
    pay = {vertex_dual_var(q): q for q in g.agents}

    def reverify(section, key, value):
        if section == "matching" and key == "worth":
            return parse_rational(value) == max_weight(g)[0]
        if section == "deterministic optimal dual" and key in pay:
            return parse_rational(value) == dual.vertex(pay[key])
        if section == "imputation from the dual" and key in g.agents:
            return parse_rational(value) == imp[key]
        return None

    checkable = [r for r in records if reverify(*r) is not None]
    rng = random.Random(2)
    picks = rng.sample(checkable, 3)
    assert all(reverify(*r) for r in picks)


def test_contradicted_theorem_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def contradicted(*args, **kwargs):
        raise ArithmeticError("assembled extreme is not an optimal dual")

    monkeypatch.setattr(analysis, "extreme_imputations", contradicted)
    path = write(tmp_path, "edge.game", render_instance(helpers.single_edge()))
    code, out, err = run(capsys, "extremes", path)
    assert code == 1
    assert out == ""
    assert "not an optimal dual" in err and "Traceback" not in err


_EVERY_DEMO_CALL = """
from pathlib import Path
from matchcore.cli import main
print("exit", main(["reproduce-paper", "--format", "records"]))
for path in sorted(Path("demos", "instances").glob("*.game")):
    for command in ("solve", "classify"):
        print("exit", main([command, str(path), "--format", "records"]))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    # Set and dict iteration orders change with PYTHONHASHSEED; no printed
    # fact may.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _EVERY_DEMO_CALL], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and not done.stderr, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert next(iter(outputs)).count("exit 0") == 17
