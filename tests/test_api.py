"""The public surface, pinned: the names ``matchcore`` exports and the
public attributes of the engine's and the dual side's objects. Adding or
removing one fails here, so every change to the API is a visible edit of
this file."""

import inspect

import pytest

import helpers
import matchcore
from matchcore import (
    Constraint, DualFace, LinearProgram, Relation, Sense, build_primal,
    check_half_integrality, optimal_dual, solve,
)

EXPORTS = {
    # games
    "BIPARTITE_KINDS", "Edge", "GameInstance", "GameKind", "Imputation",
    "SurplusAccount", "make_edge", "make_imputation", "make_instance", "restrict",
    "validate",
    # lp
    "Constraint", "LinearProgram", "LpSolution", "OptimalFace", "Relation", "Sense",
    "Status", "solve",
    # formulations
    "HalfIntegralStructure", "build_dual", "build_odd_set_primal", "build_primal",
    "check_half_integrality", "is_totally_unimodular",
    # analysis
    "ComplementarityReport", "ConcurrencyReport", "CoreVerdict", "DualFace",
    "DualSolution", "always_paid_fairly", "check_concurrency", "core_nonempty",
    "dual_to_imputation", "extreme_imputations", "in_dual_image", "is_concurrent",
    "is_core_imputation", "is_optimal_dual", "make_dual", "meet_join", "optimal_dual",
    "paid_sometimes", "payoff_range", "primal_optimum", "sample_core_vertices",
    "sample_dual_vertices", "simultaneous_imputation", "surplus_account",
    "verify_complementarity",
    # oracle
    "ClassLabel", "Matching", "classify_player",
    "classify_team", "enumerate_optima", "is_degenerate", "max_weight",
    "optimal_weight", "worth",
    # caps, instance_io, rationals
    "CapExceededError", "InstanceError", "parse_instance",
    "parse_instance_with_imputation", "render_instance", "ensure_rational",
    "format_rational", "parse_rational",
}


def test_matchcore_exports_exactly_these_names():
    names = {name for name, value in vars(matchcore).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == EXPORTS


def _program():
    return LinearProgram(Sense.MAXIMIZE, ["x"], [1], upper=[1])


@pytest.mark.parametrize("build, attributes", [
    (_program, {"sense", "variables", "objective", "constraints", "lower", "upper",
                "evaluate", "is_feasible", "with_extra_constraints"}),
    (lambda: Constraint([1], Relation.LE, 1), {"coeffs", "relation", "rhs", "activity"}),
    (lambda: solve(_program()), {"status", "value", "values", "basis"}),
    (lambda: optimal_dual(helpers.single_edge()),
     {"instance", "values", "vertex", "lower", "upper"}),
    (lambda: DualFace(helpers.single_edge()),
     {"instance", "lp", "base", "optimize", "extremum", "vertex_coeffs", "vertex_range",
      "max_overpayment"}),
    (lambda: check_half_integrality(solve(build_primal(helpers.unit_triangle())),
                                    helpers.unit_triangle()),
     {"matched_edges", "half_cycles"}),
], ids=["LinearProgram", "Constraint", "LpSolution", "DualSolution", "DualFace",
        "HalfIntegralStructure"])
def test_public_attributes(build, attributes):
    obj = build()
    assert {name for name in dir(obj) if not name.startswith("_")} == attributes
