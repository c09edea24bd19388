"""Exact rational analysis of matching-based cooperative games.

Five game kinds (assignment, uniform_b, b_matching, hoffman_kruskal,
general) with an exact simplex engine, a brute-force matching oracle,
verbatim primal/dual program builders, and core/complementarity analysis.
All numbers are fractions.Fraction; nothing is ever rounded.
"""

from .analysis import (
    ComplementarityReport,
    ConcurrencyReport,
    CoreVerdict,
    DualFace,
    DualSolution,
    always_paid_fairly,
    check_concurrency,
    core_nonempty,
    dual_to_imputation,
    extreme_imputations,
    in_dual_image,
    is_concurrent,
    is_core_imputation,
    is_optimal_dual,
    make_dual,
    meet_join,
    optimal_dual,
    paid_sometimes,
    payoff_range,
    primal_optimum,
    sample_core_vertices,
    sample_dual_vertices,
    simultaneous_imputation,
    surplus_account,
    verify_complementarity,
)
from .caps import CapExceededError
from .formulations import (
    HalfIntegralStructure,
    build_dual,
    build_odd_set_primal,
    build_primal,
    check_half_integrality,
    is_totally_unimodular,
)
from .games import (
    BIPARTITE_KINDS,
    Edge,
    GameInstance,
    GameKind,
    Imputation,
    SurplusAccount,
    make_edge,
    make_imputation,
    make_instance,
    restrict,
    validate,
)
from .instance_io import (
    InstanceError,
    parse_instance,
    parse_instance_with_imputation,
    render_instance,
)
from .lp import (
    Constraint,
    LinearProgram,
    LpSolution,
    OptimalFace,
    Relation,
    Sense,
    Status,
    solve,
)
from .oracle import (
    ClassLabel,
    InfeasibleInstanceError,
    Matching,
    classify_player,
    classify_team,
    enumerate_optima,
    is_degenerate,
    max_weight,
    optimal_weight,
    worth,
)
from .rationals import ensure_rational, format_rational, parse_rational

__version__ = "0.1.0"
