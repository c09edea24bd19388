"""Metamorphic relations: answers move with the game as theory says.

A relation between two games checks the whole pipeline with no
reference of its own. Scaling: with every weight times c > 0 the
matching programs' feasible sets are unchanged and their objectives are
times c, so the dual feasible set is times c, every optimal dual, the
core and every coalition's demand are times c, and each Bland's-rule
pivot (the ratio test reads right-hand sides that are all times c) is
the same. So payoffs, ranges, demands and witness duals scale by c, and
verdicts, witness coalitions and oracle classes stay.

The disjoint-union relation is not here: the hoffman_kruskal core of a
disjoint union is not the product of its parts' cores while a coalition
demands its Bland-rule surplus, so it waits for that demand to become a
fact of the game.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import helpers
from matchcore.analysis import (
    core_nonempty,
    dual_to_imputation,
    extreme_imputations,
    is_concurrent,
    is_core_imputation,
    optimal_dual,
    payoff_range,
    sample_core_vertices,
    simultaneous_imputation,
    verify_complementarity,
)
from matchcore.games import GameKind, make_imputation, make_instance

F = Fraction
C = F(3, 2)
KINDS = helpers.ALL_BIPARTITE + (GameKind.GENERAL,)


def _scaled_game(g):
    return make_instance(g.kind, g.side_u, g.side_v,
                         [replace(e, weight=C * e.weight) for e in g.edges],
                         g.capacities, g.uniform_capacity)


def _times(payoffs, c=C):
    return {q: c * v for q, v in payoffs.items()}


def _probes(g, witness):
    """Payoff vectors asked about on ``g``: the deterministic dual's
    (when the game has one) and the core witness, then the first of them
    with up to 1/2 moved from its best-paid agent to another, and its
    total paid to the last agent alone, so that some are blocked by
    proper coalitions."""
    out = []
    if g.kind is not GameKind.GENERAL or is_concurrent(g):
        out.append(dual_to_imputation(g, optimal_dual(g)).as_dict)
    if witness is not None:
        out.append(witness.as_dict)
    if out:
        pay = out[0]
        giver = min(g.agents, key=lambda q: (-pay[q], q))
        taker = min(q for q in g.agents if q != giver)
        step = min(F(1, 2), pay[giver])
        out.append(dict(pay, **{giver: pay[giver] - step, taker: pay[taker] + step}))
        out.append({g.agents[-1]: sum(pay.values())})
    return out


def _membership(g, payoffs, c):
    """The verdict on ``payoffs`` times c, with the verdict's numbers
    divided by c, so that a scale-free answer reads the same for every c."""
    v = is_core_imputation(g, make_imputation(g, _times(payoffs, c)))
    dual = None if v.witness_dual is None else tuple(x / c for x in v.witness_dual.values)
    return (v.in_core, v.witness,
            None if v.witness_demand is None else v.witness_demand / c,
            None if v.witness_allocation is None else v.witness_allocation / c, dual)


def test_scaling_every_weight_scales_payoffs_and_keeps_verdicts():
    # 85 seeded games per kind, small enough that every coalition row of
    # a membership scan is read quickly, and 15 odd cycles with one weight,
    # whose cores are empty.
    rng = random.Random(99)
    games = [helpers.random_general(rng, max_vertices=6, max_edges=9, max_weight=5,
                                    min_vertices=4)
             if kind is GameKind.GENERAL else
             helpers.random_bipartite(rng, kind, max_side=3, max_edges=6, max_weight=5)
             for _ in range(85) for kind in KINDS]
    games += [helpers.random_odd_cycle(rng, max_weight=5) for _ in range(15)]
    seen = Counter()
    for g in games:
        s = _scaled_game(g)
        nonempty, witness = core_nonempty(g)
        scaled_nonempty, scaled_witness = core_nonempty(s)
        assert scaled_nonempty == nonempty
        assert (None if witness is None else _times(witness.as_dict)) == (
            None if scaled_witness is None else scaled_witness.as_dict)
        for payoffs in _probes(g, witness):
            verdict = _membership(g, payoffs, 1)
            assert _membership(s, payoffs, C) == verdict
            seen[g.kind, "blocked"] += not verdict[0]
        assert verify_complementarity(s) == verify_complementarity(g)
        if g.kind is not GameKind.GENERAL or is_concurrent(g):
            for q in g.agents:
                lo, hi = payoff_range(g, q)
                assert payoff_range(s, q) == (None if lo is None else C * lo,
                                              None if hi is None else C * hi)
        if g.kind is not GameKind.HOFFMAN_KRUSKAL:
            assert [v.as_dict for v in sample_core_vertices(s, 3, 5)] == [
                _times(v.as_dict) for v in sample_core_vertices(g, 3, 5)]
        if g.kind in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B):
            assert [v.as_dict for v in extreme_imputations(s)] == [
                _times(v.as_dict) for v in extreme_imputations(g)]
            assert simultaneous_imputation(s).as_dict == _times(
                simultaneous_imputation(g).as_dict)
        seen[g.kind] += 1
        seen[g.kind, "capacity above one"] += any(g.capacity(q) > 1 for q in g.agents)
        seen[g.kind, "empty core"] += not nonempty
    assert all(seen[kind] >= 60 for kind in KINDS) and len(games) >= 400, seen
    assert all(seen[kind, "blocked"] >= 60 for kind in KINDS), seen
    assert all(seen[kind, "capacity above one"] >= 30 for kind in helpers.MULTI_KINDS), seen
    assert seen[GameKind.GENERAL, "empty core"] >= 20, seen
