"""Metamorphic relations: answers move with the game as theory says.

A relation between two games checks the whole pipeline with no
reference of its own. Scaling: with every weight times c > 0 the
matching programs' feasible sets are unchanged and their objectives are
times c, so the dual feasible set is times c, every optimal dual, the
core and every coalition's demand are times c, and each Bland's-rule
pivot (the ratio test reads right-hand sides that are all times c) is
the same. So payoffs, ranges, demands and witness duals scale by c, and
verdicts, witness coalitions and oracle classes stay.

Disjoint union: a game joined with another of its kind under renamed
agents has worth the sum of theirs, and every coalition row of the union
lies inside one part (a connected coalition, or an edge pair) and
demands there what it demands in that part. So payoffs that pay each
part exactly its worth are in the union's core iff each part's are in
that part's core, the union's core is nonempty iff both parts' are, and
a blocked union's witness is whichever part's own witness comes first
in the union's size-then-position order. It is checked for the worth
kinds and general; the hoffman_kruskal relation waits until a
coalition's demand is a fact of the game.
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
from matchcore.caps import MAX_EDGES, MAX_VERTICES
from matchcore.games import GameKind, make_imputation, make_instance
from matchcore.oracle import optimal_weight

F = Fraction
C = F(3, 2)
KINDS = helpers.ALL_BIPARTITE + (GameKind.GENERAL,)
WORTH_KINDS = (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING)


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


def _union(left, right):
    """``left`` and ``right`` joined as one game of their kind, their
    agents renamed l... and r...; each side lists the left part's agents
    and then the right's, so a part keeps its agents' relative order."""
    def named(g, tag):
        side_u, side_v = ([tag + q for q in side] for side in (g.side_u, g.side_v))
        edges = [(tag + e.u, tag + e.v, e.weight) for e in g.edges]
        caps = {tag + q: b for q, b in g.capacities}
        return side_u, side_v, edges, caps

    lu, lv, ledges, lcaps = named(left, "l")
    ru, rv, redges, rcaps = named(right, "r")
    return make_instance(left.kind, lu + ru, lv + rv, ledges + redges,
                         {**lcaps, **rcaps} or None, left.uniform_capacity)


def _part_probes(g, witness):
    """Payoff vectors that pay ``g`` exactly its worth: the scaling
    relation's, or, for a part with neither a deterministic dual nor a
    core witness, its worth split evenly and paid to its last agent."""
    worth = optimal_weight(g)
    out = _probes(g, witness) or [{q: worth / len(g.agents) for q in g.agents},
                                  {g.agents[-1]: worth}]
    assert all(sum(p.values()) == worth for p in out)
    return out


def test_a_disjoint_union_is_in_the_core_iff_each_part_is():
    # 100 seeded pairs per kind, each union within the caps, and every
    # pair of the parts' probes. Counts at these seeds: 820-921 blocked
    # unions per kind, 152-195 with both parts blocked; 65 uniform_b and
    # 100 b_matching unions with a capacity above one; 15 general unions
    # with an empty part. The hoffman_kruskal relation waits until a
    # coalition's demand is a fact of the game: while it is the surplus at
    # the vertex Bland's rule reaches, a union's demand need not be its
    # parts', so that kind is left out here rather than pinned to its
    # present answers.
    kinds = WORTH_KINDS + (GameKind.GENERAL,)
    rng = random.Random(1515)
    seen = Counter()
    for kind in kinds:
        for _ in range(100):
            if kind is GameKind.GENERAL:
                left, right = (helpers.random_general(rng, max_vertices=6, max_edges=8,
                                                      max_weight=5) for _ in range(2))
            else:
                left, right = (helpers.random_bipartite(rng, kind, max_side=3, max_edges=6,
                                                        max_weight=5) for _ in range(2))
                right = make_instance(kind, right.side_u, right.side_v, right.edges,
                                      right.capacities or None, left.uniform_capacity)
            g = _union(left, right)
            assert len(g.agents) <= MAX_VERTICES and len(g.edges) <= MAX_EDGES
            position = {q: j for j, q in enumerate(g.agents)}

            def first(witness):
                return len(witness), sorted(map(position.get, witness))

            parts = [(tag, part, core_nonempty(part)) for tag, part in
                     (("l", left), ("r", right))]
            assert core_nonempty(g)[0] == all(nonempty for _, _, (nonempty, _) in parts)
            probes = [[(tag, part, payoffs) for payoffs in _part_probes(part, witness)]
                      for tag, part, (_, witness) in parts]
            for pair in ((a, b) for a in probes[0] for b in probes[1]):
                blocked = []
                for tag, part, payoffs in pair:
                    v = is_core_imputation(part, make_imputation(part, payoffs))
                    if not v.in_core:
                        blocked.append((frozenset(tag + q for q in v.witness),
                                        v.witness_demand, v.witness_allocation))
                union = {tag + q: x for tag, _, payoffs in pair for q, x in payoffs.items()}
                v = is_core_imputation(g, make_imputation(g, union))
                assert v.in_core == (not blocked)
                if blocked:
                    assert (v.witness, v.witness_demand, v.witness_allocation) == min(
                        blocked, key=lambda b: first(b[0]))
                    seen[kind, "blocked"] += 1
                    seen[kind, "both blocked"] += len(blocked) == 2
                seen[kind, "probes"] += 1
            seen[kind] += 1
            seen[kind, "capacity above one"] += any(g.capacity(q) > 1 for q in g.agents)
            seen[kind, "empty core"] += not all(nonempty for _, _, (nonempty, _) in parts)
    assert sum(seen[kind] for kind in kinds) >= 400, seen
    assert all(seen[kind] >= 60 and seen[kind, "blocked"] >= 150 for kind in kinds), seen
    assert all(seen[kind, "both blocked"] >= 100 for kind in kinds), seen
    assert all(seen[kind, "capacity above one"] >= 50 for kind in WORTH_KINDS[1:]), seen
    assert seen[GameKind.GENERAL, "empty core"] >= 10, seen
