"""Line-oriented plain-text instance files.

One directive per line, ``#`` starts a comment, tokens are whitespace
separated. Numbers are ASCII digits with an optional sign: ``p``,
``p/q``, or finite decimals (converted exactly). Rendering is lossless:
parsing a rendered instance recovers it field for field.

    game <assignment|uniform_b|b_matching|hoffman_kruskal|general>
    side_u <name>...            bipartite kinds
    side_v <name>...            bipartite kinds
    vertices <name>...          general kind
    b_const <positive-int>      uniform_b only
    b <vertex> <positive-int>   b_matching / hoffman_kruskal, one per vertex
    edge <name> <name> weight <rational> [lower <int>] [upper <int>]
    imputation <name>=<rational> ...  payoffs >= 0, one per agent

Nothing may be given twice: a repeated ``game``, ``b_const``, ``b`` line
for a vertex, payoff for a name, or bound on one edge line is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .games import GameInstance, GameKind, InstanceError
from .rationals import format_rational, parse_rational

_NAME = re.compile(r"^[A-Za-z0-9_.+-]+$")
_INT = re.compile(r"[-+]?[0-9]+")


def _name(token: str, lineno: int) -> str:
    if not _NAME.match(token):
        raise InstanceError(f"bad name {token!r}", lineno)
    return token


def _positive_int(token: str, lineno: int, minimum: int = 1) -> int:
    if not _INT.fullmatch(token):      # int() would take "1_0" and other scripts' digits
        raise InstanceError(f"expected an integer, got {token!r}", lineno)
    value = int(token)
    if value < minimum:
        raise InstanceError(f"expected an integer >= {minimum}, got {value}", lineno)
    return value


def parse_instance_with_imputation(text: str) -> tuple[GameInstance, dict[str, Fraction] | None]:
    kind: GameKind | None = None
    side_u: list[str] = []
    side_v: list[str] = []
    vertices: list[str] = []
    b_const: int | None = None
    caps: dict[str, int] = {}
    edges: list[tuple] = []
    payoffs: dict[str, Fraction] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "game":
            if len(args) != 1:
                raise InstanceError("game takes one token", lineno)
            if kind is not None:
                raise InstanceError("second game line", lineno)
            try:
                kind = GameKind(args[0])
            except ValueError:
                raise InstanceError(f"unknown game kind {args[0]!r}", lineno) from None
        elif directive == "side_u":
            side_u.extend(_name(t, lineno) for t in args)
        elif directive == "side_v":
            side_v.extend(_name(t, lineno) for t in args)
        elif directive == "vertices":
            vertices.extend(_name(t, lineno) for t in args)
        elif directive == "b_const":
            if len(args) != 1:
                raise InstanceError("b_const takes one integer", lineno)
            if b_const is not None:
                raise InstanceError("second b_const line", lineno)
            b_const = _positive_int(args[0], lineno)
        elif directive == "b":
            if len(args) != 2:
                raise InstanceError("b takes a vertex name and an integer", lineno)
            name = _name(args[0], lineno)
            if name in caps:
                raise InstanceError(f"second b line for {name!r}", lineno)
            caps[name] = _positive_int(args[1], lineno)
        elif directive == "edge":
            edges.append(_parse_edge(args, lineno))
        elif directive == "imputation":
            payoffs = payoffs or {}
            for token in args:
                if "=" not in token:
                    raise InstanceError(f"expected name=value, got {token!r}", lineno)
                name, _, value = token.partition("=")
                name = _name(name, lineno)
                try:
                    payoff = parse_rational(value)
                except ValueError as exc:
                    raise InstanceError(str(exc), lineno) from None
                if payoff < 0:
                    raise InstanceError(f"negative payoff for {name!r}", lineno)
                if name in payoffs:
                    raise InstanceError(f"second payoff for {name!r}", lineno)
                payoffs[name] = payoff
        else:
            raise InstanceError(f"unknown directive {directive!r}", lineno)

    if kind is None:
        raise InstanceError("missing 'game' directive")
    if kind is GameKind.GENERAL:
        if side_u or side_v:
            raise InstanceError("general instances list 'vertices', not sides")
        agents_u, agents_v = vertices, []
    else:
        if vertices:
            raise InstanceError("bipartite instances list side_u/side_v, not 'vertices'")
        agents_u, agents_v = side_u, side_v

    instance = GameInstance(kind, agents_u, agents_v, edges, caps, b_const)
    if payoffs is not None:
        unknown = set(payoffs) - set(instance.agents)
        if unknown:
            raise InstanceError(f"imputation names unknown agents: {sorted(unknown)}")
    return instance, payoffs


def _parse_edge(args: list[str], lineno: int) -> tuple:
    if len(args) < 4 or args[2] != "weight":
        raise InstanceError(
            "edge syntax: edge <name> <name> weight <rational> "
            "[lower <int>] [upper <int>]", lineno)
    u = _name(args[0], lineno)
    v = _name(args[1], lineno)
    try:
        weight = parse_rational(args[3])
    except ValueError as exc:
        raise InstanceError(str(exc), lineno) from None
    bounds: dict[str, int] = {}
    rest = args[4:]
    while rest:
        if len(rest) < 2 or rest[0] not in ("lower", "upper"):
            raise InstanceError(f"unexpected edge tokens {rest!r}", lineno)
        if rest[0] in bounds:
            raise InstanceError(f"second {rest[0]} on one edge line", lineno)
        bounds[rest[0]] = _positive_int(rest[1], lineno, minimum=0)
        rest = rest[2:]
    return (u, v, weight, bounds.get("lower", 0), bounds.get("upper"))


def parse_instance(text: str) -> GameInstance:
    """Parse and validate one instance; imputation lines are permitted
    but dropped (see :func:`parse_instance_with_imputation`)."""
    return parse_instance_with_imputation(text)[0]


def render_instance(instance: GameInstance,
                    payoffs: dict[str, Fraction] | None = None) -> str:
    lines = [f"game {instance.kind.value}"]
    if instance.kind is GameKind.GENERAL:
        lines.append("vertices " + " ".join(instance.side_u))
    else:
        lines.append("side_u " + " ".join(instance.side_u))
        lines.append("side_v " + " ".join(instance.side_v))
    if instance.kind is GameKind.UNIFORM_B:
        lines.append(f"b_const {instance.uniform_capacity}")
    for q, b in instance.capacities:
        lines.append(f"b {q} {b}")
    for e in instance.edges:
        parts = [f"edge {e.u} {e.v} weight {format_rational(e.weight)}"]
        if instance.kind is GameKind.HOFFMAN_KRUSKAL:
            if e.lower:
                parts.append(f"lower {e.lower}")
            if e.upper is not None:
                parts.append(f"upper {e.upper}")
        lines.append(" ".join(parts))
    if payoffs:
        pairs = " ".join(f"{q}={format_rational(v)}" for q, v in payoffs.items())
        lines.append(f"imputation {pairs}")
    return "\n".join(lines) + "\n"
