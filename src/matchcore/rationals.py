"""Exact rational numbers: parsing, formatting, integer scaling, exact
dot products, and float rejection.

Every number in this package is a ``fractions.Fraction``, which is stored
in lowest terms with a positive denominator. Binary floats are rejected at
every entry point because they cannot represent most decimal or rational
inputs exactly. Arithmetic over a whole vector runs in integers:
``scaled`` puts a vector over its smallest common denominator, and
``dot`` multiplies two vectors with one integer sum of products, building
only its one result as a ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIONAL = re.compile(r"[-+]?([0-9]+(/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def ensure_rational(value) -> Fraction:
    """Coerce ints, strings, and Fractions to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(
        f"expected an exact rational (int, Fraction, or string), got {type(value).__name__}"
    )


def parse_rational(token: str) -> Fraction:
    """Parse ``p``, ``p/q``, or a finite decimal literal, exactly.

    Only an optional sign and ASCII digits: no exponent, ``_`` or other
    script's digit. Decimals convert without rounding: ``1.5`` becomes ``3/2``.
    """
    text = token.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {token!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"not a rational literal: {token!r}") from None


def scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` as (ints, scale) over their smallest positive common
    denominator: value i is ``ints[i] / scale`` (TypeError on a float).
    Each denominator is read once, and over a common denominator of one
    the numerators are the ints."""
    try:
        dens = [a.denominator for a in values]
    except AttributeError:      # an entry that is not an int or a Fraction
        bad = next(a for a in values if not isinstance(a, (int, Fraction)))
        raise TypeError(f"expected an exact rational, got {type(bad).__name__}") from None
    scale = lcm(*dens)
    if scale == 1:
        return [a.numerator for a in values], 1
    return [a.numerator * (scale // d) for a, d in zip(values, dens)], scale


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """``sum(x * y for x, y in zip(a, b))``, exactly: each side is scaled to
    integers once, the products are summed as ints, and the one result is
    the only ``Fraction`` built. Ints may stand for rationals on either
    side; the empty product is zero."""
    ints_a, scale_a = scaled(a)
    ints_b, scale_b = scaled(b)
    return Fraction(sum(map(mul, ints_a, ints_b)), scale_a * scale_b)


def format_rational(value: Fraction) -> str:
    """Render as ``p/q``, or just ``p`` when the denominator is one."""
    return str(ensure_rational(value))
