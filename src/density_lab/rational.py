"""Exact rational scalars plus a certified infinity value.

Everything quantitative in this library is a fractions.Fraction; floats appear
only in display fields (decimal approximations, wall times).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Iterable, Union

from .errors import InstanceParseError


# an integer or p/q in decimal digits; no decimal point or exponent, which
# Fraction would expand in full ("1e99999999" is a 100-million-digit int)
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def rat(value: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string."""
    if isinstance(value, bool):
        raise InstanceParseError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceParseError(f"not a rational: {value!r}") from exc
    raise InstanceParseError(f"not a rational: {value!r}")


def rat_str(q: Fraction) -> str:
    """Canonical "p/q" (or integer) rendering."""
    return str(q) if isinstance(q, Fraction) else str(Fraction(q))


def common_scale(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(D, [q * D for q in values]) with D the lcm of the denominators (1 for
    no values): the integer normal form of a rational configuration, which
    keeps every sum, difference, order and membership test exact."""
    values = list(values)
    D = lcm(*(q.denominator for q in values))
    return D, [q.numerator * (D // q.denominator) for q in values]


def rat_float(q: Fraction, digits: int = 6) -> float:
    """Decimal approximation for display only."""
    return float(f"{float(q):.{digits}g}")


class Infinite:
    """Certified infinite value.

    All Infinite instances compare equal; the certificate travels alongside so
    reports stay machine-checkable (an accumulation window, or a diverging
    (F, V) schedule).
    """

    __slots__ = ("certificate",)

    def __init__(self, certificate: Any = None):
        object.__setattr__(self, "certificate", certificate)

    def __setattr__(self, name, value):
        raise AttributeError("Infinite is immutable")

    def __eq__(self, other):
        return isinstance(other, Infinite)

    def __hash__(self):
        return hash("Infinite")

    def __repr__(self):
        return "Infinite"


INFINITE = Infinite()


def is_infinite(value) -> bool:
    return isinstance(value, Infinite)


def frac_lcm(a: Fraction, b: Fraction) -> Fraction:
    """Least common positive multiple of two positive rationals."""
    if a <= 0 or b <= 0:
        raise ValueError("lcm needs positive rationals")
    num = (a.numerator * b.denominator) * (b.numerator * a.denominator) // gcd(
        a.numerator * b.denominator, b.numerator * a.denominator
    )
    return Fraction(num, a.denominator * b.denominator)
