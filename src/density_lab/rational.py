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
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rat(value: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string. A
    Fraction (not a subclass) is immutable and returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise InstanceParseError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match:  # p and q parsed once; int refuses a numeral over its digit limit
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceParseError(f"not a rational: {value!r}") from exc
    raise InstanceParseError(f"not a rational: {value!r}")


def rat_str(q: Fraction) -> str:
    """Canonical "p/q" (or integer) rendering."""
    return str(q) if isinstance(q, Fraction) else str(Fraction(q))


def ratio_strs(xs: Iterable[int], d: int) -> list[str]:
    """[rat_str(Fraction(x, d)) for x in xs] for a positive d, without the
    Fractions: one gcd per absolute value, as a negative x prints as "-" and
    the string of -x, which a symmetric set (a difference set) has built."""
    strs: dict[int, str] = {}
    out = []
    for x in xs:
        a = abs(x)
        s = strs.get(a)
        if s is None:
            g = gcd(a, d)
            s = strs[a] = str(a // g) if g == d else f"{a // g}/{d // g}"
        out.append("-" + s if x < 0 else s)
    return out


def common_scale(values: Iterable[Fraction], D: int = 1) -> tuple[int, list[int]]:
    """(E, [q * E for q in values]) with E the lcm of D and the denominators:
    the integer normal form of a rational configuration, which keeps every
    sum, difference, order and membership test exact. The line configurations
    of sets build theirs once, in their constructors; this scales what holds
    Fractions (interval endpoints, Dirac weights, windows), joined to ints
    held over D, which the caller multiplies by E // D when that is not 1."""
    values = list(values)
    E = lcm(D, *(q.denominator for q in values))
    return E, [q.numerator * (E // q.denominator) for q in values]


def rat_float(q: Fraction) -> float:
    """Decimal approximation to 6 significant digits, for display only."""
    return float(f"{float(q):.6g}")


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
