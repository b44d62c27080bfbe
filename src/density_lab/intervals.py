"""Exact interval unions and periodic interval patterns on the real line.

Closed intervals with rational endpoints; degenerate points [a, a] are allowed.
Canonical form is sorted, with overlapping or touching intervals merged, so
gaps between stored intervals are strictly positive and canonicalization is
idempotent. Boundaries are null sets for the Haar (Lebesgue) measure, so
closed representatives stand in for the half-open sets of informal usage.

The module-level merge_pairs, onto_circle, gaps_within and contains_mod are
the one home of these canonical forms, for int and Fraction pairs alike: the
classes run them on Fractions, the line greedy of structure on ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterable

from .config import check_enumeration
from .errors import PreconditionError
from .rational import rat

Pair = tuple[Fraction, Fraction]


def merge_pairs(pairs: Iterable) -> list:
    """Closed pairs (a, b), a <= b, in canonical form: sorted, with
    overlapping or touching pairs merged."""
    merged: list = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def onto_circle(pairs: Iterable, p) -> list:
    """Closed pairs reduced onto the circle [0, p], unmerged: a pair of
    length >= p is the whole circle, one that crosses p is cut there."""
    pieces = []
    for a, b in pairs:
        if b - a >= p:
            return [(0, p)]
        a2 = a % p
        b2 = b - a + a2
        pieces += [(a2, b2)] if b2 <= p else [(a2, p), (0, b2 - p)]
    return pieces


def gaps_within(pairs: Iterable, lo, hi):
    """The pieces of positive length of [lo, hi] minus the canonical pairs,
    in order; pieces split by a point of the pairs touch there."""
    cursor = lo
    for a, b in pairs:
        if a > hi:
            break
        if a > cursor:
            yield cursor, a
        cursor = max(cursor, b)
    if cursor < hi:
        yield cursor, hi


def contains_mod(pairs: Iterable, q, p) -> bool:
    """Whether q mod p lies in the pairs on [0, p], p standing for 0."""
    r = q % p
    return any(a <= r <= b or (r == 0 and a <= p <= b) for a, b in pairs)


def _canonical(pairs: Iterable) -> tuple[Pair, ...]:
    norm = []
    for a, b in pairs:
        a, b = rat(a), rat(b)
        if b < a:
            raise PreconditionError(f"interval [{a}, {b}] has negative length")
        norm.append((a, b))
    return tuple(merge_pairs(norm))


@dataclass(frozen=True)
class IntervalUnion:
    intervals: tuple[Pair, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", _canonical(self.intervals))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def closed(cls, a, b) -> "IntervalUnion":
        return cls(((rat(a), rat(b)),))

    @classmethod
    def point(cls, a) -> "IntervalUnion":
        return cls.closed(a, a)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def length(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    @property
    def inf(self) -> Fraction:
        if self.is_empty:
            raise PreconditionError("empty union has no infimum")
        return self.intervals[0][0]

    @property
    def sup(self) -> Fraction:
        if self.is_empty:
            raise PreconditionError("empty union has no supremum")
        return self.intervals[-1][1]

    def endpoints(self) -> list[Fraction]:
        out = []
        for a, b in self.intervals:
            out.append(a)
            out.append(b)
        return out

    def contains(self, q) -> bool:
        q = rat(q)
        return any(a <= q <= b for a, b in self.intervals)

    def translate(self, q) -> "IntervalUnion":
        q = rat(q)
        return IntervalUnion(tuple((a + q, b + q) for a, b in self.intervals))

    def negate(self) -> "IntervalUnion":
        return IntervalUnion(tuple((-b, -a) for a, b in self.intervals))

    def scale(self, r) -> "IntervalUnion":
        r = rat(r)
        if r <= 0:
            raise PreconditionError("scale factor must be positive")
        return IntervalUnion(tuple((a * r, b * r) for a, b in self.intervals))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.intervals + other.intervals)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        pieces = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    pieces.append((lo, hi))
        return IntervalUnion(tuple(pieces))

    def minkowski(self, other: "IntervalUnion") -> "IntervalUnion":
        """Exact Minkowski sum; empty if either operand is empty."""
        if self.is_empty or other.is_empty:
            return IntervalUnion.empty()
        return IntervalUnion(
            tuple((a + c, b + d) for a, b in self.intervals for c, d in other.intervals)
        )

    def difference_set(self) -> "IntervalUnion":
        """The set of differences self - self; [-L, L] for one interval of
        length L, without the sort and merge of the Minkowski sum."""
        if len(self.intervals) == 1:
            (a, b), = self.intervals
            return IntervalUnion.closed(a - b, b - a)
        return self.minkowski(self.negate())

    def complement_within(self, lo, hi) -> "IntervalUnion":
        """Closure of [lo, hi] minus this union; pieces have positive length."""
        lo, hi = rat(lo), rat(hi)
        if hi < lo:
            raise PreconditionError("empty ambient interval")
        return IntervalUnion(tuple(gaps_within(self.intervals, lo, hi)))


@dataclass(frozen=True)
class PeriodicPattern:
    """A period-p repetition of an interval union contained in [0, p]."""

    period: Fraction
    pattern: IntervalUnion

    def __post_init__(self):
        period = rat(self.period)
        if period <= 0:
            raise PreconditionError("pattern period must be positive")
        object.__setattr__(self, "period", period)
        object.__setattr__(
            self, "pattern", IntervalUnion(tuple(onto_circle(self.pattern.intervals, period))))

    @classmethod
    def from_pairs(cls, period, pairs) -> "PeriodicPattern":
        return cls(rat(period), IntervalUnion(tuple(pairs)))

    @property
    def mass(self) -> Fraction:
        return self.pattern.length

    @property
    def density(self) -> Fraction:
        return self.mass / self.period

    def cumulative(self, t) -> Fraction:
        """Haar mass of the repeated set on [0, t] (signed for t < 0)."""
        t = rat(t)
        k = floor(t / self.period)
        return k * self.mass + self._partial(t - k * self.period)

    def _partial(self, s: Fraction) -> Fraction:
        return self.pattern.intersect(IntervalUnion.closed(0, s)).length

    def mass_on(self, a, b) -> Fraction:
        a, b = rat(a), rat(b)
        if b < a:
            raise PreconditionError("mass_on needs a <= b")
        return self.cumulative(b) - self.cumulative(a)

    def translate(self, q) -> "PeriodicPattern":
        return PeriodicPattern(self.period, self.pattern.translate(rat(q)))

    def negate(self) -> "PeriodicPattern":
        return PeriodicPattern(self.period, self.pattern.negate())

    def minkowski_union(self, other: IntervalUnion) -> "PeriodicPattern":
        return PeriodicPattern(self.period, self.pattern.minkowski(other))

    def difference_set(self) -> "PeriodicPattern":
        return PeriodicPattern(self.period, self.pattern.difference_set())

    def expand_to(self, period) -> "PeriodicPattern":
        """Rewrite with a period that is an integer multiple of the current one."""
        period = rat(period)
        ratio = period / self.period
        if ratio.denominator != 1 or ratio < 1:
            raise PreconditionError("new period must be an integer multiple")
        check_enumeration(int(ratio) * len(self.pattern.intervals),
                          "the expanded pattern: {count} pieces exceed the cap {cap}")
        pieces = []
        for k in range(int(ratio)):
            shift = k * self.period
            pieces.extend((a + shift, b + shift) for a, b in self.pattern.intervals)
        return PeriodicPattern(period, IntervalUnion(tuple(pieces)))

    def materialize(self, lo, hi) -> IntervalUnion:
        """The actual subset of [lo, hi], as a plain interval union."""
        lo, hi = rat(lo), rat(hi)
        k_lo = floor(lo / self.period) - 1
        k_hi = floor(hi / self.period) + 1
        pieces = []
        for k in range(k_lo, k_hi + 1):
            shift = k * self.period
            for a, b in self.pattern.intervals:
                pieces.append((a + shift, b + shift))
        return IntervalUnion(tuple(pieces)).intersect(IntervalUnion.closed(lo, hi))
