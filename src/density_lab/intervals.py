"""Exact interval unions and periodic interval patterns on the real line.

Closed intervals with rational endpoints; degenerate points [a, a] are allowed.
Canonical form is sorted, with overlapping or touching intervals merged, so
gaps between stored intervals are strictly positive and canonicalization is
idempotent. Boundaries are null sets for the Haar (Lebesgue) measure, so
closed representatives stand in for the half-open sets of informal usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterable

from .errors import PreconditionError
from .rational import rat

Pair = tuple[Fraction, Fraction]


def _canonical(pairs: Iterable) -> tuple[Pair, ...]:
    norm = []
    for a, b in pairs:
        a, b = rat(a), rat(b)
        if b < a:
            raise PreconditionError(f"interval [{a}, {b}] has negative length")
        norm.append((a, b))
    norm.sort()
    merged: list[list[Fraction]] = []
    for a, b in norm:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


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
        """The set of differences self - self."""
        return self.minkowski(self.negate())

    def complement_within(self, lo, hi) -> "IntervalUnion":
        """Closure of [lo, hi] minus this union; pieces have positive length."""
        lo, hi = rat(lo), rat(hi)
        if hi < lo:
            raise PreconditionError("empty ambient interval")
        gaps = []
        cursor = lo
        for a, b in self.intervals:
            if b < lo or a > hi:
                continue
            if a > cursor:
                gaps.append((cursor, min(a, hi)))
            cursor = max(cursor, b)
            if cursor >= hi:
                break
        if cursor < hi:
            gaps.append((cursor, hi))
        return IntervalUnion(tuple(g for g in gaps if g[1] > g[0]))

    def covers(self, lo, hi) -> bool:
        return self.complement_within(lo, hi).is_empty


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
        object.__setattr__(self, "pattern", _reduce_mod(self.pattern, period))

    @classmethod
    def from_pairs(cls, period, pairs) -> "PeriodicPattern":
        return cls(rat(period), IntervalUnion(tuple(pairs)))

    @property
    def mass(self) -> Fraction:
        return self.pattern.length

    @property
    def density(self) -> Fraction:
        return self.mass / self.period

    def contains_mod(self, q) -> bool:
        r = _mod(rat(q), self.period)
        return self.pattern.contains(r) or (r == 0 and self.pattern.contains(self.period))

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

    def covers_circle(self) -> bool:
        """Whether the repeated set is all of the line."""
        return self.pattern.covers(0, self.period)


def _mod(q: Fraction, period: Fraction) -> Fraction:
    return q - floor(q / period) * period


def _reduce_mod(pattern: IntervalUnion, period: Fraction) -> IntervalUnion:
    pieces = []
    for a, b in pattern.intervals:
        if b - a >= period:
            return IntervalUnion.closed(0, period)
        shift = floor(a / period) * period
        a2, b2 = a - shift, b - shift
        if b2 <= period:
            pieces.append((a2, b2))
        else:
            pieces.append((a2, period))
            pieces.append((Fraction(0), b2 - period))
    return IntervalUnion(tuple(pieces))
