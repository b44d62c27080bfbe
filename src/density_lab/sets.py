"""Set and measure representations with exact Minkowski and difference operations.

Discrete-group sets are explicit finite lists or residue classes of a diagonal
period lattice. Real-line point configurations are finite lists, fully
periodic residue systems, or a lattice with finitely many explicit
perturbations; an explicit accumulation marker records limit points of the
idealized (untruncated) configuration. Measures are counting measures, Haar
traces, Dirac masses, weighted Dirac sums, and finite sums of these.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, lcm, prod
from typing import Optional, Union

from .config import check_enumeration
from .errors import PreconditionError, ShapeMismatchError
from .groups import (
    FiniteAbelian,
    GroupSpec,
    RealLine,
    SigmaFiniteChain,
    ZLattice,
    _strip,
)
from .intervals import IntervalUnion, PeriodicPattern
from .rational import Infinite, common_scale, frac_lcm, rat


# ---------------------------------------------------------------------------
# discrete-group sets


@dataclass(frozen=True)
class ExplicitFinite:
    """A finite set of group elements, sorted and deduplicated."""

    elements: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class PeriodicDiscrete:
    """Residue classes of a diagonal period lattice in Z^d."""

    period: tuple[int, ...]
    residues: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        period = tuple(self.period)
        if any(not isinstance(m, int) or m < 1 for m in period):
            raise PreconditionError("all periods must be positive integers")
        reduced = set()
        for r in self.residues:
            r = tuple(r)
            if len(r) != len(period):
                raise ShapeMismatchError(f"residue {r!r} does not match period {period!r}")
            reduced.add(tuple(c % m for c, m in zip(r, period)))
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", tuple(sorted(reduced)))

    @classmethod
    def line(cls, period: int, residues) -> "PeriodicDiscrete":
        return cls((period,), tuple((r,) for r in residues))

    @property
    def dimension(self) -> int:
        return len(self.period)

    def line_residues(self) -> tuple[int, ...]:
        if self.dimension != 1:
            raise PreconditionError("line_residues needs a one-dimensional set")
        return tuple(r[0] for r in self.residues)


# ---------------------------------------------------------------------------
# real-line point configurations


@dataclass(frozen=True)
class AccumulationPoint:
    """A limit point of the idealized configuration, with the approach side."""

    point: Fraction
    side: str = "above"
    SIDES = ("above", "below", "both")  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "point", rat(self.point))
        if self.side not in self.SIDES:
            raise PreconditionError("accumulation side must be above, below, or both")


class _Held:
    """A line configuration in its integer normal form (rational.common_scale):
    _D, the lcm of the denominators of its Fraction fields, and each such
    field f as the ints f * _D in _f (an int, or a sorted tuple of distinct
    ints). The constructors build only this form, sorting and deduplicating
    on the ints (_canonical, from ints, reduces them to lowest terms); each
    Fraction tuple field is built from its ints when first read, and kept.
    Fields, ==, hash and repr are those of the dataclass."""

    def __getattr__(self, name):  # called only for an attribute that is unset
        ints = None if name.startswith("_") else self.__dict__.get("_" + name)
        if not isinstance(ints, tuple):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        D = self._D
        value = self.__dict__[name] = tuple(Fraction(x, D) for x in ints)
        return value


def _lowest_terms(D: int, xs) -> tuple[int, tuple[int, ...]]:
    """(D, xs) divided by gcd(D, *xs): the lcm of the reduced denominators of
    the x / D, and the ints over it."""
    g = gcd(D, *xs)
    return (D, tuple(xs)) if g == 1 else (D // g, tuple(x // g for x in xs))


@dataclass(frozen=True, init=False)
class FinitePoints(_Held):
    points: tuple[Fraction, ...]
    accumulation: tuple[AccumulationPoint, ...]

    def __init__(self, points=(), accumulation=()):
        D, xs = common_scale([rat(p) for p in points])
        xs = tuple(sorted(set(xs)))
        self.__dict__.update(accumulation=tuple(accumulation), _D=D, _points=xs)

    @classmethod
    def _canonical(cls, D: int, xs, accumulation=()) -> "FinitePoints":
        """The configuration of the points x / D for sorted distinct ints xs."""
        obj = object.__new__(cls)
        D, xs = _lowest_terms(D, xs)
        obj.__dict__.update(accumulation=tuple(accumulation), _D=D, _points=xs)
        return obj

    def __len__(self):
        return len(self._points)


@dataclass(frozen=True, init=False)
class PeriodicPoints(_Held):
    """The fully periodic configuration residues + period * Z."""

    period: Fraction
    residues: tuple[Fraction, ...]

    def __init__(self, period, residues=()):
        period = rat(period)
        if period <= 0:
            raise PreconditionError("period must be positive")
        D, (P, *xs) = common_scale((period, *map(rat, residues)))
        xs = tuple(sorted({x % P for x in xs}))  # reduction keeps D
        self.__dict__.update(period=period, _D=D, _period=P, _residues=xs)

    @classmethod
    def _canonical(cls, D: int, P: int, xs) -> "PeriodicPoints":
        """The configuration of period P / D and residues x / D for sorted
        distinct ints xs in [0, P)."""
        obj = object.__new__(cls)
        D, (P, *xs) = _lowest_terms(D, (P, *xs))
        obj.__dict__.update(period=Fraction(P, D), _D=D, _period=P, _residues=tuple(xs))
        return obj

    @classmethod
    def lattice(cls, step) -> "PeriodicPoints":
        return cls(rat(step), (Fraction(0),))

    @property
    def counting_density(self) -> Fraction:
        return Fraction(len(self._residues) * self._D, self._period)

    def contains(self, q) -> bool:
        x = rat(q) * self._D
        return x.denominator == 1 and x.numerator % self._period in set(self._residues)

    def materialize(self, lo, hi) -> tuple[Fraction, ...]:
        D, P = self._D, self._period
        lo, hi = ceil(rat(lo) * D), floor(rat(hi) * D)
        xs = sorted(x for r in self._residues for x in range(lo + (r - lo) % P, hi + 1, P))
        return tuple(Fraction(x, D) for x in xs)


@dataclass(frozen=True, init=False)
class PerturbedLattice(_Held):
    """step * Z with finitely many added and removed points.

    Removed points must lie on the lattice; extras must not duplicate surviving
    lattice points. The accumulation marker describes the idealized infinite
    family the truncation stands for (e.g. 1/n tails).
    """

    step: Fraction
    extra: tuple[Fraction, ...]
    removed: tuple[Fraction, ...]
    accumulation: tuple[AccumulationPoint, ...]

    def __init__(self, step, extra=(), removed=(), accumulation=()):
        step = rat(step)
        if step <= 0:
            raise PreconditionError("lattice step must be positive")
        extra, removed = [rat(p) for p in extra], [rat(p) for p in removed]
        D, (S, *xs) = common_scale((step, *extra, *removed))
        n = len(extra)
        extra, removed = tuple(sorted(set(xs[:n]))), tuple(sorted(set(xs[n:])))
        for x in removed:
            if x % S:
                raise PreconditionError(f"removed point {Fraction(x, D)} is not on the lattice")
        removed_set = set(removed)
        for x in extra:
            if x % S == 0 and x not in removed_set:
                raise PreconditionError(f"extra point {Fraction(x, D)} duplicates a lattice point")
        self.__dict__.update(step=step, accumulation=tuple(accumulation), _D=D, _step=S,
                             _extra=extra, _removed=removed)

    def perturbation_span(self) -> Optional[tuple[Fraction, Fraction]]:
        pts = self._extra + self._removed
        if not pts:
            return None
        return (Fraction(min(pts), self._D), Fraction(max(pts), self._D))

    def _within(self, lo, hi) -> list[int]:
        """The sorted points in [lo, hi], as ints over _D."""
        D, S = self._D, self._step
        lo, hi = ceil(rat(lo) * D), floor(rat(hi) * D)
        removed = set(self._removed)
        lattice = (x for x in range(-(-lo // S) * S, hi + 1, S) if x not in removed)
        return sorted([*(x for x in self._extra if lo <= x <= hi), *lattice])

    def materialize(self, lo, hi) -> tuple[Fraction, ...]:
        D = self._D
        return tuple(Fraction(x, D) for x in self._within(lo, hi))


PointConfig = Union[FinitePoints, PeriodicPoints, PerturbedLattice]


@dataclass(frozen=True)
class CylinderSet:
    """Chain subset determined by the first `depth` coordinates."""

    depth: int
    residues: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not isinstance(self.depth, int) or self.depth < 0:
            raise PreconditionError("cylinder depth must be a nonnegative integer")
        res = set()
        for r in self.residues:
            r = tuple(r)
            if len(r) != self.depth:
                raise ShapeMismatchError(f"residue {r!r} must have length {self.depth}")
            res.add(r)
        object.__setattr__(self, "residues", tuple(sorted(res)))

    def validate_for(self, chain: SigmaFiniteChain):
        if self.depth > chain.depth:
            raise PreconditionError("cylinder depth exceeds the materialized chain depth")
        for r in self.residues:
            for c, m in zip(r, chain.moduli):
                if not (0 <= c < m):
                    raise ShapeMismatchError(f"residue {r!r} outside the chain moduli")

    def contains(self, g, chain: SigmaFiniteChain) -> bool:
        g = chain.pad(g, max(self.depth, len(chain.check(g))))
        return g[: self.depth] in set(self.residues)

    def count_in_subgroup(self, chain: SigmaFiniteChain, n: int) -> int:
        """Exact |A intersect H_n|."""
        self.validate_for(chain)
        if n >= self.depth:
            return len(self.residues) * prod(chain.moduli[self.depth : n])
        count = 0
        for r in self.residues:
            if all(c == 0 for c in r[n:]):
                count += 1
        return count


def discrete_quotient(s, group: GroupSpec):
    """(quotient, sorted indices of s in it, lift of quotient elements to group
    elements) or None: ExplicitFinite on FiniteAbelian, PeriodicDiscrete on
    ZLattice (FiniteAbelian(period)), both lifted as the same int tuples, or
    CylinderSet on a chain (H_depth, lifted by _strip). Elements are checked,
    and the order held to Caps.enumeration, before any index is built."""
    if isinstance(group, FiniteAbelian) and isinstance(s, ExplicitFinite):
        check_enumeration(group.order)
        return group, [group.index(e) for e in s.elements], tuple
    if isinstance(group, ZLattice) and isinstance(s, PeriodicDiscrete):
        quotient = FiniteAbelian(s.period)
        check_enumeration(quotient.order)
        return quotient, [quotient.index(group.check(r)) for r in s.residues], tuple
    if isinstance(group, SigmaFiniteChain) and isinstance(s, CylinderSet):
        s.validate_for(group)
        quotient = group.subgroup(group.depth)
        check_enumeration(quotient.order)
        head = FiniteAbelian(group.moduli[: s.depth])
        tail = prod(group.moduli[s.depth :])  # each residue is a run of tail consecutive cells
        return quotient, [head.index(r) * tail + t for r in s.residues for t in range(tail)], _strip
    return None


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Counting:
    of: Union[ExplicitFinite, PeriodicDiscrete, PointConfig, CylinderSet]


@dataclass(frozen=True)
class HaarTrace:
    of: Union[ExplicitFinite, PeriodicDiscrete, IntervalUnion, PeriodicPattern]


@dataclass(frozen=True)
class DiracAtZero:
    pass


@dataclass(frozen=True)
class WeightedDiracs:
    atoms: tuple[tuple, ...] = ()  # (point, positive weight)

    def __post_init__(self):
        atoms = []
        for point, weight in self.atoms:
            weight = rat(weight)
            if weight <= 0:
                raise PreconditionError("Dirac weights must be positive")
            atoms.append((point, weight))
        atoms.sort(key=lambda pw: (_sort_key(pw[0]), pw[1]))
        object.__setattr__(self, "atoms", tuple(atoms))


def _sort_key(point):
    return point if isinstance(point, tuple) else (rat(point),)


@dataclass(frozen=True)
class MeasureSum:
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


# ---------------------------------------------------------------------------
# Minkowski sums


def minkowski_sum(a, b, group: GroupSpec):
    """Exact Minkowski sum of two finitely represented same-group sets."""
    for x, y in ((a, b), (b, a)):
        result = _minkowski_directed(x, y, group)
        if result is not NotImplemented:
            return result
    raise PreconditionError(
        f"unsupported Minkowski operands: {type(a).__name__} + {type(b).__name__}"
    )


def _minkowski_directed(a, b, group):
    if isinstance(a, ExplicitFinite) and isinstance(b, ExplicitFinite):
        return ExplicitFinite(tuple(group.add(x, y) for x in a.elements for y in b.elements))
    if isinstance(a, PeriodicDiscrete) and isinstance(b, PeriodicDiscrete):
        period = tuple(map(lcm, a.period, b.period))
        ra = _expand_residues(a, period)
        rb = _expand_residues(b, period)
        sums = {
            tuple((x + y) % m for x, y, m in zip(p, q, period)) for p in ra for q in rb
        }
        return PeriodicDiscrete(period, tuple(sums))
    if isinstance(a, PeriodicDiscrete) and isinstance(b, ExplicitFinite):
        sums = {
            tuple((x + y) % m for x, y, m in zip(r, e, a.period))
            for r in a.residues
            for e in b.elements
        }
        return PeriodicDiscrete(a.period, tuple(sums))
    if isinstance(a, IntervalUnion) and isinstance(b, IntervalUnion):
        return a.minkowski(b)
    if isinstance(a, IntervalUnion) and isinstance(b, FinitePoints):
        return IntervalUnion(
            tuple((lo + p, hi + p) for lo, hi in a.intervals for p in b.points)
        )
    if isinstance(a, PeriodicPattern) and isinstance(b, IntervalUnion):
        return a.minkowski_union(b)
    if isinstance(a, PeriodicPattern) and isinstance(b, PeriodicPattern):
        period = frac_lcm(a.period, b.period)
        ea, eb = a.expand_to(period), b.expand_to(period)
        return PeriodicPattern(period, ea.pattern.minkowski(eb.pattern))
    if isinstance(a, PeriodicPoints) and isinstance(b, PeriodicPoints):
        period = frac_lcm(a.period, b.period)
        ra = _expand_points(a, period)
        rb = _expand_points(b, period)
        return PeriodicPoints(period, tuple((x + y) % period for x in ra for y in rb))
    if isinstance(a, PeriodicPoints) and isinstance(b, FinitePoints):
        return PeriodicPoints(
            a.period, tuple((r + p) % a.period for r in a.residues for p in b.points)
        )
    if isinstance(a, PeriodicPoints) and isinstance(b, IntervalUnion):
        if b.is_empty or not a.residues:
            return PeriodicPattern(a.period, IntervalUnion.empty())
        pieces = tuple((r + lo, r + hi) for r in a.residues for lo, hi in b.intervals)
        return PeriodicPattern(a.period, IntervalUnion(pieces))
    if isinstance(a, FinitePoints) and isinstance(b, FinitePoints):
        return FinitePoints(tuple(x + y for x in a.points for y in b.points))
    return NotImplemented


def _expand_residues(s: PeriodicDiscrete, period: tuple[int, ...]):
    reps = [range(p // q) for p, q in zip(period, s.period)]
    out = []
    for r in s.residues:
        for mults in product(*reps):
            out.append(tuple(c + k * q for c, k, q in zip(r, mults, s.period)))
    return out


def _expand_points(s: PeriodicPoints, period: Fraction):
    reps = int(period / s.period)
    return [r + k * s.period for r in s.residues for k in range(reps)]


# ---------------------------------------------------------------------------
# difference sets


@dataclass(frozen=True)
class WindowedDifferenceSet:
    """Difference set of an infinite configuration, exact within a window."""

    points: FinitePoints
    window: tuple[Fraction, Fraction]


def difference_set(s, group: GroupSpec, window=None):
    """Exact S - S; symmetric and containing 0 whenever S is nonempty.

    PerturbedLattice inputs require a truncation window; the result is then the
    exact intersection of S - S with that window. Point configurations are
    differenced in the integer normal form they hold (_Held): ints over one
    common denominator D, and the result is built from the int differences,
    its Fractions only when first read.
    """
    if _set_is_empty(s):
        warnings.warn("difference set of an empty set is empty (0 not included)")
    if isinstance(s, ExplicitFinite):
        return ExplicitFinite(
            tuple(group.add(x, group.negate(y)) for x in s.elements for y in s.elements)
        )
    if isinstance(s, PeriodicDiscrete):
        diffs = {
            tuple((x - y) % m for x, y, m in zip(p, q, s.period))
            for p in s.residues
            for q in s.residues
        }
        return PeriodicDiscrete(s.period, tuple(diffs))
    if isinstance(s, IntervalUnion):
        return s.difference_set()
    if isinstance(s, PeriodicPattern):
        return s.difference_set()
    if isinstance(s, PeriodicPoints):
        P, xs = s._period, s._residues
        return PeriodicPoints._canonical(s._D, P, sorted({(x - y) % P for x in xs for y in xs}))
    if isinstance(s, FinitePoints):
        acc = (AccumulationPoint(Fraction(0), "both"),) if s.accumulation else ()
        if not s._points:  # an accumulation marker alone
            return FinitePoints._canonical(1, (), acc)
        xs = s._points
        pos = sorted({x - y for i, x in enumerate(xs) for y in xs[:i]})
        # 0 and the negatives mirror the positives
        return FinitePoints._canonical(s._D, (*(-d for d in reversed(pos)), 0, *pos), acc)
    if isinstance(s, PerturbedLattice):
        if window is None:
            raise PreconditionError(
                "difference set of a perturbed lattice needs a truncation window"
            )
        return _perturbed_difference(s, window)
    raise PreconditionError(f"unsupported difference-set input: {type(s).__name__}")


def _perturbed_difference(s: PerturbedLattice, window) -> WindowedDifferenceSet:
    lo, hi = rat(window[0]), rat(window[1])
    if hi < lo:
        raise PreconditionError("truncation window is empty")
    D, (lo_i, hi_i) = common_scale((lo, hi), s._D)
    k = D // s._D
    step, extra, removed = s._step * k, [x * k for x in s._extra], {x * k for x in s._removed}

    def lattice(lo_m, hi_m):  # the multiples of step in [lo_m, hi_m]
        return range(-(-lo_m // step) * step, hi_m + 1, step)

    # lattice - lattice: every multiple of the step survives (removals are finite)
    diffs = set(lattice(lo_i, hi_i))
    # extra vs lattice, both signs: e - p and p - e in [lo, hi]
    for e in extra:
        diffs.update(e - p for p in lattice(e - hi_i, e - lo_i) if p not in removed)
        diffs.update(p - e for p in lattice(e + lo_i, e + hi_i) if p not in removed)
    # extra - extra
    diffs.update(d for x in extra for y in extra if lo_i <= (d := x - y) <= hi_i)
    acc = (AccumulationPoint(Fraction(0), "both"),) if s.accumulation else ()
    return WindowedDifferenceSet(
        points=FinitePoints._canonical(D, sorted(diffs), acc), window=(lo, hi)
    )


def _set_is_empty(s) -> bool:
    if isinstance(s, ExplicitFinite):
        return not s.elements
    if isinstance(s, PeriodicDiscrete):
        return not s.residues
    if isinstance(s, IntervalUnion):
        return s.is_empty
    if isinstance(s, PeriodicPattern):
        return s.pattern.is_empty
    if isinstance(s, PeriodicPoints):
        return not s._residues
    if isinstance(s, FinitePoints):
        return not s._points and not s.accumulation
    if isinstance(s, (PerturbedLattice, CylinderSet)):
        return False  # a lattice is never empty; difference_set refuses cylinders
    raise PreconditionError(f"unknown set type: {type(s).__name__}")


# ---------------------------------------------------------------------------
# Haar measure of sets


def haar(obj, group: GroupSpec):
    """Haar measure of a set: cardinality on discrete groups, length on the line.

    Unbounded periodic sets report Infinite with the per-period mass attached
    as the certificate.
    """
    if isinstance(group, (ZLattice, FiniteAbelian, SigmaFiniteChain)):
        if isinstance(obj, ExplicitFinite):
            return Fraction(len(obj.elements))
        if isinstance(obj, PeriodicDiscrete):
            return Infinite(("per-period", Fraction(len(obj.residues)), obj.period))
        if isinstance(obj, CylinderSet):
            if not obj.residues:
                return Fraction(0)
            return Infinite(("cylinder", obj.depth, len(obj.residues)))
    if isinstance(group, RealLine):
        if isinstance(obj, IntervalUnion):
            return obj.length
        if isinstance(obj, PeriodicPattern):
            if obj.mass == 0:
                return Fraction(0)
            return Infinite(("per-period", obj.mass, obj.period))
        if isinstance(obj, (FinitePoints, PeriodicPoints, PerturbedLattice)):
            return Fraction(0)  # countable sets are Lebesgue-null
    raise PreconditionError(
        f"haar measure unsupported for {type(obj).__name__} on {type(group).__name__}"
    )


# ---------------------------------------------------------------------------
# translations (used by the invariance test suites)


def translate_set(s, g, group: GroupSpec):
    if isinstance(s, ExplicitFinite):
        return ExplicitFinite(tuple(group.add(e, g) for e in s.elements))
    if isinstance(s, PeriodicDiscrete):
        g = group.check(g)
        return PeriodicDiscrete(
            s.period,
            tuple(tuple((c + d) % m for c, d, m in zip(r, g, s.period)) for r in s.residues),
        )
    if isinstance(s, IntervalUnion):
        return s.translate(rat(g))
    if isinstance(s, PeriodicPattern):
        return s.translate(rat(g))
    if isinstance(s, PeriodicPoints):
        return PeriodicPoints(s.period, tuple((r + rat(g)) % s.period for r in s.residues))
    if isinstance(s, FinitePoints):
        q = rat(g)
        return FinitePoints(
            tuple(p + q for p in s.points),
            accumulation=tuple(
                AccumulationPoint(a.point + q, a.side) for a in s.accumulation
            ),
        )
    if isinstance(s, PerturbedLattice):
        raise PreconditionError("translate a perturbed lattice by materializing it first")
    raise PreconditionError(f"unsupported translate input: {type(s).__name__}")


def translate_measure(nu, g, group: GroupSpec):
    if isinstance(nu, Counting):
        return Counting(translate_set(nu.of, g, group))
    if isinstance(nu, HaarTrace):
        return HaarTrace(translate_set(nu.of, g, group))
    if isinstance(nu, DiracAtZero):
        return WeightedDiracs(((g, Fraction(1)),))
    if isinstance(nu, WeightedDiracs):
        return WeightedDiracs(tuple((group.add(p, g), w) for p, w in nu.atoms))
    if isinstance(nu, MeasureSum):
        return MeasureSum(tuple(translate_measure(c, g, group) for c in nu.components))
    raise PreconditionError(f"unsupported measure: {type(nu).__name__}")
