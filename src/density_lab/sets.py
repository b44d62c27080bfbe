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
from math import ceil, lcm, prod
from typing import Optional, Union

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

    def __post_init__(self):
        object.__setattr__(self, "point", rat(self.point))
        if self.side not in ("above", "below", "both"):
            raise PreconditionError("accumulation side must be above, below, or both")


@dataclass(frozen=True)
class FinitePoints:
    points: tuple[Fraction, ...] = ()
    accumulation: tuple[AccumulationPoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted({rat(p) for p in self.points})))
        object.__setattr__(self, "accumulation", tuple(self.accumulation))

    @classmethod
    def _canonical(cls, points: tuple[Fraction, ...], accumulation=()) -> "FinitePoints":
        """The configuration of points that are already sorted, distinct
        Fractions, set without the validation and sort of __post_init__."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "points", points)
        object.__setattr__(obj, "accumulation", tuple(accumulation))
        return obj

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class PeriodicPoints:
    """The fully periodic configuration residues + period * Z."""

    period: Fraction
    residues: tuple[Fraction, ...] = ()

    def __post_init__(self):
        period = rat(self.period)
        if period <= 0:
            raise PreconditionError("period must be positive")
        reduced = sorted({rat(r) % period for r in map(rat, self.residues)})
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", tuple(reduced))

    @classmethod
    def _canonical(cls, period: Fraction, residues: tuple[Fraction, ...]) -> "PeriodicPoints":
        """The configuration of a positive Fraction period and residues that
        are already sorted, distinct and in [0, period), set without the
        validation and reduction of __post_init__."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "period", period)
        object.__setattr__(obj, "residues", residues)
        return obj

    @classmethod
    def lattice(cls, step) -> "PeriodicPoints":
        return cls(rat(step), (Fraction(0),))

    @property
    def counting_density(self) -> Fraction:
        return Fraction(len(self.residues), 1) / self.period

    def contains(self, q) -> bool:
        q = rat(q)
        return q % self.period in set(self.residues)

    def materialize(self, lo, hi) -> tuple[Fraction, ...]:
        lo, hi = rat(lo), rat(hi)
        out = []
        for r in self.residues:
            k = ceil((lo - r) / self.period)
            while r + k * self.period <= hi:
                out.append(r + k * self.period)
                k += 1
        return tuple(sorted(out))

    def min_positive_difference(self) -> Fraction:
        """Least positive element of the difference set: the least positive
        residue difference mod the period, or the period itself when there is
        none (a single residue)."""
        diffs = difference_residues_mod(self.residues, self.period)
        return min((d for d in diffs if d > 0), default=self.period)


def difference_residues_mod(residues, period) -> tuple[Fraction, ...]:
    D, (P, *xs) = common_scale((period, *residues))
    return tuple(Fraction(d, D) for d in sorted({(x - y) % P for x in xs for y in xs}))


@dataclass(frozen=True)
class PerturbedLattice:
    """step * Z with finitely many added and removed points.

    Removed points must lie on the lattice; extras must not duplicate surviving
    lattice points. The accumulation marker describes the idealized infinite
    family the truncation stands for (e.g. 1/n tails).
    """

    step: Fraction
    extra: tuple[Fraction, ...] = ()
    removed: tuple[Fraction, ...] = ()
    accumulation: tuple[AccumulationPoint, ...] = ()

    def __post_init__(self):
        step = rat(self.step)
        if step <= 0:
            raise PreconditionError("lattice step must be positive")
        extra = tuple(sorted({rat(p) for p in self.extra}))
        removed = tuple(sorted({rat(p) for p in self.removed}))
        for p in removed:
            if (p / step).denominator != 1:
                raise PreconditionError(f"removed point {p} is not on the lattice")
        removed_set = set(removed)
        for p in extra:
            if (p / step).denominator == 1 and p not in removed_set:
                raise PreconditionError(f"extra point {p} duplicates a lattice point")
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "extra", extra)
        object.__setattr__(self, "removed", removed)
        object.__setattr__(self, "accumulation", tuple(self.accumulation))

    def perturbation_span(self) -> Optional[tuple[Fraction, Fraction]]:
        pts = self.extra + self.removed
        if not pts:
            return None
        return (min(pts), max(pts))

    def materialize(self, lo, hi) -> tuple[Fraction, ...]:
        lo, hi = rat(lo), rat(hi)
        removed = set(self.removed)
        out = [p for p in self.extra if lo <= p <= hi]
        k = ceil(lo / self.step)
        while k * self.step <= hi:
            p = k * self.step
            if p not in removed:
                out.append(p)
            k += 1
        return tuple(sorted(out))


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
        group.check_order()
        return group, [group.index(e) for e in s.elements], tuple
    if isinstance(group, ZLattice) and isinstance(s, PeriodicDiscrete):
        quotient = FiniteAbelian(s.period)
        quotient.check_order()
        return quotient, [quotient.index(group.check(r)) for r in s.residues], tuple
    if isinstance(group, SigmaFiniteChain) and isinstance(s, CylinderSet):
        s.validate_for(group)
        quotient = group.subgroup(group.depth)
        quotient.check_order()
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
    differenced in their integer normal form (rational.common_scale): ints
    over one common denominator D, mapped back to Fractions d / D once.
    """
    if _set_is_empty(s):
        warnings.warn("difference set of an empty set is empty (0 not included)")
        return _empty_like(s, group)
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
        return PeriodicPoints(s.period, difference_residues_mod(s.residues, s.period))
    if isinstance(s, FinitePoints):
        acc = (AccumulationPoint(Fraction(0), "both"),) if s.accumulation else ()
        D, xs = common_scale(s.points)
        diffs = sorted({x - y for x in xs for y in xs})
        return FinitePoints._canonical(tuple(Fraction(d, D) for d in diffs), acc)
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
    D, ints = common_scale((lo, hi, s.step, *s.extra, *s.removed))
    lo_i, hi_i, step = ints[:3]
    extra = ints[3 : 3 + len(s.extra)]
    removed = set(ints[3 + len(s.extra) :])

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
    points = tuple(Fraction(d, D) for d in sorted(diffs))
    return WindowedDifferenceSet(
        points=FinitePoints._canonical(points, acc), window=(lo, hi)
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
        return not s.residues
    if isinstance(s, FinitePoints):
        return not s.points and not s.accumulation
    if isinstance(s, PerturbedLattice):
        return False
    if isinstance(s, CylinderSet):
        return not s.residues
    raise PreconditionError(f"unknown set type: {type(s).__name__}")


def _empty_like(s, group):
    if isinstance(s, ExplicitFinite):
        return ExplicitFinite(())
    if isinstance(s, PeriodicDiscrete):
        return PeriodicDiscrete(s.period, ())
    if isinstance(s, IntervalUnion):
        return IntervalUnion.empty()
    if isinstance(s, PeriodicPattern):
        return PeriodicPattern(s.period, IntervalUnion.empty())
    if isinstance(s, PeriodicPoints):
        return PeriodicPoints(s.period, ())
    return FinitePoints(())


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
