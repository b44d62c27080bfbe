"""Set and measure representations with exact Minkowski and difference operations.

Discrete-group sets are explicit finite lists or residue classes of a diagonal
period lattice; they and weighted Dirac sums hold _shape (_int_shape), so
that a group checks their points once (check_points). On Z^d and a finite
group such a set is held as (period or None, int tuples): a subset of a
finite group as residues mod the moduli, a PeriodicDiscrete (of Z^d only)
as residues mod its period, a finite subset of Z^d as points; one kernel
(_discrete) forms every sum, difference set and translate of them. A
real-line point configuration is held in one form,
((R + PZ) minus M) union E with R, M and E finite (_Held): finite lists,
fully periodic residue systems and a lattice with finitely many explicit
perturbations are its special cases, and the form is closed under the sums,
differences and translates computed here, so S - S is held exactly.
An explicit accumulation marker records limit points of the idealized
(untruncated) configuration. Measures are counting measures, Haar traces,
Dirac masses, weighted Dirac sums, and finite sums of these.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import ceil, floor, gcd, lcm, prod
from operator import add, floordiv, lt, mod, mul, sub
from typing import Union

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


def _int_shape(points):
    """The common length of points that are all tuples of exact ints (type
    int: no bool), else None; a non-field attribute of discrete objects."""
    lengths = set(map(len, points)) if set(map(type, points)) == {tuple} else ()
    ints = len(lengths) == 1 and set(map(type, chain.from_iterable(points))) <= {int}
    return lengths.pop() if ints else None


@dataclass(frozen=True)
class ExplicitFinite:
    """A finite set of group elements, sorted and deduplicated (a strictly
    increasing input already is), with their _int_shape."""

    elements: tuple = ()

    def __post_init__(self):
        elements = tuple(self.elements)
        try:
            ordered = all(map(lt, elements, elements[1:]))
        except TypeError:  # incomparable points: sorted raises as it always did
            ordered = False
        elements = elements if ordered else tuple(sorted(set(elements)))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_shape", _int_shape(elements))

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class PeriodicDiscrete:
    """Residue classes of a diagonal period lattice in Z^d, with the
    _int_shape of the reduced residues."""

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
        object.__setattr__(self, "_shape", _int_shape(self.residues))

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


def check_period(s: PeriodicDiscrete, group) -> tuple[int, ...]:
    """The period of s, refused unless group is a ZLattice of its dimension:
    the one period check of the discrete ops, made before their caps."""
    if not (isinstance(group, ZLattice) and len(s.period) == group.dimension):
        raise ShapeMismatchError(
            f"a PeriodicDiscrete of period {s.period!r} is no subset of {group!r}")
    return s.period


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
    """A line configuration ((residues + period * Z) minus removed) union
    extra, with accumulation markers, in its integer normal form
    (rational.common_scale): _D, the lcm of the denominators of its points,
    and _period (an int, or None for a finite configuration), _residues (in
    [0, _period)), _extra and _removed (on the classes) as ints over _D, each
    tuple sorted and distinct. FinitePoints holds only extras (its points),
    PeriodicPoints only residues, PerturbedLattice the residue 0 of its step.
    The constructors build only this form; each Fraction field is built from
    its ints when first read, and kept. Fields, ==, hash and repr are those of
    the dataclass."""

    _ALIAS: dict = {}  # a field held under another name

    def __getattr__(self, name):  # called only for an attribute that is unset
        if name not in getattr(type(self), "__dataclass_fields__", ()):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ints, D = self.__dict__["_" + self._ALIAS.get(name, name)], self._D
        value = Fraction(ints, D) if isinstance(ints, int) else tuple(Fraction(x, D) for x in ints)
        self.__dict__[name] = value
        return value

    def _hold(self, D, P, residues=(), extra=(), removed=(), accumulation=()):
        self.__dict__.update(_D=D, _period=P, _residues=tuple(residues), _extra=tuple(extra),
                             _removed=tuple(removed), accumulation=tuple(accumulation))
        return self

    def materialize(self, lo, hi) -> tuple[Fraction, ...]:
        """The points in [lo, hi], sorted."""
        D = self._D
        xs = _points_within(self, D, ceil(rat(lo) * D), floor(rat(hi) * D))
        return tuple(Fraction(x, D) for x in xs)


def _canonical(D: int, P, residues=(), extra=(), removed=(), acc=()) -> _Held:
    """The configuration ((residues + P Z) minus removed) union extra over D,
    from sorted distinct ints (residues in [0, P), removed on their classes,
    extra off them), reduced to lowest terms by one gcd pass: FinitePoints
    when P is None, PeriodicPoints when nothing is added, removed or marked,
    else EventuallyPeriodicPoints."""
    g = gcd(D, P or 0, *residues, *extra, *removed)
    if g != 1:
        D, P = D // g, P and P // g
        residues, extra, removed = ([x // g for x in xs] for xs in (residues, extra, removed))
    kind = extra or removed or acc
    cls = FinitePoints if P is None else EventuallyPeriodicPoints if kind else PeriodicPoints
    return object.__new__(cls)._hold(D, P, residues, extra, removed, acc)


def _points_within(s: _Held, D: int, lo: int, hi: int) -> list[int]:
    """The sorted points of s in [lo, hi] as ints over a multiple D of s._D,
    their number held to Caps.enumeration before any is built."""
    k = D // s._D
    out = [x * k for x in s._extra if lo <= x * k <= hi]
    if s._period is not None and hi >= lo:
        P = s._period * k
        count = len(s._residues) * ((hi - lo) // P + 1) + len(out)
        check_enumeration(count, "the materialized window: {count} points exceed the cap {cap}")
        removed = {x * k for x in s._removed}
        out += [x for r in s._residues for x in range(lo + (r * k - lo) % P, hi + 1, P)
                if x not in removed]
    return sorted(out)


@dataclass(frozen=True, init=False)
class FinitePoints(_Held):
    points: tuple[Fraction, ...]
    accumulation: tuple[AccumulationPoint, ...]

    _ALIAS = {"points": "extra"}

    def __init__(self, points=(), accumulation=()):
        D, xs = common_scale([rat(p) for p in points])
        self._hold(D, None, (), sorted(set(xs)), (), accumulation)

    def __len__(self):
        return len(self._extra)


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
        self._hold(D, P, sorted({x % P for x in xs}))  # reduction keeps D

    @property
    def counting_density(self) -> Fraction:
        return Fraction(len(self._residues) * self._D, self._period)


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

    _ALIAS = {"step": "period"}

    def __init__(self, step, extra=(), removed=(), accumulation=()):
        step = rat(step)
        if step <= 0:
            raise PreconditionError("lattice step must be positive")
        extra, removed = [rat(p) for p in extra], [rat(p) for p in removed]
        D, (S, *xs) = common_scale((step, *extra, *removed))
        n = len(extra)
        extra, removed = sorted(set(xs[:n])), sorted(set(xs[n:]))
        for x in removed:
            if x % S:
                raise PreconditionError(f"removed point {Fraction(x, D)} is not on the lattice")
        removed_set = set(removed)
        for x in extra:
            if x % S == 0 and x not in removed_set:
                raise PreconditionError(f"extra point {Fraction(x, D)} duplicates a lattice point")
        self._hold(D, S, (0,), extra, removed, accumulation)


@dataclass(frozen=True, init=False)
class EventuallyPeriodicPoints(_Held):
    """((residues + period * Z) minus removed) union extra, as sums,
    difference sets and translates of perturbed configurations build it."""

    period: Fraction
    residues: tuple[Fraction, ...]
    extra: tuple[Fraction, ...]
    removed: tuple[Fraction, ...]
    accumulation: tuple[AccumulationPoint, ...]


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
    ZLattice (FiniteAbelian(period), refused by check_period on any other
    group), both residues (as _discrete holds them) lifted as the same int
    tuples, or CylinderSet on a chain (H_depth, lifted by _strip). The order
    is held to Caps.enumeration, and the residues checked (check_points),
    before any index is built."""
    lattice = isinstance(s, PeriodicDiscrete)
    if lattice or isinstance(s, ExplicitFinite) and isinstance(group, FiniteAbelian):
        quotient = FiniteAbelian(check_period(s, group)) if lattice else group
        check_enumeration(quotient.order)
        points = group.check_points(s.residues if lattice else s.elements, s._shape)
        return quotient, [sum(map(mul, p, quotient.strides)) for p in points], tuple
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
    of: Union[ExplicitFinite, PeriodicDiscrete, _Held, CylinderSet]


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
        object.__setattr__(self, "_shape", _int_shape([p for p, _ in atoms]))  # of the points


def _sort_key(point):
    return point if isinstance(point, tuple) else (rat(point),)


@dataclass(frozen=True)
class MeasureSum:
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


# ---------------------------------------------------------------------------
# Minkowski sums


_PAIRS_OVER_CAP = "{count} pairs exceed the enumeration cap {cap}"


def minkowski_sum(a, b, group: GroupSpec):
    """Exact Minkowski sum of two finitely represented same-group sets. A line
    configuration with an accumulation marker is refused: the sum of its
    truncation would drop the marker."""
    if any(isinstance(s, _Held) and s.accumulation for s in (a, b)):
        raise PreconditionError(
            "accumulating configuration: a Minkowski sum would drop its accumulation marker"
        )
    if isinstance(a, _DISCRETE) and isinstance(b, _DISCRETE):
        lattices = isinstance(a, PeriodicDiscrete) + isinstance(b, PeriodicDiscrete)
        return _discrete(a, b, group, add, _SUM_SITES[lattices])
    for x, y in ((a, b), (b, a)):
        result = _minkowski_directed(x, y, group)
        if result is not NotImplemented:
            return result
    raise PreconditionError(
        f"unsupported Minkowski operands: {type(a).__name__} + {type(b).__name__}"
    )


def _minkowski_directed(a, b, group):
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
    if isinstance(a, _Held) and isinstance(b, _Held):
        D = lcm(a._D, b._D)
        return _canonical(D, *_sum(_form(a, D), _form(b, D)))
    if isinstance(a, PeriodicPoints) and isinstance(b, IntervalUnion):
        pieces = tuple((r + lo, r + hi) for r in a.residues for lo, hi in b.intervals)
        return PeriodicPattern(a.period, IntervalUnion(pieces))
    return NotImplemented


_DISCRETE = (ExplicitFinite, PeriodicDiscrete)
# the capped discrete sums, by the number of PeriodicDiscrete operands
_SUM_SITES = ("finite Minkowski sum", "lattice-plus-finite Minkowski sum",
              "lattice Minkowski sum over the lcm period")


def _discrete(a, b, group, op, site):
    """{x op y : x in a, y in b} (op add or sub) of ExplicitFinite and
    PeriodicDiscrete operands in their held form (period or None, int
    tuples). Per axis (R_a + P_a Z) op (R_b + P_b Z) = (R_a op R_b) + gcd Z,
    so the pairs are reduced mod the gcd of the periods and lifted to their
    lcm, the result's period; an empty result is not lifted. A period off
    the lattice is refused first; pairs times lift are then held to
    Caps.enumeration (named by site) before any point is checked. With a
    pair, a's first point, b's points and a's are checked, once each
    (check_points), as group.add per pair refuses them, which still runs
    on the line and a chain."""
    lattice = [check_period(s, group) for s in (a, b) if isinstance(s, PeriodicDiscrete)]
    periods = [group.moduli] if isinstance(group, FiniteAbelian) else lattice
    Q, g = (tuple(map(f, *periods)) for f in (lcm, gcd)) if periods else (None, None)
    lift = prod(map(floordiv, Q, g)) if periods else 1
    xs, ys = (s.residues if isinstance(s, PeriodicDiscrete) else s.elements for s in (a, b))
    check_enumeration(len(xs) * len(ys) * lift, f"the {site}: " + _PAIRS_OVER_CAP)
    if not isinstance(group, (ZLattice, FiniteAbelian)):
        neg = group.negate if op is sub else None
        return ExplicitFinite(tuple(group.add(x, neg(y) if neg else y) for x in xs for y in ys))
    if xs and ys:
        group.check(xs[0])
        ys = group.check_points(ys, b._shape)
        xs = ys if a is b else group.check_points(xs, a._shape)
    pairs = (map(op, x, y) for x in xs for y in ys)
    if g is None:
        return ExplicitFinite(tuple(map(tuple, pairs)))
    out = {tuple(map(mod, p, g)) for p in pairs}
    if lift > 1 and out:
        steps = list(product(*(range(0, q, h) for q, h in zip(Q, g))))
        out = {tuple(map(add, r, j)) for r in out for j in steps}
    return PeriodicDiscrete(Q, tuple(out)) if lattice else ExplicitFinite(tuple(out))


def _form(s: _Held, D: int):
    """(P, residues, extra, removed) of s as ints over a multiple D of s._D."""
    k = D // s._D
    if k == 1:
        return s._period, s._residues, s._extra, s._removed
    return (s._period and s._period * k,
            *([x * k for x in xs] for xs in (s._residues, s._extra, s._removed)))


def _sum(A, B):
    """The form (P, residues, extra, removed) of the sum of the forms A and B
    over one D, P the lcm of their periods (None if neither has one). Its
    classes mod P are R_A + R_B (that is R_A + R_B + gcd(P_A, P_B) Z),
    E_A + R_B and R_A + E_B, and only a candidate of E_A + M_B or M_A + E_B
    can be missing from them: it is kept iff it lies in R_A + R_B or is e + p,
    e extra in one operand and p a point of the other. Its extras are the
    points of E_A + E_B off the classes. The pairs are counted against
    Caps.enumeration before any is built."""
    (Pa, Ra, Ea, Ma), (Pb, Rb, Eb, Mb) = A, B
    P, g = lcm(Pa or 1, Pb or 1) if Pa or Pb else None, gcd(Pa, Pb) if Pa and Pb else 0
    cross = ((Ea, B), (Eb, A))  # the extras of one operand against the other
    pairs = len(Ra) * len(Rb) * (g and P // g) + len(Ea) * len(Eb)
    for E, (Q, R, _, M) in cross:
        pairs += len(E) and len(E) * (len(R) * (P // Q if Q else 0) + len(M) * (len(Ea) + len(Eb)))
    check_enumeration(pairs, "the Minkowski sum: " + _PAIRS_OVER_CAP)
    base = {(x + y) % g for x in Ra for y in Rb} if g else set()
    classes = {r + j for r in base for j in range(0, P, g)} if P != g else set(base)
    if not (Ea or Eb):  # nothing is added, so nothing can be missing
        return P, sorted(classes), [], []
    for E, (Q, R, _, _) in cross:  # E + R mod Q, lifted to the classes mod P
        offsets = {(e + r) % Q for e in E for r in R} if Q else ()
        classes.update(x + j for x in offsets for j in range(0, P, Q))
    sums = {x + y for x in Ea for y in Eb}
    extra = sorted(sums if P is None else (z for z in sums if z % P not in classes))
    a, b = ((Q, set(R), set(E), set(M)) for Q, R, E, M in (A, B))

    def has(x, form):  # x is a point of the form
        Q, R, E, M = form
        return x in E or Q is not None and x % Q in R and x not in M

    missing = {z for z in {e + m for e in Ea for m in Mb} | {m + e for m in Ma for e in Eb}
               if not (g and z % g in base or any(has(z - e, b) for e in Ea)
                       or any(has(z - e, a) for e in Eb))}
    return P, sorted(classes), extra, sorted(missing)


# ---------------------------------------------------------------------------
# difference sets


def difference_set(s, group: GroupSpec):
    """Exact S - S; symmetric and containing 0 whenever S is nonempty.

    A line configuration ((R + PZ) minus M) union E is differenced whole, in
    the integer form it holds (_Held): S - S is the sum (_sum) of S and -S, a
    configuration of the same form; a finite S takes one half pass over its
    ordered pairs and mirrors it. An accumulating S gives an S - S marked at
    0 on both sides. Its points in a window are materialize(lo, hi).
    """
    if isinstance(s, PeriodicDiscrete):  # refused off its lattice before any warning
        check_period(s, group)
    if _set_is_empty(s):  # raises on what is no set
        warnings.warn("difference set of an empty set is empty (0 not included)")
    if isinstance(s, _DISCRETE):
        site = "lattice" if isinstance(s, PeriodicDiscrete) else "finite"
        return _discrete(s, s, group, sub, site + " difference set")
    if isinstance(s, IntervalUnion):
        return s.difference_set()
    if isinstance(s, PeriodicPattern):
        return s.difference_set()
    if not isinstance(s, _Held):
        raise PreconditionError(f"unsupported difference-set input: {type(s).__name__}")
    acc = (AccumulationPoint(Fraction(0), "both"),) if s.accumulation else ()
    P, xs = s._period, s._extra
    if P is None:  # one half pass: 0 and the negatives mirror the positives
        check_enumeration(len(xs) * (len(xs) - 1) // 2,
                          "the finite line difference set: " + _PAIRS_OVER_CAP)
        pos = sorted({x - y for i, x in enumerate(xs) for y in xs[:i]})
        return _canonical(s._D, None, (), (*(-d for d in reversed(pos)), 0, *pos) if xs else (),
                          (), acc)
    negated = (P, {-r % P for r in s._residues}, [-x for x in xs], [-x for x in s._removed])
    return _canonical(s._D, *_sum(_form(s, s._D), negated), acc)


def _set_is_empty(s) -> bool:
    if isinstance(s, ExplicitFinite):
        return not s.elements
    if isinstance(s, PeriodicDiscrete):
        return not s.residues
    if isinstance(s, IntervalUnion):
        return s.is_empty
    if isinstance(s, PeriodicPattern):
        return s.pattern.is_empty
    if isinstance(s, _Held):
        return not (s._residues or s._extra or s.accumulation)
    if isinstance(s, CylinderSet):
        return False  # difference_set refuses cylinders
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
            return Infinite(("per-period", Fraction(len(obj.residues)), check_period(obj, group)))
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
        if isinstance(obj, _Held):
            return Fraction(0)  # countable sets are Lebesgue-null
    raise PreconditionError(
        f"haar measure unsupported for {type(obj).__name__} on {type(group).__name__}"
    )


# ---------------------------------------------------------------------------
# translations (used by the invariance test suites)


def translate_set(s, g, group: GroupSpec):
    if isinstance(s, _DISCRETE):
        return _discrete(s, ExplicitFinite((g,)), group, add, "discrete translate")
    if isinstance(s, IntervalUnion):
        return s.translate(rat(g))
    if isinstance(s, PeriodicPattern):
        return s.translate(rat(g))
    if isinstance(s, _Held):
        q = rat(g)
        D, (t,) = common_scale((q,), s._D)
        acc = tuple(AccumulationPoint(a.point + q, a.side) for a in s.accumulation)
        return _canonical(D, *_sum(_form(s, D), (None, (), (t,), ())), acc)  # s + {t}
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
