"""Constructive cover and partition machinery.

greedy_translates builds a maximal packing-compatible translate set B with
A - A + B = G and #B bounded by the reciprocal density; packing_bound_check
verifies the measure bound forced by the packing condition; fatten converts a
point configuration into a positive-measure set S + H with a certified density
lower bound; partition_by_coloring splits a configuration into classes whose
difference sets avoid H - H; auto_H constructs an H making the class count
certified; syndetic_pipeline chains all stages and re-verifies each one.

Every emitted result is re-verified from scratch in exact arithmetic; a failed
re-verification raises VerificationError with a counterexample.

The discrete greedy runs on the row-major index of the quotient
(sets.discrete_quotient, FiniteAbelian.index), the lexicographic order of
elements(), and keeps a first-blocker table: when a candidate b is accepted,
_translate_at(b, shifts) locates every slot b + d with d in (A-A) minus {0},
and each one that holds nothing yet gets d. A candidate c is rejected iff
some accepted b has c - b in that set; the slot of c was written first by the
earliest such b, with d = c - b, which is the blocker a scan of B in
acceptance order finds first. So the translates and blockers are those of the
candidate-by-candidate scan, with |A-A| index sums per accepted b: the greedy
is O(|G| + |B| |A-A|), not O(|B| |G|). It stays on index lists, not on the
masks of FiniteAbelian.shift: one mask operation per accepted b already
costs O(|G|) bits, which is O(|B| |G|) again for a sparse A with many
translates (A = {0, 1} in Z_{2^16}: 4 s against 0.3 s). The cover
re-verification marks B + (A-A) in a bytearray from scratch; the packing
re-verification looks up every b + d, d in (A-A) minus {0}, in a bytearray
of B, since b1 - b2 = d with b1 != b2 iff b1 = b2 + d lies in B.

The line greedy (a periodic pattern A of period p) runs on closed int
intervals over E, the lcm of the denominators of p and of A's endpoints,
through the canonical forms of intervals that IntervalUnion and
PeriodicPattern run on Fractions: A - A on the circle [0, p], the covered
union, its first gap and the translates B. A midpoint candidate of a gap of
odd length doubles E and every held int, so B stays exact; B becomes
Fractions once, at the end. The cover and packing re-verification rebuilds
the union of the translates of A - A from B alone and tests every ordered
pair of B.

The partition runs on the integer normal form that every line configuration
holds (sets._Held), with one lift and one body for every configuration:
_configuration joins the points, the radius R of Q = H - H and Q's closed
intervals (the spans) as ints over the lcm D of their denominators, which
keeps every difference and membership test. A periodic S (period p) is lifted
onto L = floor(2R/p) + 1 copies of its period, a coloring circle of
circumference P = Lp > 2R, and its residues are the window centers; any other
S is materialized (a finite one whole, one with a period around the points it
adds or removes) and every point is a center. t ~ s iff t - s
lies in a lift of Q: a span, or on the circle a span translated by P or -P;
the lifts are disjoint, since the spans are and P > 2R. First-fit keeps, per
lift (a, b) with b > 0, the window of earlier points in q - [a, b]; as the
points are sorted and the lifts fixed, both ends of each window only move
right, so the pass is O(N |lifts|) however many colors there are. A count per
color over all windows and a min-heap of the colors whose count is 0 (with
lazy deletion) give the least free color: a color goes on the heap when its
count falls to 0 and when it is first taken, since the point that took it is
in no window yet. The window bound k sums the lengths of the ranges s + [a, b]
(a lift of a periodic S meets s + Q at most once, since P > 2R), and the
class-packing re-verification flags a point whose window count within its
class exceeds 1 (0 is in Q) and only then walks its ranges to name the
partner. Colors, classes, n and k_bound are those of the all-pairs Fraction
loop and of real_mass. The ints are bucketed by color in one pass; a periodic
class is reduced to its minimal period in ints: the largest k dividing its
size and P whose shift P/k maps it onto itself (P/k must be an int, as the
class consists of multiples of 1/D), and built with one gcd pass. Classes of
one size share their density #members * D / P, as every class lies on the one
circle P over D; so the pipeline takes the densest class as the first with the
most members. A finite class is built from its ints too, and has density 0.
packing_bound_check validates per group, then materializes the held S - S
(sets.difference_set; a periodic subset of Z as a periodic configuration) in
[-R, R] (_difference_points_within), tests it against the spans of H - H
scaled to the same D (on Z, its points), one bisect per span, and builds a
Fraction only for the common difference it reports. On the line, the density
of a configuration with a period and no marker is #residues * D / P from its
held form, and one interval H of length L gives Q = [-L, L] without a
Minkowski sum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import ceil, floor
from typing import Optional

from .additive import syndetic_check
from .config import check_enumeration
from .density import RudinWindow, measure_total_finite, periodic_mean_density, rudin_window
from .errors import PreconditionError, VerificationError
from .groups import FiniteAbelian, GroupSpec, RealLine, SigmaFiniteChain, ZLattice
from .intervals import IntervalUnion, PeriodicPattern, contains_mod, gaps_within, merge_pairs, sum_pairs
from .rational import INFINITE, common_scale, is_infinite, rat, rat_str
from .sets import (
    Counting,
    ExplicitFinite,
    FinitePoints,
    MeasureSum,
    PeriodicDiscrete,
    PeriodicPoints,
    _canonical,
    _Held,
    _points_within,
    difference_set,
    discrete_quotient,
    minkowski_sum,
)
from .windows import real_mass, real_shift_sup

# ---------------------------------------------------------------------------
# counting density of a point configuration


def counting_density(S, group: GroupSpec):
    """Exact counting density of a configuration; Infinite for accumulating
    ones. A line configuration with a period and no marker has #residues / P
    from its held form: its finitely many added or removed points add 0."""
    if isinstance(S, _Held) and isinstance(group, RealLine) and S._period and not S.accumulation:
        return Fraction(len(S._residues) * S._D, S._period)
    return periodic_mean_density(Counting(S), group)


# ---------------------------------------------------------------------------
# greedy translate sets


@dataclass(frozen=True)
class CoverResult:
    translates: tuple
    size_bound: int
    density: Fraction
    verified_cover: bool
    verified_packing: bool
    blocked: tuple  # (candidate, blocking difference) per rejected candidate
    search_domain: str
    base_set: object
    group: object

    @property
    def size(self) -> int:
        return len(self.translates)


def greedy_translates(A, group: GroupSpec) -> CoverResult:
    """Maximal translate set in canonical order.

    Candidates are scanned in the canonical order of the finite search domain
    (one fundamental domain of the combined period); a candidate joins B when
    the packing condition (A-A) cap (B'-B') = {0} survives, and the recorded
    blocker is the offending difference otherwise. Termination gives
    A - A + B = G over the fundamental domain and #B <= floor(1/density).
    """
    found = discrete_quotient(A, group)
    if found is not None:
        return _greedy_finite(*found, A, group)
    if isinstance(group, FiniteAbelian):
        raise PreconditionError("finite-group cover needs an explicit subset")
    if isinstance(group, ZLattice):
        raise PreconditionError("lattice covers need a periodic subset (finite sets have density 0)")
    if isinstance(group, SigmaFiniteChain):
        raise PreconditionError("chain covers need a cylinder set")
    if isinstance(group, RealLine):
        if isinstance(A, PeriodicPattern):
            return _greedy_pattern(A, group)
        if isinstance(A, PeriodicPoints):
            raise PreconditionError(
                "a countable configuration has Haar-trace density 0; fatten it first"
            )
        raise PreconditionError("line covers need a periodic pattern")
    raise PreconditionError(f"unsupported group: {type(group).__name__}")


_DOMAINS = {
    FiniteAbelian: "all group elements, lexicographic",
    ZLattice: "fundamental domain of the period lattice, lexicographic",
}


def _greedy_finite(quotient: FiniteAbelian, a_indices, lift, base_set, group):
    if not a_indices:
        raise PreconditionError("zero density: the set is empty")
    elements = quotient.elements()  # raises CapExceededError before the tables exist
    order = quotient.order
    density = Fraction(len(a_indices), order)
    bound = floor(1 / density)
    in_diff = bytearray(order)  # A - A
    for y in a_indices:
        for x in quotient._translate_at([-c for c in elements[y]], a_indices):
            in_diff[x] = 1
    diff = [d for d in range(order) if in_diff[d]]
    shifts = diff[1:]  # index 0 is the zero element, which is in A - A
    first_blocker = [0] * order  # 0: no blocker yet (the zero difference never blocks)
    B: list[int] = []
    blocked: list = []
    for i in range(order):
        blocker = first_blocker[i]
        if blocker:
            blocked.append((lift(elements[i]), lift(elements[blocker])))
            continue
        B.append(i)
        for d, j in zip(shifts, quotient._translate_at(elements[i], shifts)):
            if not first_blocker[j]:
                first_blocker[j] = d
    translates = tuple(lift(elements[b]) for b in B)
    # re-verify from scratch
    hit = bytearray(order)
    in_b = bytearray(order)
    for b in B:
        in_b[b] = 1
        for j in quotient._translate_at(elements[b], diff):
            hit[j] = 1
    cover_ok = all(hit)
    # b1 - b2 lies in (A-A) minus {0} for some b1 != b2 iff some b2 + d is in B
    packing_ok = not any(
        in_b[j] for b in B for j in quotient._translate_at(elements[b], shifts)
    )
    if not cover_ok:
        raise VerificationError("cover verification failed", counterexample=(base_set, translates))
    if not packing_ok:
        raise VerificationError("packing verification failed", counterexample=(base_set, translates))
    if len(B) > bound:
        raise VerificationError(
            f"translate count {len(B)} exceeds the bound {bound}",
            counterexample=(base_set, translates),
        )
    return CoverResult(
        translates=translates,
        size_bound=bound,
        density=density,
        verified_cover=True,
        verified_packing=True,
        blocked=tuple(blocked),
        search_domain=_DOMAINS.get(type(group)) or f"chain subgroup H_{group.depth}, lexicographic",
        base_set=base_set,
        group=group,
    )


def _greedy_pattern(A: PeriodicPattern, group: RealLine) -> CoverResult:
    E, (p, *ends) = common_scale((A.period, *A.pattern.endpoints()))
    pattern = list(zip(ends[::2], ends[1::2]))
    mass = sum(b - a for a, b in pattern)
    if mass <= 0:
        raise PreconditionError("zero density: the pattern has no mass")
    density = Fraction(mass, p)
    bound = p // mass  # floor(1 / density)
    # A - A on the circle [0, p]
    diff = sum_pairs(pattern, [(-b, -a) for a, b in pattern], p)
    B: list[int] = []
    covered: list = []
    while (gap := next(gaps_within(covered, 0, p), None)) is not None:
        a, b = gap
        if contains_mod(covered, a, p):
            if (a + b) % 2:  # the midpoint needs half the unit: rescale
                E, p, a, b = 2 * E, 2 * p, 2 * a, 2 * b
                diff = [(2 * lo, 2 * hi) for lo, hi in diff]
                covered = [(2 * lo, 2 * hi) for lo, hi in covered]
                B = [2 * x for x in B]
            cand = (a + b) // 2
        else:
            cand = a
        if contains_mod(covered, cand, p):
            raise VerificationError("greedy stalled", counterexample=(
                A, [Fraction(x, E) for x in B], Fraction(cand, E)))
        B.append(cand)
        covered = merge_pairs(covered + sum_pairs(diff, [(cand, cand)], p))
        if len(B) > bound:
            raise VerificationError(
                f"translate count {len(B)} exceeds the bound {bound}",
                counterexample=(A, [Fraction(x, E) for x in B]),
            )
    translates = tuple(Fraction(x, E) for x in B)
    fault = _pattern_cover_fault(diff, p, B)
    if fault == "cover":
        raise VerificationError("cover verification failed", counterexample=(A, translates))
    if fault is not None:
        raise VerificationError(
            "packing verification failed",
            counterexample=(A, Fraction(fault[0], E), Fraction(fault[1], E)),
        )
    return CoverResult(
        translates=translates,
        size_bound=bound,
        density=density,
        verified_cover=True,
        verified_packing=True,
        blocked=(),
        search_domain="one period of the line; maximality = empty admissible set",
        base_set=A,
        group=group,
    )


def _pattern_cover_fault(diff: list, p: int, B: list[int]):
    """Re-verify from scratch a line cover in ints: "cover" unless the
    translates diff + b (b in B), reduced onto the circle [0, p], cover it;
    else the first pair (b1, b2) of B, in loop order, with b1 != b2 and
    b1 - b2 in diff mod p; else None."""
    union = sum_pairs([(b, b) for b in B], diff, p)
    if next(gaps_within(union, 0, p), None) is not None:
        return "cover"
    return next(((b1, b2) for b1 in B for b2 in B
                 if b1 != b2 and contains_mod(diff, b1 - b2, p)), None)


# ---------------------------------------------------------------------------
# packing bound


@dataclass(frozen=True)
class PackingCheck:
    mu_H: Fraction
    density: Fraction
    bound: Fraction  # 1 / density
    slack: Fraction
    checked_radius: Fraction


def _difference_points_within(S, radius: Fraction, spans) -> tuple[int, list[int], list]:
    """(D, ds, int_spans): the elements of S - S in [-radius, radius] as sorted
    ints over D, and the rational pairs `spans` as int pairs over the same D,
    the lcm of the D that the held difference set of S holds and of the
    denominators of the radius and the spans."""
    d = difference_set(S, RealLine())
    D, (R, *ints) = common_scale((radius, *(x for span in spans for x in span)), d._D)
    return D, _points_within(d, D, -R, R), list(zip(ints[::2], ints[1::2]))


def _difference_radius(H: IntervalUnion) -> tuple[IntervalUnion, Fraction]:
    """(Q, sup Q) for Q = H - H, refused when H is empty: Q is symmetric."""
    Q = H.difference_set()
    if Q.is_empty:
        raise PreconditionError("H is empty")
    return Q, Q.sup


def packing_bound_check(S, H, group: GroupSpec = RealLine()) -> PackingCheck:
    """Verify (H-H) cap (S-S) = {0}, then certify mu(H) <= 1/density.

    The difference set is truncated at the sufficiency radius diam(H-H); a
    packing violation raises PreconditionError carrying the common difference.
    On Z, S is taken as the periodic configuration of its residues on the line
    and H - H is a finite set; both groups share the filter and the bound.
    """
    if isinstance(group, RealLine):
        if not isinstance(H, IntervalUnion):
            raise PreconditionError("H must be an interval union on the line")
        rho = counting_density(S, group)
        if is_infinite(rho):
            raise PreconditionError("infinite counting density: the bound is void")
        if rho <= 0:
            raise PreconditionError("positive counting density required")
        Q, radius = _difference_radius(H)
        config, spans, mu_h = S, Q.intervals, H.length
    elif isinstance(group, ZLattice) and group.dimension == 1:
        if not isinstance(H, ExplicitFinite):
            raise PreconditionError("H must be a finite set on Z")
        rho = counting_density(S, group)
        if is_infinite(rho) or rho <= 0:
            raise PreconditionError("positive finite counting density required")
        if not H.elements:
            raise PreconditionError("H is empty")
        q_diffs = [d for (d,) in difference_set(H, group).elements]
        radius = Fraction(q_diffs[-1])  # H - H is symmetric
        if not isinstance(S, PeriodicDiscrete):
            raise PreconditionError("Z packing checks need a periodic subset")
        config = PeriodicPoints(S.period[0], S.line_residues())
        spans, mu_h = [(d, d) for d in q_diffs], Fraction(len(H))
    else:
        raise PreconditionError("packing checks run on R or Z")
    # the least positive common difference: per span in ascending order, the
    # least positive d of S - S in it
    D, ds, int_spans = _difference_points_within(config, radius, spans)
    for a, b in int_spans:
        i = bisect_left(ds, max(a, 1))
        if i < len(ds) and ds[i] <= b:
            raise PreconditionError(
                f"packing condition fails: common difference {rat_str(Fraction(ds[i], D))}"
            )
    bound = 1 / rho
    if mu_h > bound:
        raise VerificationError("packing bound violated", counterexample=(S, H, mu_h, bound))
    return PackingCheck(mu_H=mu_h, density=rho, bound=bound, slack=bound - mu_h,
                        checked_radius=radius)


# ---------------------------------------------------------------------------
# fattening


@dataclass(frozen=True)
class FattenResult:
    fattened: object  # PeriodicPattern (periodic S) or IntervalUnion (finite S)
    claimed_bound: Fraction
    measured: Fraction
    equality: bool


def fatten(S, H: IntervalUnion, group: RealLine = RealLine()) -> FattenResult:
    """S + H with the certified density lower bound density(S) * mu(H).

    The packing condition (S-S) cap (H-H) = {0} makes the translates s + H
    pairwise disjoint, so for periodic S the measured density is exactly the
    bound.
    """
    if group != RealLine():
        raise PreconditionError(f"fatten runs on the real line, not on {group}")
    if H.is_empty:
        raise PreconditionError("H is empty")
    if isinstance(S, PeriodicPoints):
        if not S.residues:
            raise PreconditionError("S is empty")
        if H.length > 0:
            packing_bound_check(S, H, group)  # raises with the violating difference
        rho = S.counting_density
        fat = minkowski_sum(S, H, group)
        measured = fat.density
        bound = rho * H.length
        if measured < bound:
            raise VerificationError(
                "fattened density below the certified bound",
                counterexample=(S, H, measured, bound),
            )
        return FattenResult(
            fattened=fat, claimed_bound=bound, measured=measured, equality=measured == bound
        )
    if isinstance(S, FinitePoints):  # minkowski_sum refuses an accumulating S
        fat = minkowski_sum(H, S, group)
        return FattenResult(
            fattened=fat, claimed_bound=Fraction(0), measured=Fraction(0), equality=True
        )
    raise PreconditionError(f"unsupported configuration: {type(S).__name__}")


# ---------------------------------------------------------------------------
# partition by bounded-degree coloring


@dataclass(frozen=True)
class PartitionResult:
    classes: tuple
    H: IntervalUnion
    Q: IntervalUnion  # H - H
    n: int
    k_bound: Fraction  # max points of S in any window s + Q
    class_densities: tuple
    period: Optional[Fraction]  # common period of the classes, when periodic
    base: object
    group: object


def partition_by_coloring(S, H: IntervalUnion, group: RealLine = RealLine()) -> PartitionResult:
    """First-fit coloring of the conflict graph s ~ t iff t in s + (H-H).

    Classes satisfy (S_j - S_j) cap (H-H) = {0} exactly; their number is at
    most the maximal window count k. Periodic configurations are recolored over
    an enlarged period exceeding the diameter of H-H, so classes stay periodic.
    """
    return _partition(S, H, group)[0]


def _partition(S, H: IntervalUnion, group: RealLine):
    """(partition_by_coloring(S, H, group), j): j is the first densest class.
    For a periodic S that is the first class with the most members, as every
    class density is #members * D / P on one circle; for a finite or
    perturbed S every density is 0 and j is 0."""
    if group != RealLine():
        raise PreconditionError(f"the partition runs on the real line, not on {group}")
    if not isinstance(H, IntervalUnion):
        raise PreconditionError("H must be an interval union on the line")
    Q, radius = _difference_radius(H)
    D, ints, lifts, P, centers = _configuration(S, Q, radius)
    colors = _first_fit(ints, lifts)
    n = max(colors, default=-1) + 1
    # one color in range(n) per point, or zip would drop points and a negative
    # color would land in the last class
    if len(colors) != len(ints) or min(colors, default=0) < 0:
        raise VerificationError("partition does not reproduce S", counterexample=S)
    int_members = [[] for _ in range(n)]
    for x, c in zip(ints, colors):
        int_members[c].append(x)
    k_bound = Fraction(max((_window_count(ints, s, lifts) for s in ints[:centers]), default=0))
    _verify_class_packing(int_members, D, lifts)
    if n > k_bound:
        raise VerificationError(
            f"class count {n} exceeds the window bound {k_bound}", counterexample=(S, H)
        )
    if P is None:
        classes = tuple(_canonical(D, None, (), cl) for cl in int_members)
        densities, period, j = (Fraction(0),) * n, None, 0
    else:
        period, classes = Fraction(P, D), _periodic_classes(int_members, P, D)
        sizes = list(map(len, int_members))
        by_size = {m: Fraction(m * D, P) for m in set(sizes)}
        densities, j = tuple(by_size[m] for m in sizes), sizes.index(max(sizes))
    part = PartitionResult(
        classes=classes, H=H, Q=Q, n=n, k_bound=k_bound, class_densities=densities,
        period=period, base=S, group=group,
    )
    return part, j


def _configuration(S, Q: IntervalUnion, radius: Fraction):
    """(D, ints, lifts, P, centers): the sorted points to color as ints over D
    (the lcm of the D that S holds and of the denominators of Q's endpoints
    and the radius), and the lifts of Q as int pairs (a, b): t ~ s iff t - s
    lies in one. A periodic S is lifted onto L = floor(2R / p) + 1 copies of
    its period p (R = radius * D), the int circle P = L * p > 2R, the lifts
    are Q's intervals translated by 0, P and -P, and its residues are the
    first `centers` points. Any other S is materialized (_materialize_config),
    P = None, the lifts are Q's intervals, and all points are centers."""
    periodic = isinstance(S, PeriodicPoints)
    if periodic and not S._residues:
        raise PreconditionError("S is empty")
    held, xs = (S._D, S._residues) if periodic else _materialize_config(S)
    m = 2 * len(Q.intervals)
    D, ints = common_scale([*Q.endpoints(), radius], held)
    k = D // held
    if k != 1:
        xs = [x * k for x in xs]
    spans = list(zip(ints[:m:2], ints[1:m:2]))
    if not periodic:
        return D, list(xs), spans, None, len(xs)
    R, period = ints[m], S._period * k
    P = (2 * R // period + 1) * period
    check_enumeration(len(xs) * (P // period), "the partition's lift onto the enlarged "
                                               "period: {count} points exceed the cap {cap}")
    # the residues lie in [0, period), so the lift is sorted copy by copy
    ints = [r + j for j in range(0, P, period) for r in xs]
    lifts = [(a + off, b + off) for off in (0, P, -P) for a, b in spans]
    return D, ints, lifts, P, len(xs)


def _first_fit(points: list[int], lifts: list) -> list[int]:
    """First-fit colors of sorted distinct ints: an earlier t conflicts with q
    iff t lies in q - [a, b] for a lift (a, b) with b > 0 (as t < q). Each
    such lift slides a window [lo, hi) of indices over the points; count[c]
    is the number of points of color c in the windows, and the min-heap
    `free` holds every color c < len(count) with count[c] == 0 (stale
    entries are dropped at the top), so the least free color is its top, or
    else the next new color."""
    positive = [(a, b) for a, b in lifts if b > 0]
    los, his = [0] * len(positive), [0] * len(positive)
    colors: list[int] = []
    count: list[int] = []
    free: list[int] = []
    for i, q in enumerate(points):
        for w, (a, b) in enumerate(positive):
            hi, end = his[w], q - a
            while hi < i and points[hi] <= end:
                count[colors[hi]] += 1
                hi += 1
            his[w] = hi
            # lo stops at hi at the latest: points[hi] > q - a >= q - b, or hi = i
            lo, start = los[w], q - b
            while points[lo] < start:
                c = colors[lo]
                count[c] -= 1
                if not count[c]:
                    heappush(free, c)
                lo += 1
            los[w] = lo
        while free and count[free[0]]:
            heappop(free)
        if free:
            colors.append(free[0])
        else:  # a new color, free until its point enters a window
            heappush(free, len(count))
            colors.append(len(count))
            count.append(0)
    return colors


def _window_count(points: list[int], s: int, lifts: list) -> int:
    """#{t in sorted distinct ints : t - s in a lift}, s itself included (0 is
    in Q): one bisect pair per lift, as the lifts are disjoint (P > 2R)."""
    count = 0
    for a, b in lifts:
        count += bisect_right(points, s + b) - bisect_left(points, s + a)
    return count


def _verify_class_packing(classes, D: int, lifts: list):
    """Raise VerificationError unless no two distinct points of one class
    (sorted ints over D) differ by an element of Q (mod P): a point has a
    partner iff its window count within its class exceeds 1, and only then
    are its ranges walked to name the partner."""
    for j, cl in enumerate(classes):
        for a in cl:
            if _window_count(cl, a, lifts) > 1:
                b = next(t for lo, hi in lifts
                         for t in cl[bisect_left(cl, a + lo) : bisect_right(cl, a + hi)] if t != a)
                raise VerificationError(
                    "class packing verification failed",
                    counterexample=(j, Fraction(a, D), Fraction(b, D)),
                )


def _periodic_classes(members: list, P: int, D: int) -> tuple:
    """The classes of sorted ints in [0, P) on the circle P / D, each over its
    minimal period P/k: k the largest divisor of its size n and of P with
    xs + P/k = xs (mod P), and its residues the first n/k of xs. A k that
    does not divide P is skipped exactly, as x + P/k is then no multiple of
    1/D; a shift P/k that maps xs onto itself maps xs[0] to xs[n/k], which is
    tested first."""
    out = []
    for xs in members:
        n, step = len(xs), P
        for k in range(n, 1, -1):
            if n % k == P % k == 0 and xs[n // k] - xs[0] == P // k:
                in_xs = set(xs)
                if all((x + P // k) % P in in_xs for x in xs):
                    step = P // k
                    break
        out.append(_canonical(D, step, xs[: n * step // P]))
    return tuple(out)


def _materialize_config(S) -> tuple[int, tuple[int, ...]]:
    """(D, sorted ints over D): the points of a finite S, or of an S with a
    period in the span of its added and removed points widened by two
    periods, in the integer normal form S holds."""
    if not isinstance(S, _Held):
        raise PreconditionError(f"unsupported configuration: {type(S).__name__}")
    if S.accumulation:
        raise PreconditionError(
            "accumulating configuration: window counts around the marker are infinite"
        )
    P, span = S._period, S._extra + S._removed
    if P is None:
        return S._D, S._extra
    if not span:
        raise PreconditionError("a bare lattice has no perturbation span to color")
    return S._D, _points_within(S, S._D, min(span) - 2 * P, max(span) + 2 * P)


# ---------------------------------------------------------------------------
# automatic H construction


@dataclass(frozen=True)
class AutoHResult:
    H: IntervalUnion
    Q: IntervalUnion
    c: Fraction  # length of the absorbed test interval C = [0, c]
    window_count: Fraction  # K_c: max mass of S in closed length-c windows
    eta: Fraction
    L: int
    k: Fraction  # exact max window count over s + (H-H)
    target: Fraction  # (1 + eps) * density * mu(H-H)
    rudin: RudinWindow


def auto_H(
    S: PeriodicPoints, epsilon=Fraction(1, 2), group: RealLine = RealLine()
) -> AutoHResult:
    """Construct H with a certified per-window count bound.

    For C = [0, c], every bounded V satisfies #(S cap V)/mu(C + V) <= K_c/c
    (integrate the count of S over sliding length-c windows across
    (S cap V) + C). For c = M periods, K_c = M |R| + 1 (a window that starts
    on a point of S), so M = max(1, ceil(2/eps)) gives K_c/c <= rho (1 + eps/2),
    which is re-checked; taking H = [0, L] from the window construction with
    eta = eps/(2+eps) then gives max_s #(S cap (s + H - H)) <= (1+eps) rho
    mu(H-H), re-verified exactly.
    """
    if not isinstance(S, PeriodicPoints) or not S.residues:
        raise PreconditionError("auto_H needs a nonempty exactly periodic configuration")
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    rho = S.counting_density
    nu = Counting(S)
    c = max(1, ceil(2 / epsilon)) * S.period
    k_c = real_shift_sup(nu, IntervalUnion.closed(0, c)).value
    if k_c > rho * (1 + epsilon / 2) * c:
        raise VerificationError("window certificate failed", counterexample=S)
    eta = epsilon / (2 + epsilon)
    rw = rudin_window(IntervalUnion.closed(0, c), eta, group)
    H = IntervalUnion.closed(0, rw.L)
    Q = H.difference_set()
    k = max(real_mass(nu, Q.translate(s)) for s in S.residues)
    target = (1 + epsilon) * rho * Q.length
    if k > target:
        raise VerificationError(
            "window count exceeds the certified target", counterexample=(S, H, k, target)
        )
    return AutoHResult(
        H=H, Q=Q, c=c, window_count=k_c, eta=eta, L=rw.L, k=k, target=target, rudin=rw
    )


# ---------------------------------------------------------------------------
# subadditivity


@dataclass(frozen=True)
class SubadditivityCheck:
    total_density: object
    part_densities: tuple
    part_sum: object
    slack: object
    holds: bool


def _exact_density(nu, group: GroupSpec):
    if isinstance(group, FiniteAbelian):
        return measure_total_finite(nu, group) / group.order
    return periodic_mean_density(nu, group)


def subadditivity_check(nu_list, group: GroupSpec) -> SubadditivityCheck:
    """Verify density(sum nu_j) <= sum density(nu_j) in exact arithmetic."""
    if not nu_list:
        raise PreconditionError("empty measure list")
    parts = tuple(_exact_density(nu, group) for nu in nu_list)
    total = _exact_density(MeasureSum(tuple(nu_list)), group)
    if any(is_infinite(p) for p in parts):
        return SubadditivityCheck(total, parts, INFINITE, INFINITE, True)
    part_sum = sum(parts, Fraction(0))
    if is_infinite(total):
        raise VerificationError(
            "total density infinite while parts are finite", counterexample=nu_list
        )
    slack = part_sum - total
    if slack < 0:
        raise VerificationError("subadditivity violated", counterexample=(nu_list, slack))
    return SubadditivityCheck(total, parts, part_sum, slack, True)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class PipelineResult:
    S: PeriodicPoints
    rho: Fraction
    epsilon: Fraction
    H: IntervalUnion
    auto: Optional[AutoHResult]
    partition: PartitionResult
    selected_class: int
    rho_j: Fraction
    fatten: FattenResult
    cover: CoverResult
    T: IntervalUnion
    mu_T: Fraction
    covering_verified: bool
    remark_bound: Fraction        # (1+eps) mu(H-H) / mu(H)
    remark_bound_holds: bool
    derived_bound: Fraction       # (1+eps) mu(H-H)^2 / mu(H)
    derived_bound_holds: bool
    class_count_target: Fraction  # (1+eps) rho mu(H-H)
    class_count_holds: bool


def syndetic_pipeline(
    S,
    group: RealLine = RealLine(),
    epsilon=Fraction(1, 2),
    H: Optional[IntervalUnion] = None,
) -> PipelineResult:
    """Partition, select the densest class, fatten, cover, and assemble the
    compact translate set T = B + (H - H) with (S - S) + T covering the line.

    Requires 0 < counting density < Infinite and an exactly periodic S; every
    stage is re-verified. With an auto-constructed H the class count and the
    derived measure bound are certified and enforced; with a supplied H they
    are reported as booleans.
    """
    epsilon = rat(epsilon)
    rho = counting_density(S, group)
    if is_infinite(rho):
        raise PreconditionError(
            "counting density is infinite (accumulation certificate): no compact "
            "translate set can make the difference set cover the line"
        )
    if not isinstance(S, PeriodicPoints):
        raise PreconditionError("the pipeline needs an exactly periodic configuration")
    if rho <= 0:
        raise PreconditionError("positive counting density required")
    auto = None
    if H is None:
        auto = auto_H(S, epsilon, group)
        H = auto.H
    if not isinstance(H, IntervalUnion):
        raise PreconditionError("H must be an interval union on the line")
    if H.length <= 0:
        raise PreconditionError("H must have positive measure")
    part, j = _partition(S, H, group)
    rho_j = part.class_densities[j]
    if rho_j * part.n < rho:
        raise VerificationError(
            "no class reaches density rho/n", counterexample=(S, H, part.n)
        )
    fat = fatten(part.classes[j], H, group)
    cover = greedy_translates(fat.fattened, group)
    Q = part.Q
    T = minkowski_sum(Q, FinitePoints(cover.translates), group)
    mu_t = T.length
    # (S_j - S_j) + T covers the line, hence so does (S - S) + T
    for X in (part.classes[j], S):
        if not syndetic_check(difference_set(X, group), T, group).verified:
            raise VerificationError(
                "difference set plus T does not cover", counterexample=(S, H, T)
            )
    remark_bound = (1 + epsilon) * Q.length / H.length
    derived_bound = (1 + epsilon) * Q.length * Q.length / H.length
    class_target = (1 + epsilon) * rho * Q.length
    remark_ok = mu_t <= remark_bound
    derived_ok = mu_t <= derived_bound
    class_ok = part.n <= class_target
    if auto is not None and not (class_ok and derived_ok):
        raise VerificationError(
            "certified bounds failed on an auto-constructed H",
            counterexample=(S, H, mu_t, derived_bound, part.n, class_target),
        )
    return PipelineResult(
        S=S,
        rho=rho,
        epsilon=epsilon,
        H=H,
        auto=auto,
        partition=part,
        selected_class=j,
        rho_j=rho_j,
        fatten=fat,
        cover=cover,
        T=T,
        mu_T=mu_t,
        covering_verified=True,
        remark_bound=remark_bound,
        remark_bound_holds=remark_ok,
        derived_bound=derived_bound,
        derived_bound_holds=derived_ok,
        class_count_target=class_target,
        class_count_holds=class_ok,
    )
