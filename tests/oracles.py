"""Test oracles shared by several test modules: small exact formulas that
the library does not need, kept here to check what it computes."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, product
from math import lcm, prod
from typing import Optional

from density_lab import (
    AccumulationPoint,
    ExplicitFinite,
    FiniteAbelian,
    FinitePoints,
    PeriodicPoints,
    PerturbedLattice,
    PreconditionError,
    SigmaFiniteChain,
    SyndeticCertificate,
    ZLattice,
)
from density_lab.config import check_enumeration
from density_lab.groups import _strip
from density_lab.rational import common_scale, rat
from density_lab.sets import WindowedDifferenceSet, discrete_quotient
from density_lab.windows import (
    CENTERS_OVER_CAP,
    ShiftScan,
    _scaled_scan,
    _zd_mass_at,
    measure_layers,
)


# ---------------------------------------------------------------------------
# the difference sets of line configurations before they held their integer
# normal form, kept verbatim (each configuration scaled by common_scale from
# its Fractions, and every difference mapped back to a Fraction d / D) as
# the oracle for the int-built results; the trusted constructor of sorted
# Fractions they used is the public one here


def difference_residues_mod(residues, period) -> tuple[Fraction, ...]:
    D, (P, *xs) = common_scale((period, *residues))
    return tuple(Fraction(d, D) for d in sorted({(x - y) % P for x in xs for y in xs}))


def fraction_difference_set(s, window=None):
    """sets.difference_set of a PeriodicPoints, FinitePoints or
    PerturbedLattice s."""
    if isinstance(s, PeriodicPoints):
        return PeriodicPoints(s.period, difference_residues_mod(s.residues, s.period))
    if isinstance(s, FinitePoints):
        acc = (AccumulationPoint(Fraction(0), "both"),) if s.accumulation else ()
        if not s.points:  # an accumulation marker alone
            return FinitePoints((), acc)
        D, xs = common_scale(s.points)  # sorted, as the points are
        pos = [Fraction(d, D) for d in sorted({x - y for i, x in enumerate(xs) for y in xs[:i]})]
        # 0 and the negatives mirror the positives; negation skips the gcd
        return FinitePoints((*(-d for d in reversed(pos)), Fraction(0), *pos), acc)
    assert isinstance(s, PerturbedLattice)
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
    return WindowedDifferenceSet(points=FinitePoints(points, acc), window=(lo, hi))


def min_positive_difference(s: PeriodicPoints) -> Fraction:
    """Least positive element of the difference set of s: the least positive
    residue difference mod the period, or the period itself when there is
    none (a single residue)."""
    diffs = difference_residues_mod(s.residues, s.period)
    return min((d for d in diffs if d > 0), default=s.period)


def subgroup_elements(chain: SigmaFiniteChain, n: int):
    """Elements of the chain subgroup H_n in canonical (padded-lexicographic)
    order."""
    return [_strip(e) for e in chain.subgroup(n).elements()]


# ---------------------------------------------------------------------------
# the finite-quotient cover kernels before bitset translates, kept verbatim
# (one translate table or index list per translate) as oracles for the mask
# kernels that replaced them


def syndetic_check_finite(S, K, group):
    """The finite-group and lattice branch of additive.syndetic_check."""
    if isinstance(group, (FiniteAbelian, ZLattice)):
        found = discrete_quotient(S, group) if isinstance(K, ExplicitFinite) else None
        if found is None:
            raise PreconditionError(
                "finite-group syndetic checks need explicit sets"
                if isinstance(group, FiniteAbelian)
                else "lattice syndetic checks need periodic S and finite K"
            )
        quotient, s_indices, lift = found
        translates = [group.check(k) for k in K.elements]
        in_s = bytearray(quotient.order)
        for i in s_indices:
            in_s[i] = 1
        # first[g]: position in K of the first k with g - k in S, as a per-cell scan finds it
        first = [None] * quotient.order
        for j, k in enumerate(translates):
            minus_k = quotient.translate(tuple(-c for c in k))
            first = [j if f is None and in_s[t] else f for f, t in zip(first, minus_k)]
            if None not in first:
                break
        cells = quotient.elements()
        if None in first:
            return SyndeticCertificate(K, False, lift(cells[first.index(None)]))
        return SyndeticCertificate(K, True, {lift(g): K.elements[j] for g, j in zip(cells, first)})


def cover_instance(S, group):
    """additive._cover_instance: cells of the fundamental domain, the coverage
    bitmask of each candidate translate, and a lift back to group elements."""
    found = discrete_quotient(S, group) if isinstance(group, (FiniteAbelian, ZLattice)) else None
    if found is None:
        raise PreconditionError(
            f"minimum covers need a finite group or a periodic subset of Z^d, got {type(S).__name__}"
        )
    quotient, s_indices, lift = found
    cells = quotient.elements()
    covers = [0] * len(cells)
    for i in s_indices:
        for k, j in enumerate(quotient.translate(cells[i])):  # j = index of s + k
            covers[k] |= 1 << j
    return cells, covers, lift


# ---------------------------------------------------------------------------
# the range-slice first-fit before sliding windows, kept verbatim (a set of the
# colors in every conflict window, O(k) per point) as the oracle for the
# sliding-window kernel that replaced it


def range_slice_first_fit(points: list[int], lifts: list) -> list[int]:
    """First-fit colors of sorted distinct ints: an earlier t conflicts with q
    iff t lies in q - [a, b] for a lift (a, b) with b > 0 (as t < q), so each
    such lift takes the colors of one bisect pair bounded by the index i of q."""
    positive = [(a, b) for a, b in lifts if b > 0]
    colors = [0] * len(points)
    for i, q in enumerate(points):
        taken = set()
        for a, b in positive:
            taken.update(colors[bisect_left(points, q - b, 0, i) : bisect_right(points, q - a, 0, i)])
        c = 0
        while c in taken:
            c += 1
        colors[i] = c
    return colors


# ---------------------------------------------------------------------------
# the Z^d cube scan before one int kernel served it and the translation
# witness, kept verbatim (every finite and mixed candidate evaluated by the
# Fraction reference _zd_mass_at) as the oracle for that kernel


def fraction_zd_shift_sup(nu, group: ZLattice, r: int) -> ShiftScan:
    """sup over integer centers x of the cube mass, least maximizer first.

    Raises CapExceededError when the centers to scan exceed Caps.enumeration."""
    layers, _ = measure_layers(nu, group)
    d = group.dimension
    if not layers:
        return ShiftScan(Fraction(0), group.zero(), 1)
    periodic = [l for l in layers if l.period is not None]
    finite = [l for l in layers if l.period is None]
    if periodic and not finite:
        period = tuple(lcm(*ms) for ms in zip(*(l.period for l in periodic)))
        torus = FiniteAbelian(period)
        check_enumeration(torus.order, "the period torus: " + CENTERS_OVER_CAP)
        cands = product(*(range(m) for m in period))
    elif finite and not periodic:
        per_coord = [
            sorted({p[i] - r for l in finite for p, _ in l.atoms} | {0}) for i in range(d)
        ]
        check_enumeration(prod(len(c) for c in per_coord),
                          "the support's bounding grid: " + CENTERS_OVER_CAP)
        cands = product(*per_coord)
    else:
        if d != 1:
            raise PreconditionError("mixed periodic and finite lattice layers need d = 1")
        period = lcm(*(l.period[0] for l in periodic))
        support = [p[0] for l in finite for p, _ in l.atoms]
        lo = min(support) - r - period
        hi = max(support) + r + period
        check_enumeration(hi + period + 1 - lo, "the perturbation zone: " + CENTERS_OVER_CAP)
        cands = ((c,) for c in range(lo, hi + period + 1))
    best = None
    best_x = None
    scanned = 0
    for x in cands:
        scanned += 1
        v = _zd_mass_at(layers, x, r)
        if best is None or v > best:
            best, best_x = v, x
    return ShiftScan(best, best_x, scanned)


# ---------------------------------------------------------------------------
# the per-layer mass closures that seeded each run of the line sweep before
# its steps seeded it themselves, kept verbatim as the per-candidate oracle
# for that sweep


def _atom_mass(atoms: list[tuple[int, int]], period: Optional[int]):
    """(a, b) -> total weight of the atoms in [a, b], from two bisects.

    A periodic layer folds a and b into [0, period) with divmod and counts the
    whole periods in between separately."""
    if period is not None:
        atoms = [(p % period, w) for p, w in atoms]
    atoms.sort()
    positions = [p for p, _ in atoms]
    prefix = list(accumulate((w for _, w in atoms), initial=0))
    if period is None:

        def mass(a, b):
            return prefix[bisect_right(positions, b)] - prefix[bisect_left(positions, a)]

        return mass
    total = prefix[-1]

    def periodic_mass(a, b):
        qa, sa = divmod(a, period)
        qb, sb = divmod(b, period)
        return (
            (qb - qa) * total
            + prefix[bisect_right(positions, sb)]
            - prefix[bisect_left(positions, sa)]
        )

    return periodic_mass


def _trace_mass(pieces: list[tuple[int, int]], period: Optional[int], unit: int):
    """(a, b) -> unit * length of the canonical union of pieces inside [a, b].

    A periodic trace repeats pieces, which lie in [0, period], with period."""
    starts = [s for s, _ in pieces]
    ends = [e for _, e in pieces]
    before = list(accumulate((e - s for s, e in pieces), initial=0))

    def below(t):  # length of the union inside (-inf, t]
        i = bisect_right(starts, t)
        return before[i - 1] + min(t, ends[i - 1]) - starts[i - 1] if i else 0

    if period is None:

        def mass(a, b):
            return unit * (below(b) - below(a))

        return mass
    total = before[-1]

    def periodic_mass(a, b):
        qa, sa = divmod(a, period)
        qb, sb = divmod(b, period)
        return unit * ((qb - qa) * total + below(sb) - below(sa))

    return periodic_mass


def per_candidate_values(layers, window):
    """x -> nu(x + window) at every scaled candidate of _scaled_scan, each
    evaluated afresh by the mass closures of every layer and window piece. An
    atom layer's closure takes its atoms (p, w) from its leaving steps
    (p, -w), a trace layer's its pieces from its bases."""
    _, Dw, pieces, int_layers, cands = _scaled_scan(layers, window)
    masses = [
        _trace_mass(list(zip(l.bases[::2], l.bases[1::2])), l.period, Dw)
        if l.trace
        else _atom_mass([(p, -d) for p, d, right in l.steps if not right], l.period)
        for l in int_layers
    ]
    return [sum(mass(a + x, b + x) for a, b in pieces for mass in masses) for x in cands]
