"""Test oracles shared by several test modules: small exact formulas that
the library does not need, kept here to check what it computes."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import floor, lcm, prod
from operator import add, mod, sub
from typing import Optional

from density_lab import (
    AccumulationPoint,
    CoverResult,
    Counting,
    ExplicitFinite,
    FiniteAbelian,
    FinitePoints,
    HaarTrace,
    IntervalUnion,
    MeasureSum,
    PartitionResult,
    PeriodicDiscrete,
    PeriodicPattern,
    PeriodicPoints,
    PerturbedLattice,
    PipelineResult,
    PreconditionError,
    RealLine,
    ShapeMismatchError,
    SigmaFiniteChain,
    SyndeticCertificate,
    VerificationError,
    WeightedDiracs,
    ZLattice,
    auto_H,
    difference_set,
    fatten,
    minkowski_sum,
)
from density_lab.config import check_enumeration
from density_lab.groups import _strip, bits
from density_lab.rational import common_scale, frac_lcm, is_infinite, rat
from density_lab.intervals import gaps_within
from density_lab.sets import (
    DiracAtZero,
    _canonical,
    _Held,
    discrete_quotient,
)
from density_lab.structure import (
    _configuration,
    _first_fit,
    _verify_class_packing,
    _window_count,
    counting_density,
)
from density_lab.windows import (
    CENTERS_OVER_CAP,
    AtomLayer,
    PointLayer,
    ShiftScan,
    TraceLayer,
    _IntLayer,
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


def difference_marker(s) -> tuple:
    """The accumulation markers of S - S: one at 0, approached from both
    sides, exactly when S accumulates."""
    return (AccumulationPoint(Fraction(0), "both"),) if s.accumulation else ()


def fraction_difference_set(s, window=None):
    """sets.difference_set of a PeriodicPoints or FinitePoints s; of a
    PerturbedLattice s, the sorted points of its difference set in the
    window (lo, hi), which difference_set(s, R).materialize(lo, hi) gives."""
    if isinstance(s, PeriodicPoints):
        return PeriodicPoints(s.period, difference_residues_mod(s.residues, s.period))
    if isinstance(s, FinitePoints):
        acc = difference_marker(s)
        if not s.points:  # an accumulation marker alone
            return FinitePoints((), acc)
        D, xs = common_scale(s.points)  # sorted, as the points are
        pos = [Fraction(d, D) for d in sorted({x - y for i, x in enumerate(xs) for y in xs[:i]})]
        # 0 and the negatives mirror the positives; negation skips the gcd
        return FinitePoints((*(-d for d in reversed(pos)), Fraction(0), *pos), acc)
    assert isinstance(s, PerturbedLattice)
    lo, hi = rat(window[0]), rat(window[1])  # hi < lo: no point, as materialize gives
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
    return tuple(Fraction(d, D) for d in sorted(diffs))


# ---------------------------------------------------------------------------
# the Minkowski sums of line configurations before they shared one held form,
# kept verbatim (one branch per pair of types, periodic residues expanded to
# the lcm period) as the oracle for the sum of held forms


def _expand_points(s: PeriodicPoints, period: Fraction):
    reps = int(period / s.period)
    return [r + k * s.period for r in s.residues for k in range(reps)]


def per_type_minkowski(a, b):
    """sets.minkowski_sum of two FinitePoints or PeriodicPoints."""
    for a, b in ((a, b), (b, a)):
        if isinstance(a, PeriodicPoints) and isinstance(b, PeriodicPoints):
            period = frac_lcm(a.period, b.period)
            ra = _expand_points(a, period)
            rb = _expand_points(b, period)
            return PeriodicPoints(period, tuple((x + y) % period for x in ra for y in rb))
        if isinstance(a, PeriodicPoints) and isinstance(b, FinitePoints):
            return PeriodicPoints(
                a.period, tuple((r + p) % a.period for r in a.residues for p in b.points)
            )
        if isinstance(a, FinitePoints) and isinstance(b, FinitePoints):
            return FinitePoints(tuple(x + y for x in a.points for y in b.points))
    raise AssertionError("not a pair of finite or periodic points")


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
    _, Dw, pieces, int_layers, cands, _ = _scaled_scan(layers, window)
    masses = [
        _trace_mass(list(zip(l.bases[::2], l.bases[1::2])), l.period, Dw)
        if l.trace
        else _atom_mass([(p, -d) for p, d in l.by_a], l.period)
        for l in int_layers
    ]
    return [sum(mass(a + x, b + x) for a, b in pieces for mass in masses) for x in cands]


# ---------------------------------------------------------------------------
# the replica sweep of the line scan before its candidates kept one period
# per finite event: every periodic replica across the perturbation zone, one
# far period and 0, swept in runs split at gaps longer than the common period,
# kept verbatim as the oracle for the value, the least argmax and the least
# threshold witness of the span sweep


def _line_candidates(int_layers: list[_IntLayer], ws: list[int]) -> list[int]:
    """Sorted finite superset of the event points of x -> nu(x + W), scaled."""
    periodic = [(l.period, l.bases) for l in int_layers if l.period is not None]
    finite = [l.bases for l in int_layers if l.period is None]
    cands = {0}
    for bases in finite:
        cands.update(base - w for base in bases for w in ws)
    if not (periodic and ws):  # an empty window has mass 0 at every shift
        return sorted(cands)
    big = lcm(*(period for period, _ in periodic))
    if finite:  # mixed: event points inside the perturbation zone plus one clean period
        support = [p for bases in finite for p in bases]
        zone_lo = min(support) - max(ws) - big
        zone_hi = max(support) - min(ws) + big
    span = big + (zone_hi + 1 - zone_lo if finite else 0)  # no run below spans more than this
    replicas = sum(len(bases) * len(ws) * (span // period + 1) for period, bases in periodic)
    check_enumeration(
        replicas, "the line scan: {count} periodic replicas exceed the enumeration cap {cap}"
    )
    if not finite:
        for period, bases in periodic:
            for base in bases:
                for w in ws:
                    e = (base - w) % period
                    cands.update(range(e, e + big, period))
        return sorted(cands)
    for period, bases in periodic:
        for base in bases:
            for w in ws:
                e = base - w
                cands.update(range(e - (e - zone_lo) // period * period, zone_hi + 1, period))
                # one clean far-field period, unaffected by the perturbation
                far = zone_hi + (e - zone_hi) % big
                cands.update(range(far, far + big, period))
    return sorted(cands)


def _sweep(cands: list[int], pieces: list[tuple[int, int]], int_layers: list[_IntLayer]):
    """x -> nu(x + window) at every candidate x, in units of 1/(D * Dw).

    A mixed scan's candidates are the perturbation zone, one far period and
    0, which can lie far outside both. Where two candidates are more than the
    common period P apart, the sweep starts a new run, so that no periodic
    layer's replicas are enumerated across a long gap: inside a run they are
    about as many as the candidates that layer gives, plus one P per gap. A
    fully periodic scan's candidates lie in [0, P), and a finite one has no
    replicas, so both are one run."""
    periods = [l.period for l in int_layers if l.period is not None]
    if len(periods) in (0, len(int_layers)):
        return _sweep_run(cands, pieces, int_layers)
    big = lcm(*periods)
    cuts = [i for i, (p, c) in enumerate(zip(cands, cands[1:]), 1) if c - p > big]
    values = []
    for s, t in zip([0, *cuts], [*cuts, len(cands)]):
        values += _sweep_run(cands[s:t], pieces, int_layers)
    return values


def _sweep_run(cands: list[int], pieces: list[tuple[int, int]], int_layers: list[_IntLayer]):
    """The values at sorted candidates as one running sum.

    Each step of a layer below the last candidate is bucketed by one bisect:
    an atom's change d at y goes to the value from the first candidate above y
    on; a trace's slope change d at y goes to the slope from the first
    candidate c above y on, plus d * (c - y) to the value at c. The steps need
    not be candidates: the ones in a gap between two candidates land on the
    candidate after it, and the ones below the first candidate c0 on c0, which
    seeds the run with its value and slope there.

    A periodic step repeats at y + kP for every k. With y - c0 = qP + r, the
    first replica at or after c0 is c0 + r, and the n = -q replicas y, ...,
    y + (n - 1)P lie below c0: they add d * n to an atom's value at c0, and
    d * n to a trace's slope and d * (n * (c0 - y) - P * n * (n - 1) / 2) to
    its value there. The replicas further left cancel, and n may be negative,
    because the steps of each atom and of each trace piece come from one base
    position (_atom_layer): the atom's changes sum to 0, and so do the
    piece's changes and their changes times positions."""
    lo, hi = cands[0], cands[-1]
    jumps = [0] * len(cands)  # value changes, bucketed
    bends = [0] * len(cands)  # slope changes, bucketed
    for l in int_layers:
        trace, period = l.trace, l.period
        for a, b in pieces:
            for p, d, right in [*((p, d, True) for p, d in l.by_b),
                                *((p, d, False) for p, d in l.by_a)]:
                y = p - (b if right else a)
                if period is None:
                    ys = (y,) if y < hi else ()
                else:
                    q, r = divmod(y - lo, period)
                    n = -q  # the replicas below lo, counted from y
                    if trace:
                        bends[0] += d * n
                        jumps[0] += d * (n * (lo - y) - period * n * (n - 1) // 2)
                    else:
                        jumps[0] += d * n
                    ys = range(lo + r, hi, period)
                if trace:
                    for y in ys:
                        i = bisect_right(cands, y)
                        bends[i] += d
                        jumps[i] += d * (cands[i] - y)
                else:
                    for y in ys:
                        jumps[bisect_right(cands, y)] += d
    if not any(bends):  # no slope anywhere
        return list(accumulate(jumps))
    # value(c_i) = value(c_{i-1}) + slope right of c_{i-1} * (c_i - c_{i-1}) + jumps[i]
    slopes = accumulate(bends, initial=0)  # the i-th is the slope right of c_{i-1}
    return list(
        accumulate(s * (c - p) + j for s, p, c, j in zip(slopes, [lo, *cands], cands, jumps))
    )


def replica_line_values(layers, window):
    """(D, Dw, candidates, values) of the replica sweep, on the int layers of
    _scaled_scan: x -> nu(x + window) at every replica candidate x."""
    D, Dw, pieces, int_layers, *_ = _scaled_scan(layers, window)
    cands = _line_candidates(int_layers, [x for piece in pieces for x in piece])
    return D, Dw, cands, _sweep(cands, pieces, int_layers)


# ---------------------------------------------------------------------------
# the inf-sup oracle's search before it started from the incumbent C = G,
# kept verbatim (a running best sup from 1/0, each leader dropped at a ratio
# reaching it, the loop ended at the floor nu(G)/|G|) as the oracle for
# density._inf_sup, with the per-group translate tables it read, which the
# library built before each search until it formed the sums of the scanned
# leaders only


def finite_group_tables(group: FiniteAbelian):
    """(elements, translate): translate[g][V] is the mask of V + g. The inf-sup
    loops on them evaluate up to (2^n - 1)^2 (C, V) ratios, a count held to
    the enumeration cap (n <= 10) before the n * 2^n entries are allocated."""
    n = group.order
    pairs = (2 ** min(n, 64) - 1) ** 2  # past n = 64 it is over any cap in use
    check_enumeration(pairs, f"the inf-sup oracle on order {n}: (2^{n} - 1)^2 (C, V) pairs "
                             "exceed the enumeration cap {cap}")
    elems = group.elements()
    translate = []
    for g in elems:
        table = [0]
        for i in group.translate(g):
            bit = 1 << i
            table += [t | bit for t in table]
        translate.append(table)
    return elems, translate


def running_best_inf_sup(nu_of, translate):
    """(num, den, C, V) with num/den the inf over nonempty masks C of the sup
    over nonempty masks V of nu_of[V]/#(C+V), C the first minimizer and V its
    least maximizer in mask order. nu_of is nonnegative.

    The search is exact. #((C+g)+V) = #(C+V), so the translates of C share
    its sup and the first minimizer is the least mask of its translation
    class: only that leader is scanned, and it marks its class seen. V = G
    gives every C the ratio nu(G)/|G|, so every sup is at least that, and the
    loop ends once best reaches it. Each leader gets one pass over V in
    decreasing nu(V). best is replaced only by a strictly smaller sup, so C
    is dropped at the first V with nu(V)/#(C+V) >= best, and the pass ends at
    nu(V) < sup, since #(C+V) >= 1; of two V with equal ratios it keeps the
    smaller mask. A C that is not dropped replaces best.
    """
    size = len(nu_of)
    floor_num, floor_den = nu_of[size - 1], (size - 1).bit_count()
    by_nu = sorted(range(1, size), key=nu_of.__getitem__, reverse=True)
    seen = bytearray(size)
    best_num, best_den, best_C, best_V = 1, 0, 0, 0  # 1/0 is above every sup
    for C in range(1, size):
        if seen[C]:
            continue
        if best_num * floor_den <= floor_num * best_den:
            break
        for t in translate:
            seen[t[C]] = 1
        shifts = [translate[i] for i in bits(C)]
        sup_num, sup_den, sup_V = -1, 1, 0  # below every ratio
        for V in by_nu:
            num = nu_of[V]
            if num * sup_den < sup_num:
                break
            u = 0
            for t in shifts:
                u |= t[V]
            den = u.bit_count()
            if num * best_den >= best_num * den:
                sup_V = 0  # C is dropped
                break
            lhs, rhs = num * sup_den, sup_num * den
            if lhs > rhs or (lhs == rhs and V < sup_V):
                sup_num, sup_den, sup_V = num, den, V
        if sup_V:
            best_num, best_den, best_C, best_V = sup_num, sup_den, C, sup_V
    return best_num, best_den, best_C, best_V


# ---------------------------------------------------------------------------
# the pipeline's Fraction path before its classes, selection and line cover
# stayed on ints until the result: one Fraction period and one Fraction
# density built per class (the period through the validating constructor
# here), the densest class taken as densities.index(max(densities)), and
# the line greedy on IntervalUnion and PeriodicPattern, kept verbatim as
# the oracles for the int path


def fraction_class_partition(S, H, group=RealLine()):
    """(structure.partition_by_coloring(S, H, group), the index of the first
    densest class)."""
    if group != RealLine():
        raise PreconditionError(f"the partition runs on the real line, not on {group}")
    if not isinstance(H, IntervalUnion):
        raise PreconditionError("H must be an interval union on the line")
    Q = H.difference_set()
    if Q.is_empty:
        raise PreconditionError("H is empty")
    radius = max(abs(Q.inf), abs(Q.sup))  # Q lies in [-radius, radius]
    D, ints, lifts, P, centers = _configuration(S, Q, radius)
    colors = _first_fit(ints, lifts)
    n = max(colors, default=-1) + 1
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
        densities, period = tuple(Fraction(0) for _ in int_members), None
    else:
        period = Fraction(P, D)
        classes = tuple(_fraction_periodic_class(cl, P, D) for cl in int_members)
        densities = tuple(Fraction(len(cl) * D, P) for cl in int_members)
    part = PartitionResult(
        classes=classes, H=H, Q=Q, n=n, k_bound=k_bound, class_densities=densities,
        period=period, base=S, group=group,
    )
    return part, densities.index(max(densities)) if densities else 0


def _fraction_periodic_class(xs, P, D):
    n, members = len(xs), set(xs)
    step = next((P // k for k in range(n, 1, -1) if n % k == P % k == 0
                 and all((x + P // k) % P in members for x in xs)), P)
    return PeriodicPoints(Fraction(step, D), tuple(Fraction(x, D) for x in xs if x < step))


def fraction_greedy_pattern(A: PeriodicPattern, group=RealLine()) -> CoverResult:
    """structure.greedy_translates of a periodic pattern on the line."""
    density = A.density
    if density <= 0:
        raise PreconditionError("zero density: the pattern has no mass")
    p = A.period
    D = A.difference_set()
    bound = floor(1 / density)
    B: list[Fraction] = []
    covered = IntervalUnion.empty()

    def covered_mod(q: Fraction) -> bool:
        r = q % p
        return covered.contains(r) or (r == 0 and covered.contains(p))

    while True:
        gaps = covered.complement_within(0, p)
        if gaps.is_empty:
            break
        a, b = gaps.intervals[0]
        cand = a if not covered_mod(a) else (a + b) / 2
        if covered_mod(cand):
            raise VerificationError("greedy stalled", counterexample=(A, B, cand))
        B.append(cand)
        covered = covered.union(D.translate(cand).pattern)
        if len(B) > bound:
            raise VerificationError(
                f"translate count {len(B)} exceeds the bound {bound}",
                counterexample=(A, B),
            )
    fault = fraction_pattern_cover_fault(D, B)
    if fault == "cover":
        raise VerificationError("cover verification failed", counterexample=(A, B))
    if fault is not None:
        raise VerificationError("packing verification failed", counterexample=(A, *fault))
    return CoverResult(
        translates=tuple(B),
        size_bound=bound,
        density=density,
        verified_cover=True,
        verified_packing=True,
        blocked=(),
        search_domain="one period of the line; maximality = empty admissible set",
        base_set=A,
        group=group,
    )


def fraction_pattern_cover_fault(D: PeriodicPattern, B):
    """The greedy's re-verification: "cover" unless the translates D + b (b
    in B) cover a period, else the first pair b1 != b2 of B with b1 - b2 in
    D mod its period, else None."""
    union = IntervalUnion.empty()
    for b in B:
        union = union.union(D.translate(b).pattern)
    if not union.complement_within(0, D.period).is_empty:
        return "cover"
    for b1 in B:
        for b2 in B:
            r = (b1 - b2) % D.period
            if b1 != b2 and (D.pattern.contains(r) or (r == 0 and D.pattern.contains(D.period))):
                return b1, b2
    return None


def fraction_pipeline(S, group=RealLine(), epsilon=Fraction(1, 2), H=None) -> PipelineResult:
    """structure.syndetic_pipeline on fraction_class_partition and
    fraction_greedy_pattern."""
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
    part, j = fraction_class_partition(S, H, group)
    rho_j = part.class_densities[j]
    if rho_j * part.n < rho:
        raise VerificationError(
            "no class reaches density rho/n", counterexample=(S, H, part.n)
        )
    fat = fatten(part.classes[j], H, group)
    cover = fraction_greedy_pattern(fat.fattened, group)
    Q = part.Q
    T = IntervalUnion(
        tuple((b + lo, b + hi) for b in cover.translates for lo, hi in Q.intervals)
    )
    mu_t = T.length
    d_j = difference_set(part.classes[j], group)
    summed = minkowski_sum(d_j, T, group)
    if not summed.pattern.complement_within(0, summed.period).is_empty:
        raise VerificationError(
            "difference set plus T does not cover", counterexample=(S, H, T)
        )
    d_s = difference_set(S, group)
    summed_s = minkowski_sum(d_s, T, group)
    if not summed_s.pattern.complement_within(0, summed_s.period).is_empty:
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
        S=S, rho=rho, epsilon=epsilon, H=H, auto=auto, partition=part, selected_class=j,
        rho_j=rho_j, fatten=fat, cover=cover, T=T, mu_T=mu_t, covering_verified=True,
        remark_bound=remark_bound, remark_bound_holds=remark_ok, derived_bound=derived_bound,
        derived_bound_holds=derived_ok, class_count_target=class_target,
        class_count_holds=class_ok,
    )


# ---------------------------------------------------------------------------
# the exact minimum cover before its branch and bound, kept verbatim (every
# combination of each size, in lexicographic order) as the oracle for
# additive._least_cover


def combinations_least_cover(covers, n):
    """The first combination of indices, in size-then-lexicographic order,
    whose covers (bitmasks over n cells) union to all cells, or None."""
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= covers[i]
            if mask == full:
                return list(combo)
    return None


# ---------------------------------------------------------------------------
# the discrete kernels before discrete objects held their checked shape, kept
# verbatim as the oracles for what replaced them: translates by a div, a mod
# and a multiply per element per axis; every Dirac point, ExplicitFinite
# element and lattice residue through group.check on every walk and quotient;
# and the line syndetic check's zone as Fractions and one IntervalUnion


def translate_at(group: FiniteAbelian, k, at) -> list[int]:
    """FiniteAbelian._translate_at by index arithmetic on every stride."""
    out = [0] * len(at)
    for c, m, s in zip(k, group.moduli, group.strides):
        out = [o + (i // s + c) % m * s for o, i in zip(out, at)]
    return out


def per_element_quotient(s, group):
    """The discrete branches of sets.discrete_quotient, each point checked; a
    period of another dimension than the lattice's is refused first."""
    if isinstance(group, FiniteAbelian) and isinstance(s, ExplicitFinite):
        check_enumeration(group.order)
        return group, [group.index(e) for e in s.elements], tuple
    if isinstance(group, ZLattice) and isinstance(s, PeriodicDiscrete):
        if len(s.period) != group.dimension:
            raise ShapeMismatchError(
                f"a PeriodicDiscrete of period {s.period!r} is no subset of {group!r}")
        quotient = FiniteAbelian(s.period)
        check_enumeration(quotient.order)
        return quotient, [quotient.index(group.check(r)) for r in s.residues], tuple
    raise PreconditionError("not a discrete quotient")


def pairwise_difference_set(s: ExplicitFinite, group):
    """The finite S - S before each operand was checked once: group.add and
    group.negate per pair, each re-checking its operands."""
    check_enumeration(len(s) ** 2, "the finite difference set: {count} pairs exceed the "
                                   "enumeration cap {cap}")
    return ExplicitFinite(
        tuple(group.add(x, group.negate(y)) for x in s.elements for y in s.elements))


def pairwise_minkowski_sum(a: ExplicitFinite, b: ExplicitFinite, group):
    """The finite Minkowski sum before each operand was checked once: group.add
    per pair, each re-checking its operands."""
    check_enumeration(len(a) * len(b), "the finite Minkowski sum: {count} pairs exceed the "
                                       "enumeration cap {cap}")
    return ExplicitFinite(tuple(group.add(x, y) for x in a.elements for y in b.elements))


# the per-type discrete branches of sets.minkowski_sum, difference_set and
# translate_set before one kernel on held (period, int tuples) forms served
# them all, kept verbatim as the oracles for it on valid operands: int tuples
# per pair for ExplicitFinite, residues expanded to the lcm period for two
# PeriodicDiscrete, and no check of a PeriodicDiscrete against the group


def _int_pairwise(a: ExplicitFinite, b: ExplicitFinite, group, op) -> ExplicitFinite:
    if not (a and b):
        return ExplicitFinite()
    group.check(a.elements[0])
    ys = group.check_points(b.elements, b._shape)
    xs = ys if a is b else group.check_points(a.elements, a._shape)
    if isinstance(group, FiniteAbelian):
        ms = group.moduli
        return ExplicitFinite(tuple(tuple(map(mod, map(op, x, y), ms)) for x in xs for y in ys))
    return ExplicitFinite(tuple(tuple(map(op, x, y)) for x in xs for y in ys))


def _expand_residues(s: PeriodicDiscrete, period: tuple[int, ...]):
    reps = [range(p // q) for p, q in zip(period, s.period)]
    return [tuple(c + k * q for c, k, q in zip(r, mults, s.period))
            for r in s.residues for mults in product(*reps)]


def _per_type_directed(a, b, group):
    if isinstance(a, ExplicitFinite) and isinstance(b, ExplicitFinite):
        return _int_pairwise(a, b, group, add)
    if isinstance(a, PeriodicDiscrete) and isinstance(b, PeriodicDiscrete):
        period = tuple(map(lcm, a.period, b.period))
        ra, rb = _expand_residues(a, period), _expand_residues(b, period)
        sums = {tuple((x + y) % m for x, y, m in zip(p, q, period)) for p in ra for q in rb}
        return PeriodicDiscrete(period, tuple(sums))
    if isinstance(a, PeriodicDiscrete) and isinstance(b, ExplicitFinite):
        sums = {tuple((x + y) % m for x, y, m in zip(r, e, a.period))
                for r in a.residues for e in b.elements}
        return PeriodicDiscrete(a.period, tuple(sums))
    return NotImplemented


def per_type_minkowski_sum(a, b, group):
    """The discrete branches of sets._minkowski_directed, either order."""
    result = _per_type_directed(a, b, group)
    return _per_type_directed(b, a, group) if result is NotImplemented else result


def per_type_difference_set(s, group):
    """The ExplicitFinite and PeriodicDiscrete branches of sets.difference_set."""
    if isinstance(s, ExplicitFinite):
        return _int_pairwise(s, s, group, sub)
    diffs = {tuple((x - y) % m for x, y, m in zip(p, q, s.period))
             for p in s.residues for q in s.residues}
    return PeriodicDiscrete(s.period, tuple(diffs))


def per_type_translate_set(s, g, group):
    """The ExplicitFinite and PeriodicDiscrete branches of sets.translate_set."""
    if isinstance(s, ExplicitFinite):
        return ExplicitFinite(tuple(group.add(e, g) for e in s.elements))
    g = group.check(g)
    return PeriodicDiscrete(
        s.period,
        tuple(tuple((c + d) % m for c, d, m in zip(r, g, s.period)) for r in s.residues),
    )


def per_element_layers(nu, group):
    """windows.measure_layers, each point checked, as it was when a Haar
    trace of a perturbed or eventually periodic configuration was refused."""
    layers, acc = [], []
    _per_element_collect(nu, group, layers, acc)
    return layers, tuple(acc)


def _per_element_collect(nu, group, layers, acc):
    def add(period, points, weight=Fraction(1)):
        if points:
            layers.append(AtomLayer(period, tuple((p, weight) for p in points)))

    if isinstance(nu, MeasureSum):
        for c in nu.components:
            _per_element_collect(c, group, layers, acc)
        return
    if isinstance(nu, DiracAtZero):
        add(None, (group.zero(),))
        return
    if isinstance(nu, WeightedDiracs):
        if nu.atoms:
            layers.append(AtomLayer(None, tuple((group.check(p), w) for p, w in nu.atoms)))
        return
    if not isinstance(nu, (Counting, HaarTrace)):
        raise PreconditionError(f"unsupported measure: {type(nu).__name__}")
    s = nu.of

    def held(P, positions, weight=1):  # a line configuration's ints over its D
        if positions:
            layers.append(PointLayer(s._D, P, positions, weight))

    line = isinstance(group, RealLine)
    trace = line and isinstance(nu, HaarTrace)  # Lebesgue measure restricted to s
    count = line and isinstance(nu, Counting)
    if trace and isinstance(s, (FinitePoints, PeriodicPoints, ExplicitFinite)):
        pass  # Lebesgue-null support, the zero measure
    elif trace and isinstance(s, IntervalUnion):
        if not s.is_empty:
            layers.append(TraceLayer(None, finite=s))
    elif trace and isinstance(s, PeriodicPattern):
        if not s.pattern.is_empty:
            layers.append(TraceLayer(s.period, periodic=s))
    elif isinstance(s, ExplicitFinite):
        add(None, [group.check(e) for e in s.elements])
    elif count and isinstance(s, _Held):  # the classes, extra, and removed at weight -1
        held(s._period, s._residues)
        held(None, s._extra)
        held(None, s._removed, -1)
        acc.extend(s.accumulation)
    elif isinstance(group, ZLattice) and isinstance(s, PeriodicDiscrete):
        add(s.period, [group.check(r) for r in s.residues])
    else:
        raise PreconditionError(
            f"{type(nu).__name__} of {type(s).__name__} is not a measure on {type(group).__name__}"
        )


def fraction_syndetic_line(S, K, group=RealLine()):
    """The line branch of additive.syndetic_check."""
    held = isinstance(S, _Held) and S._period and not S.accumulation
    if not (held or isinstance(S, PeriodicPattern)):
        raise PreconditionError("line syndetic checks need a periodic S")
    if not isinstance(K, (FinitePoints, IntervalUnion)):
        raise PreconditionError("line translate sets are points or interval unions")
    classes = _canonical(S._D, S._period, S._residues) if held else S
    summed = minkowski_sum(classes, K, group)
    if not isinstance(summed, PeriodicPattern):
        raise PreconditionError("S + K must have positive measure to cover the line")
    gap = next(gaps_within(summed.pattern.intervals, 0, summed.period), None)
    F = held and S._extra + S._removed  # the points S adds or removes
    if gap is None and F:
        # a point x that S + K misses has every class point of x - K
        # removed, so x lies in M + K, inside the zone [lo, hi]
        lo = Fraction(min(F), S._D) + K.inf - summed.period
        hi = Fraction(max(F), S._D) + K.sup + summed.period
        near = S.materialize(lo - K.sup, hi - K.inf)
        covered = IntervalUnion(tuple((s + a, s + b) for s in near for a, b in K.intervals))
        gap = next(gaps_within(covered.intervals, lo, hi), None)
    if gap is None:
        return SyndeticCertificate(K, True, summed)
    a, b = gap
    return SyndeticCertificate(K, False, (a + b) / 2)
