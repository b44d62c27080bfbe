"""The shift-supremum engine against brute-force materialized oracles."""

import random
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from math import ceil, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    CapExceededError,
    Counting,
    CylinderSet,
    ExplicitFinite,
    FiniteAbelian,
    FinitePoints,
    HaarTrace,
    IntervalUnion,
    MeasureSum,
    PeriodicPattern,
    PeriodicPoints,
    PerturbedLattice,
    PreconditionError,
    RealLine,
    ShapeMismatchError,
    SigmaFiniteChain,
    WeightedDiracs,
    ZLattice,
    real_mass,
    real_shift_sup,
    translate_set,
    window_mass,
    zd_shift_sup,
)
from density_lab.density import CustomK
from density_lab.rational import common_scale, frac_lcm
from density_lab.sets import DiracAtZero, PeriodicDiscrete
from density_lab.windows import (
    AtomLayer,
    ShiftScan,
    _base_positions,
    _layer_mass,
    _line_values,
    _scaled_scan,
    _torus_cube_masses,
    _torus_weights,
    _zd_mass_at,
    measure_layers,
    real_threshold_witness,
)

from oracles import per_candidate_values, replica_line_values

rng = random.Random(5)
R = RealLine()


def count_in(points, window):
    """How many of the sorted points lie in the window: one bisect pair per
    interval (the intervals of a window are disjoint)."""
    return sum(bisect_right(points, b) - bisect_left(points, a) for a, b in window.intervals)


def test_periodic_counting_sup_golden():
    nu = Counting(PeriodicPoints(2, (0,)))
    scan = real_shift_sup(nu, IntervalUnion.closed(-10, 10))
    assert scan.value == 11 and scan.argmax == 0


def test_sup_attained_and_unbeaten_by_random_probes():
    # the reported sup must re-evaluate exactly and no random shift may beat it
    for _ in range(40):
        period = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
        k = rng.randrange(1, 4)
        residues = sorted(
            {Fraction(rng.randrange(0, 24), 8) % period for _ in range(k)}
        )
        nu = Counting(PeriodicPoints(period, tuple(residues)))
        w = IntervalUnion.closed(0, Fraction(rng.randrange(1, 12), 2))
        scan = real_shift_sup(nu, w)
        assert real_mass(nu, w.translate(scan.argmax)) == scan.value
        pts = PeriodicPoints(period, tuple(residues)).materialize(-60, 60)
        for _ in range(60):
            x = Fraction(rng.randrange(-200, 200), rng.randrange(1, 16))
            probe = count_in(pts, w.translate(x))
            assert probe <= scan.value


def test_trace_sup_matches_density_times_window_for_aligned_periods():
    pat = PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])
    nu = HaarTrace(pat)
    scan = real_shift_sup(nu, IntervalUnion.closed(0, 3))  # window = 3 periods
    assert scan.value == Fraction(3, 2)


def test_trace_sup_unbeaten_by_probes():
    for _ in range(25):
        period = Fraction(rng.randrange(2, 6), rng.randrange(1, 3))
        a = Fraction(rng.randrange(0, 4), 4)
        b = a + Fraction(rng.randrange(1, 4), 4)
        pat = PeriodicPattern.from_pairs(period, [(a, min(b, period))])
        nu = HaarTrace(pat)
        w = IntervalUnion.closed(0, Fraction(rng.randrange(1, 10), 2))
        scan = real_shift_sup(nu, w)
        assert real_mass(nu, w.translate(scan.argmax)) == scan.value
        for _ in range(50):
            x = Fraction(rng.randrange(-100, 100), rng.randrange(1, 12))
            assert real_mass(nu, w.translate(x)) <= scan.value


def test_mixed_perturbed_lattice_sup():
    # integers plus n + 1/n extras: windows in the perturbed zone see two
    # points per unit length
    extras = tuple(Fraction(n * n + 1, n) for n in range(2, 40))
    s = PerturbedLattice(1, extra=extras)
    nu = Counting(s)
    w = IntervalUnion.closed(-10, 10)
    scan = real_shift_sup(nu, w)
    pts = list(s.materialize(-80, 80))
    # oracle: slide over all materialized event points
    best = 0
    for p in pts:
        for e in (p + 10, p - 10):
            best = max(best, count_in(pts, w.translate(e)))
    assert scan.value == best
    assert real_mass(nu, w.translate(scan.argmax)) == scan.value


def test_removed_points_lower_the_sup():
    s = PerturbedLattice(1, removed=(Fraction(0), Fraction(1)))
    nu = Counting(s)
    w = IntervalUnion.closed(0, 3)
    scan = real_shift_sup(nu, w)
    assert scan.value == 4  # far from the removals a length-3 window holds 4 points
    assert real_mass(nu, w.translate(Fraction(-1))) == 2  # the hole: -1, 2 only


def test_weighted_diracs_and_sum():
    nu = MeasureSum(
        (
            WeightedDiracs(((Fraction(0), Fraction(1, 2)), (Fraction(3), Fraction(2)))),
            Counting(PeriodicPoints(1, (0,))),
        )
    )
    w = IntervalUnion.closed(0, 1)
    scan = real_shift_sup(nu, w)
    # window [2, 3] captures the weight-2 atom plus integers 2 and 3
    assert scan.value == 4
    assert real_mass(nu, IntervalUnion.closed(2, 3)) == 4


def test_dirac_profile_values():
    nu = DiracAtZero()
    for r in (1, 10, 1000):
        scan = real_shift_sup(nu, IntervalUnion.closed(-r, r))
        assert scan.value == 1


def test_zd_periodic_sup_golden():
    nu = Counting(PeriodicDiscrete.line(3, [0]))
    scan = zd_shift_sup(nu, ZLattice(1), 10)
    assert scan.value == 7  # 21-cell window catches 7 multiples of 3


def test_zd_sup_two_dimensional():
    nu = Counting(PeriodicDiscrete((2, 3), ((0, 0), (1, 2))))
    scan = zd_shift_sup(nu, ZLattice(2), 2)
    assert scan.candidates == 6  # every center of the 2 x 3 period box
    # oracle: enumerate all centers in the period box and count directly
    pts = [
        (a + 2 * i, b + 3 * j)
        for (a, b) in ((0, 0), (1, 2))
        for i in range(-4, 5)
        for j in range(-4, 5)
    ]
    best = 0
    for x in range(2):
        for y in range(3):
            c = sum(1 for p, q in pts if abs(p - x) <= 2 and abs(q - y) <= 2)
            best = max(best, c)
    assert scan.value == best


def test_zd_finite_sup():
    from density_lab import ExplicitFinite

    nu = Counting(ExplicitFinite(((0,), (1,), (5,), (6,), (7,))))
    scan = zd_shift_sup(nu, ZLattice(1), 1)
    assert scan.value == 3  # window of side 3 catches {5, 6, 7}


def test_empty_measure_sup_zero():
    nu = Counting(FinitePoints(()))
    scan = real_shift_sup(nu, IntervalUnion.closed(0, 1))
    assert scan.value == 0 and scan.argmax == 0


CYLINDER = Counting(CylinderSet(1, ((0,),)))


@pytest.mark.parametrize(
    "nu, group",
    [
        (Counting(IntervalUnion.closed(0, 1)), FiniteAbelian((3,))),
        (Counting(IntervalUnion.closed(0, 1)), R),
        # a Lebesgue trace is only defined on the line; on R it is the zero measure
        (HaarTrace(PerturbedLattice(1, extra=(Fraction(1, 2),))), ZLattice(1)),
        (HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])), ZLattice(2)),
        (CYLINDER, R),
        (CYLINDER, ZLattice(1)),
        (CYLINDER, FiniteAbelian((2,))),
        (CYLINDER, SigmaFiniteChain((2, 2))),
    ],
)
def test_measure_layers_rejects_unsupported_pairs(nu, group):
    with pytest.raises(PreconditionError) as info:
        measure_layers(nu, group)
    assert info.type is PreconditionError


def test_lattice_residues_must_match_the_dimension():
    nu = Counting(PeriodicDiscrete((2, 3), ((0, 0),)))
    with pytest.raises(ShapeMismatchError):
        measure_layers(nu, ZLattice(1))


def test_haar_trace_of_points_on_line_has_no_layers():
    lattice = PerturbedLattice(1, extra=(Fraction(1, 2),))
    shifted = translate_set(lattice, Fraction(1, 3), R)
    assert type(shifted).__name__ == "EventuallyPeriodicPoints"
    for s in (
        FinitePoints((Fraction(1), Fraction(2))),
        PeriodicPoints(Fraction(1), (Fraction(0),)),
        ExplicitFinite((Fraction(1),)),
        lattice,  # countable, so Lebesgue-null like the rest
        shifted,
    ):
        assert measure_layers(HaarTrace(s), R) == ([], ())


def test_sum_of_different_periods_sup():
    # counting on 2Z plus a trace of period 3: the scan works over lcm 6
    nu = MeasureSum(
        (
            Counting(PeriodicPoints(2, (0,))),
            HaarTrace(PeriodicPattern.from_pairs(3, [(0, 1)])),
        )
    )
    w = IntervalUnion.closed(0, 4)
    scan = real_shift_sup(nu, w)
    assert real_mass(nu, w.translate(scan.argmax)) == scan.value
    pts = PeriodicPoints(2, (0,)).materialize(-40, 40)
    pat = PeriodicPattern.from_pairs(3, [(0, 1)])
    for k in range(-96, 96):
        x = Fraction(k, 8)
        probe = count_in(pts, w.translate(x)) + pat.mass_on(x, x + 4)
        assert probe <= scan.value


def test_perturbed_lattice_with_removals_sup_oracle():
    for _ in range(20):
        step = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
        extras = tuple(
            sorted(
                {
                    Fraction(rng.randrange(1, 40), rng.randrange(2, 5))
                    for _ in range(rng.randrange(0, 5))
                }
            )
        )
        extras = tuple(e for e in extras if (e / step).denominator != 1)
        removed = tuple(
            sorted({step * rng.randrange(0, 12) for _ in range(rng.randrange(0, 3))})
        )
        s = PerturbedLattice(step, extra=extras, removed=removed)
        w = IntervalUnion.closed(0, Fraction(rng.randrange(1, 10), 2))
        scan = real_shift_sup(Counting(s), w)
        assert real_mass(Counting(s), w.translate(scan.argmax)) == scan.value
        pts = list(s.materialize(-60, 60))
        for _ in range(80):
            x = Fraction(rng.randrange(-160, 160), rng.randrange(1, 8))
            assert count_in(pts, w.translate(x)) <= scan.value


# ---------------------------------------------------------------------------
# the integer line scan against the per-candidate Fraction scan it replaced


def fraction_candidates(layers, window):
    """The Fraction candidate generator of the rational scan."""
    ws = window.endpoints()
    periodic = [l for l in layers if l.period is not None]
    finite = [l for l in layers if l.period is None]
    cands = {Fraction(0)}
    if periodic and not finite:
        big = periodic[0].period
        for l in periodic[1:]:
            big = frac_lcm(big, l.period)
        for l in periodic:
            reps = int(big / l.period)
            for base in _base_positions(l):
                for w in ws:
                    e = (base - w) % l.period
                    for j in range(reps):
                        cands.add(e + j * l.period)
        return sorted(cands)
    if finite and not periodic:
        for l in finite:
            for base in _base_positions(l):
                for w in ws:
                    cands.add(base - w)
        return sorted(cands)
    if not layers:
        return [Fraction(0)]
    big = periodic[0].period
    for l in periodic[1:]:
        big = frac_lcm(big, l.period)
    support = [p for l in finite for p in _base_positions(l)]
    w_lo, w_hi = min(ws), max(ws)
    zone_lo = min(support) - w_hi - big
    zone_hi = max(support) - w_lo + big
    for l in finite:
        for base in _base_positions(l):
            for w in ws:
                cands.add(base - w)
    for l in periodic:
        for base in _base_positions(l):
            for w in ws:
                e = base - w
                k = ceil((zone_lo - e) / l.period)
                while e + k * l.period <= zone_hi:
                    cands.add(e + k * l.period)
                    k += 1
                far = zone_hi + ((e - zone_hi) % big)
                for j in range(int(big / l.period)):
                    cands.add(far + j * l.period)
    return sorted(cands)


def fraction_values(nu, window):
    """[(x, nu(x + window))] over the candidates, in increasing x, re-evaluating
    every layer on a freshly translated window per candidate."""
    layers, _ = measure_layers(nu, R)
    return [
        (x, sum((_layer_mass(l, window.translate(x)) for l in layers), Fraction(0)))
        for x in fraction_candidates(layers, window)
    ]


# periods with denominators 1, 2, 3 and 4; their lcms stay at most 15
PERIODS = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(3, 4))
coords = st.builds(Fraction, st.integers(-16, 16), st.sampled_from((1, 2, 3, 4)))
weights = st.builds(Fraction, st.integers(1, 7), st.sampled_from((1, 2, 3, 5)))


@st.composite
def line_component(draw):
    kind = draw(
        st.sampled_from(
            ("points", "periodic", "perturbed", "diracs", "trace", "pattern", "dirac")
        )
    )
    period = draw(st.sampled_from(PERIODS))
    if kind == "points":
        return Counting(FinitePoints(tuple(draw(st.lists(coords, min_size=1, max_size=4)))))
    if kind == "periodic":
        residues = draw(st.lists(coords, min_size=1, max_size=3))
        return Counting(PeriodicPoints(period, tuple(residues)))
    if kind == "perturbed":
        extra = [p for p in draw(st.lists(coords, max_size=3)) if (p / period).denominator != 1]
        removed = [period * k for k in draw(st.lists(st.integers(-5, 5), max_size=3))]
        return Counting(PerturbedLattice(period, tuple(extra), tuple(removed)))
    if kind == "diracs":
        atoms = draw(st.lists(st.tuples(coords, weights), min_size=1, max_size=4))
        return WeightedDiracs(tuple(atoms))
    if kind == "trace":
        starts = draw(st.lists(coords, min_size=1, max_size=3))
        return HaarTrace(IntervalUnion(tuple((a, a + draw(weights) / 2) for a in starts)))
    if kind == "pattern":
        starts = draw(st.lists(coords, min_size=1, max_size=2))
        pairs = [(a % period, a % period + period * draw(weights) / 8) for a in starts]
        return HaarTrace(PeriodicPattern.from_pairs(period, [(a, min(b, period)) for a, b in pairs]))
    return DiracAtZero()


@st.composite
def custom_windows(draw):
    """rK for a unit-length K of one to three pieces, maybe plus a point."""
    cuts = draw(st.lists(st.integers(1, 11), max_size=2, unique=True))
    edges = [0] + sorted(cuts) + [12]
    pieces = []
    cursor = draw(coords)
    for lo, hi in zip(edges, edges[1:]):
        pieces.append((cursor, cursor + Fraction(hi - lo, 12)))
        cursor += Fraction(hi - lo, 12) + draw(st.sampled_from((Fraction(1, 3), Fraction(1, 2), 1)))
    if draw(st.booleans()):
        pieces.append((cursor, cursor))
    shape = CustomK(IntervalUnion(tuple(pieces))).shape
    return shape.scale(draw(st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(7, 3), 4))))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(line_component(), min_size=1, max_size=3),
    custom_windows(),
    st.integers(0, 4),
)
def test_integer_scan_matches_fraction_scan(components, window, step):
    nu = components[0] if len(components) == 1 else MeasureSum(tuple(components))
    values = fraction_values(nu, window)
    best_x, best = values[0]
    for x, v in values:
        if v > best:
            best_x, best = x, v
    # the span candidates are candidates of the full scan, with its values
    mass = dict(values)
    D, Dw, cands, ints = _line_values(measure_layers(nu, R)[0], window)
    got = [(Fraction(x, D), Fraction(v, D * Dw)) for x, v in zip(cands, ints)]
    assert got == [(x, mass[x]) for x, _ in got]
    scan = real_shift_sup(nu, window)
    assert (scan.value, scan.argmax, scan.candidates) == (best, best_x, len(cands))
    # step 0 asks for a hair more than the attained sup, so no candidate reaches it
    threshold = best - Fraction(step, 2) if step else best + Fraction(1, 10**9)
    found, witness_scan = real_threshold_witness(nu, window, threshold)
    assert found == next((x for x, v in values if v >= threshold), None)
    assert witness_scan == scan


# ---------------------------------------------------------------------------
# the event sweep against the per-candidate mass closures that seeded it


LINE_FAMILIES = (
    "periodic", "perturbed", "pattern",
    "periodic+dirac", "perturbed+dirac", "pattern+dirac", "periodic+pattern",
)


@st.composite
def line_family(draw):
    """A small member of one of the benchmark's seven line families: periodic
    points on 1/120, a lattice perturbed on 1/5, a periodic pattern cut on
    1/120, and their sums with each other or with the Dirac mass at 0."""
    family = draw(st.sampled_from(LINE_FAMILIES))
    period = draw(st.integers(1, 3))
    parts = []
    if family.startswith("periodic"):
        ks = draw(st.lists(st.integers(0, 120 * period - 1), min_size=1, max_size=12, unique=True))
        parts.append(Counting(PeriodicPoints(period, tuple(Fraction(k, 120) for k in ks))))
    if family.startswith("perturbed"):
        ks = draw(st.lists(st.integers(0, 60).filter(lambda k: k % 5), max_size=10, unique=True))
        removed = draw(st.lists(st.integers(0, 12), max_size=3, unique=True))
        extra = tuple(Fraction(k, 5) for k in ks)
        parts.append(Counting(PerturbedLattice(1, extra, tuple(map(Fraction, removed)))))
    if "pattern" in family:
        cuts = draw(st.lists(st.integers(1, 120 * period - 1), min_size=2, max_size=10, unique=True))
        cuts.sort()
        pairs = [(Fraction(a, 120), Fraction(b, 120)) for a, b in zip(cuts[::2], cuts[1::2])]
        parts.append(HaarTrace(PeriodicPattern.from_pairs(period, pairs)))
    if family.endswith("dirac"):
        parts.append(DiracAtZero())
    return parts[0] if len(parts) == 1 else MeasureSum(tuple(parts))


@st.composite
def workload_windows(draw):
    """The benchmark's window kinds at its radii: [-r, r], [0, r] and the
    split r * ([0, 1/2] u [3/4, 5/4])."""
    r = Fraction(draw(st.sampled_from((4, 10, 25))))
    return draw(st.sampled_from((
        IntervalUnion.closed(-r, r),
        IntervalUnion.closed(0, r),
        IntervalUnion(((0, r / 2), (3 * r / 4, 5 * r / 4))),
    )))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(line_component(), min_size=1, max_size=3).map(
            lambda cs: cs[0] if len(cs) == 1 else MeasureSum(tuple(cs))
        ),
        line_family(),
    ),
    st.one_of(custom_windows(), workload_windows()),
)
# a finite atom plus a periodic trace: the trace steps in the gap between the
# perturbation zone and the far period must not be interpolated over
@example(
    MeasureSum((
        Counting(FinitePoints((Fraction(2),))),
        HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 8))])),
    )),
    IntervalUnion.closed(0, Fraction(1, 2)),
)
# a trace step at the first candidate is in the seed slope and must not be
# counted again
@example(HaarTrace(IntervalUnion.closed(0, Fraction(1, 2))), IntervalUnion.closed(0, Fraction(1, 2)))
def test_sweep_matches_per_candidate_loop_at_every_candidate(nu, window):
    layers, _ = measure_layers(nu, R)
    assert _line_values(layers, window)[3] == per_candidate_values(layers, window)


def test_sweep_sums_the_replicas_between_spans_in_closed_form():
    # 0 and the perturbation zone lie 10^7 periods apart: walking the replicas
    # in between would take millions of steps. They are summed onto the
    # zone's first candidate in closed form instead: from n = 10^7 replicas
    # after 0, whose trace term P * n * (n - 1) / 2 is about 10^14, or, for a
    # zone below 0, from n < 0 replicas, floored by divmod, before it.
    pattern = HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 3)), (Fraction(1, 2), 1)]))
    far = Fraction(2 * 10**7 + 1, 2)
    measures = (
        Counting(PerturbedLattice(1, extra=(far,))),
        MeasureSum((pattern, WeightedDiracs(((far, Fraction(3, 2)),)))),
        MeasureSum(
            (pattern, Counting(PerturbedLattice(1, extra=(-far,), removed=(Fraction(-(10**7)),))))
        ),
    )
    window = IntervalUnion(((0, Fraction(1, 3)), (1, 2)))
    for nu in measures:
        layers, _ = measure_layers(nu, R)
        start = time.perf_counter()
        _, _, cands, values = _line_values(layers, window)
        assert time.perf_counter() - start < 0.5
        assert max(c - p for p, c in zip(cands, cands[1:])) > 10**7
        assert values == per_candidate_values(layers, window)


# ---------------------------------------------------------------------------
# the span sweep against the replica sweep it replaced


def records(cands, values):
    """[(x, value)] wherever the running maximum rises: the least witness of
    every threshold, and last the least maximizer."""
    out = []
    for x, v in zip(cands, values):
        if not out or v > out[-1][1]:
            out.append((x, v))
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(line_component(), min_size=1, max_size=3).map(
            lambda cs: cs[0] if len(cs) == 1 else MeasureSum(tuple(cs))
        ),
        line_family(),
    ),
    st.one_of(
        custom_windows(), workload_windows(), coords.map(lambda x: IntervalUnion.closed(x, x))
    ),
    st.sampled_from((0, 0, 25, -60)),
)
# a finite trace longer than the window: the mass rises across the gap
# (13/2, 21/2), four periods long, and first reaches 17/2 inside it, at 10
@example(
    MeasureSum((
        HaarTrace(IntervalUnion.closed(Fraction(21, 2), 20)),
        Counting(PeriodicPoints(1, (0,))),
    )),
    IntervalUnion.closed(0, 4),
    0,
)
# 0 lies in a gap far below the events and the one-point span holds it
@example(Counting(PerturbedLattice(1, extra=(Fraction(1, 2),), removed=(Fraction(2),))),
         IntervalUnion.closed(0, Fraction(1, 2)), -60)
def test_span_scan_matches_the_replica_sweep(nu, window, shift):
    """The span candidates are candidates of the replica sweep, with its
    values, and reach every level at the same least candidate: the same
    supremum, least maximizer and least witness of every threshold."""
    window = window.translate(shift)
    layers, _ = measure_layers(nu, R)
    _, _, cands, values = _line_values(layers, window)
    _, _, every, want = replica_line_values(layers, window)
    mass = dict(zip(every, want))
    assert [mass[x] for x in cands] == values
    assert records(cands, values) == records(every, want)


# ---------------------------------------------------------------------------
# each path of the span sweep against both oracles


def sweep_paths(layers, window):
    """The paths _sweep takes on a scan: "how kind" for each periodic layer
    and span, how being "one" when the span is no longer than the layer's
    period (one index test per step) and "many" when its replicas are
    walked, kind "atoms" or "trace"; plus "spans" when there are several."""
    *_, int_layers, cands, starts = _scaled_scan(layers, window)
    lasts = [cands[i - 1] for i in starts[1:]] + [cands[-1]]
    paths = {"spans"} if len(starts) > 1 else set()
    for l in int_layers:
        if l.period is not None:
            for i, last in zip(starts, lasts):
                how = "one" if last - cands[i] <= l.period else "many"
                paths.add(f"{how} {'trace' if l.trace else 'atoms'}")
    return paths


def twelfths(period):
    return st.integers(0, int(12 * period) - 1).map(lambda k: Fraction(k, 12))


@st.composite
def periodic_part(draw, period, kind):
    """Counting periodic points or the trace of a periodic pattern, of the period."""
    if kind == "atoms":
        residues = draw(st.lists(twelfths(period), min_size=1, max_size=4, unique=True))
        return Counting(PeriodicPoints(period, tuple(residues)))
    cuts = sorted(draw(st.lists(twelfths(period), min_size=2, max_size=6, unique=True)))
    return HaarTrace(PeriodicPattern.from_pairs(period, list(zip(cuts[::2], cuts[1::2]))))


KINDS = st.sampled_from(("atoms", "trace"))


@st.composite
def sweep_cases(draw):
    """(path, measure): "one", layers of one period, so the one span [0, P)
    is shorter than each; "many", a layer of period p beside one of 3p or
    3p/2, so the one span, in [0, 3p) and holding the first layer's events
    past 2p, is longer than p; "spans", a periodic layer and finite points 7
    apart, so the events of a window of length <= 2 leave gaps longer than
    the period."""
    path = draw(st.sampled_from(("one", "many", "spans")))
    period = draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))))
    parts = [draw(periodic_part(period, draw(KINDS)))]
    if path == "one" and draw(st.booleans()):
        parts.append(draw(periodic_part(period, draw(KINDS))))
    if path == "many":
        longer = period * draw(st.sampled_from((3, Fraction(3, 2))))
        parts.append(draw(periodic_part(longer, "atoms")))
    if path == "spans":
        ks = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4, unique=True))
        parts.append(Counting(FinitePoints(tuple(7 * k + draw(twelfths(1)) for k in ks))))
    return path, parts[0] if len(parts) == 1 else MeasureSum(tuple(parts))


SHORT_WINDOWS = st.sampled_from((
    IntervalUnion.closed(-1, 1),
    IntervalUnion.closed(0, Fraction(1, 3)),
    IntervalUnion(((0, Fraction(1, 2)), (Fraction(3, 4), Fraction(5, 4)))),
    IntervalUnion.point(Fraction(5, 12)),
))
THIRD = IntervalUnion.closed(0, Fraction(1, 3))


@settings(max_examples=60, deadline=None)
@given(sweep_cases(), SHORT_WINDOWS, st.sampled_from((0, Fraction(5, 2), -7)))
@example(("one atoms", Counting(PeriodicPoints(2, (0, Fraction(3, 4))))),
         IntervalUnion.closed(-1, 1), 0)
@example(("one trace", HaarTrace(PeriodicPattern.from_pairs(Fraction(3, 2), [(0, 1)]))), THIRD, 0)
@example(("many atoms", MeasureSum((Counting(PeriodicPoints(1, (Fraction(1, 3),))),
                                    Counting(PeriodicPoints(3, (Fraction(1, 2),)))))),
         IntervalUnion(((0, Fraction(1, 2)), (Fraction(3, 4), Fraction(5, 4)))), 0)
@example(("many trace", MeasureSum((HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 4))])),
                                    Counting(PeriodicPoints(Fraction(3, 2), (Fraction(1, 6),)))))),
         IntervalUnion.closed(-1, 1), 0)
@example(("spans", MeasureSum((HaarTrace(PeriodicPattern.from_pairs(2, [(Fraction(1, 2), 1)])),
                               Counting(FinitePoints((-7, Fraction(85, 12), 28)))))),
         THIRD, 0)
def test_each_sweep_path_matches_both_oracles(case, window, shift):
    """On a scan that takes the drawn path (each example names the one it
    takes), the sweep's values are the per-candidate oracle's, and the
    public scans give the value, least argmax, candidate count and least
    threshold witnesses of the replica sweep."""
    path, nu = case
    window = window.translate(shift)
    layers, _ = measure_layers(nu, R)
    assert any(p.startswith(path) for p in sweep_paths(layers, window))
    D, Dw, cands, values = _line_values(layers, window)
    assert values == per_candidate_values(layers, window)
    _, _, every, want = replica_line_values(layers, window)
    levels = records(every, want)
    assert records(cands, values) == levels
    x, best = levels[-1]
    scan = ShiftScan(Fraction(best, D * Dw), Fraction(x, D), len(cands))
    assert real_shift_sup(nu, window) == scan
    for x, v in levels:
        assert real_threshold_witness(nu, window, Fraction(v, D * Dw))[0] == Fraction(x, D)


# ---------------------------------------------------------------------------
# the Z^d torus window table against the per-center Fraction scan


def fraction_cube_scan(layers, r):
    """The cube scan the torus table replaced: every center of the period box,
    in lexicographic order, each evaluated layer by layer in Fractions."""
    periodic = [l for l in layers if l.period is not None]
    period = tuple(lcm(*ms) for ms in zip(*(l.period for l in periodic)))
    cands = product(*(range(m) for m in period))
    best = None
    best_x = None
    scanned = 0
    for x in cands:
        scanned += 1
        v = _zd_mass_at(layers, x, r)
        if best is None or v > best:
            best, best_x = v, x
    return ShiftScan(best, best_x, scanned)


@st.composite
def periodic_zd_layers(draw):
    """One to three periodic layers on Z^d, d = 1..3, with their own periods
    and weighted residues (Counting layers have weight 1; AtomLayer takes any)."""
    d = draw(st.integers(1, 3))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        period = tuple(draw(st.integers(1, 6 if d < 3 else 3)) for _ in range(d))
        cells = st.tuples(*(st.integers(0, m - 1) for m in period))
        residues = draw(st.lists(cells, min_size=1, max_size=4, unique=True))
        atoms = tuple((res, draw(weights)) for res in residues)
        layers.append(AtomLayer(period, atoms))
    return d, layers


@settings(max_examples=40, deadline=None)
@given(periodic_zd_layers(), st.integers(0, 13))
def test_torus_table_matches_fraction_cube_scan(drawn, r):
    d, layers = drawn
    want = fraction_cube_scan(layers, r)
    period = tuple(lcm(*ms) for ms in zip(*(l.period for l in layers)))
    Dw, weights = common_scale(w for l in layers for _, w in l.atoms)
    masses = _torus_cube_masses(_torus_weights(layers, period, weights), period, r)
    cells = list(product(*(range(m) for m in period)))
    assert [Fraction(v, Dw) for v in masses] == [_zd_mass_at(layers, x, r) for x in cells]
    # the public scan on the same residues, each layer as a counting measure
    nu = MeasureSum(
        tuple(Counting(PeriodicDiscrete(l.period, tuple(p for p, _ in l.atoms))) for l in layers)
    )
    unit = [AtomLayer(l.period, tuple((p, Fraction(1)) for p, _ in l.atoms)) for l in layers]
    assert zd_shift_sup(nu, ZLattice(d), r) == fraction_cube_scan(unit, r)
    best = max(masses)
    assert (Fraction(best, Dw), cells[masses.index(best)], len(cells)) == (
        want.value,
        want.argmax,
        want.candidates,
    )


def test_zd_shift_sup_caps_the_torus_before_building_it():
    nu = Counting(PeriodicDiscrete((2048, 1024), ((0, 0),)))  # 2^21 centers > 2^20
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            zd_shift_sup(nu, ZLattice(2), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 2^21-cell table alone would take 16 MB


def test_line_scan_caps_the_periodic_replicas_before_building_them():
    # four coprime periods near 1: their lcm holds about 1e9 replicas of each layer
    nu = MeasureSum(
        tuple(Counting(PeriodicPoints(Fraction(p, 1000), (0,))) for p in (1009, 1013, 1019, 1021))
    )
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            real_shift_sup(nu, IntervalUnion.closed(0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zd_shift_sup_caps_the_finite_grid():
    # 1100 distinct coordinates on each axis: 1.21e6 centers > 2^20
    nu = Counting(ExplicitFinite(tuple((k, 2 * k) for k in range(1100))))
    with pytest.raises(CapExceededError):
        zd_shift_sup(nu, ZLattice(2), 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=6),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)), st.integers(0, 3))
def test_window_mass_on_z2_is_the_cube_count(points, x, r):
    """window_mass on Z^2 counts the points in the cube of side 2r + 1
    around x, as a loop over the points does."""
    nu = Counting(ExplicitFinite(tuple(points)))
    count = sum(all(abs(p - c) <= r for p, c in zip(pt, x)) for pt in set(points))
    assert window_mass(nu, ZLattice(2), x, r) == count
    with pytest.raises(PreconditionError, match="integer cube radii"):
        window_mass(nu, ZLattice(2), x, Fraction(r))
