import random
import warnings
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    AccumulationPoint,
    Counting,
    CylinderSet,
    ExplicitFinite,
    FiniteAbelian,
    FinitePoints,
    HaarTrace,
    IntervalUnion,
    MeasureSum,
    PeriodicDiscrete,
    PeriodicPattern,
    PeriodicPoints,
    PerturbedLattice,
    PreconditionError,
    RealLine,
    ShapeMismatchError,
    SigmaFiniteChain,
    WeightedDiracs,
    ZLattice,
    difference_set,
    haar,
    is_infinite,
    minkowski_sum,
    real_mass,
    translate_measure,
    translate_set,
    window_mass,
)
from density_lab.groups import _strip
from density_lab.sets import DiracAtZero, discrete_quotient
from oracles import difference_marker, min_positive_difference

rng = random.Random(11)
Z = ZLattice(1)
R = RealLine()


def test_minkowski_residues_oracle():
    a = PeriodicDiscrete.line(6, [0, 1])
    b = PeriodicDiscrete.line(6, [0, 3])
    got = minkowski_sum(a, b, Z)
    expected = sorted({(x + y) % 6 for x in (0, 1) for y in (0, 3)})
    assert list(got.line_residues()) == expected == [0, 1, 3, 4]


def test_minkowski_lcm_periods():
    a = PeriodicDiscrete.line(2, [0])
    b = PeriodicDiscrete.line(3, [0])
    got = minkowski_sum(a, b, Z)
    assert got.period == (6,)
    # oracle over one lcm period
    expected = sorted({(2 * i + 3 * j) % 6 for i in range(3) for j in range(2)})
    assert list(got.line_residues()) == expected


def test_minkowski_commutative_random():
    for _ in range(100):
        m = rng.randrange(2, 12)
        a = PeriodicDiscrete.line(m, rng.sample(range(m), rng.randrange(1, m)))
        b = PeriodicDiscrete.line(m, rng.sample(range(m), rng.randrange(1, m)))
        assert minkowski_sum(a, b, Z) == minkowski_sum(b, a, Z)


def test_difference_set_examples():
    assert difference_set(PeriodicDiscrete.line(3, [0]), Z) == PeriodicDiscrete.line(3, [0])
    d = difference_set(PeriodicDiscrete.line(7, [0, 1, 3]), Z)
    oracle = sorted({(x - y) % 7 for x in (0, 1, 3) for y in (0, 1, 3)})
    assert list(d.line_residues()) == oracle == list(range(7))


def test_difference_set_symmetric_and_contains_zero():
    for _ in range(200):
        m = rng.randrange(2, 15)
        s = PeriodicDiscrete.line(m, rng.sample(range(m), rng.randrange(1, m + 1)))
        d = difference_set(s, Z)
        res = set(d.line_residues())
        assert 0 in res
        assert all((-x) % m in res for x in res)


def test_difference_set_empty_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = difference_set(ExplicitFinite(()), Z)
        assert len(d.elements) == 0
        assert any("empty" in str(w.message) for w in caught)


def test_difference_set_refuses_an_empty_cylinder_like_any_cylinder():
    chain = SigmaFiniteChain((2, 3))
    for s in (CylinderSet(1, ()), CylinderSet(1, ((1,),))):
        with pytest.raises(PreconditionError, match="unsupported difference-set input: CylinderSet"):
            difference_set(s, chain)


def test_perturbed_difference_window():
    # points n + 1/n for 2 <= n <= 6 together with the integers
    s = PerturbedLattice(1, extra=tuple(Fraction(n * n + 1, n) for n in range(2, 7)))
    pts = set(difference_set(s, R).materialize(Fraction(-1, 2), Fraction(1, 2)))
    assert Fraction(0) in pts
    for n in range(2, 7):
        assert Fraction(1, n) in pts and Fraction(-1, n) in pts
    with pytest.raises(TypeError, match="window"):  # a window is materialize's alone
        difference_set(s, R, window=(-1, 1))


@pytest.mark.parametrize("s, group", [
    (FinitePoints((0, Fraction(1, 2))), R),
    (PeriodicPoints(1, (0,)), R),
    (IntervalUnion.closed(0, 1), R),
    (ExplicitFinite(((0,), (3,))), Z),
    (PeriodicDiscrete.line(3, [0]), Z),
])
def test_difference_set_refuses_a_window_on_all_but_a_perturbed_lattice(s, group):
    # the difference set of these was always returned whole, and now that of
    # every set is: difference_set takes no window (test_perturbed_difference_window)
    difference_set(s, group)
    with pytest.raises(TypeError, match="window"):
        difference_set(s, group, window=(100, 200))


def test_window_mass_examples():
    nu = Counting(PeriodicPoints(2, (0,)))
    assert window_mass(nu, R, 0, 5) == 5
    trace = HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))]))
    assert window_mass(trace, R, Fraction(1, 4), IntervalUnion.closed(-1, 1)) == 1
    # independent oracle: materialize the pattern and clip
    pat = PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])
    assert pat.materialize(Fraction(-3, 4), Fraction(5, 4)).length == 1
    acc = Counting(
        FinitePoints(
            tuple(Fraction(1, n) for n in range(1, 60)),
            accumulation=(AccumulationPoint(Fraction(0), "above"),),
        )
    )
    v = window_mass(acc, R, 0, Fraction(1, 1000))
    assert is_infinite(v)
    # window on the non-accumulating side stays finite
    assert window_mass(acc, R, 0, IntervalUnion.closed(-1, 0)) == 0


def test_window_mass_translation_covariance():
    nu = Counting(PeriodicPoints(Fraction(3, 2), (0, Fraction(1, 3))))
    w = IntervalUnion.closed(Fraction(-1, 2), Fraction(5, 4))
    for _ in range(100):
        x = Fraction(rng.randrange(-30, 30), rng.randrange(1, 9))
        g = Fraction(rng.randrange(-30, 30), rng.randrange(1, 9))
        shifted = translate_measure(nu, g, R)
        assert window_mass(shifted, R, x + g, w) == window_mass(nu, R, x, w)


def test_haar_examples():
    assert haar(ExplicitFinite(((0,), (1,), (3,))), FiniteAbelian((7,))) == 3
    u = IntervalUnion(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(5, 2))))
    assert haar(u, R) == Fraction(3, 2)
    inf = haar(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 3))]), R)
    assert is_infinite(inf)
    assert inf.certificate == ("per-period", Fraction(1, 3), Fraction(1))
    assert haar(PeriodicPoints(2, (0,)), R) == 0  # countable sets are null


def test_canonicalization_idempotent():
    s = PeriodicDiscrete.line(6, [8, 2, 2, 13])
    assert PeriodicDiscrete(s.period, s.residues) == s
    fp = FinitePoints((Fraction(1, 2), Fraction(1, 2), Fraction(-1)))
    assert FinitePoints(fp.points) == fp
    pp = PeriodicPoints(2, (Fraction(5, 2), Fraction(1, 2)))
    assert pp.residues == (Fraction(1, 2),)


def test_perturbed_lattice_validation():
    with pytest.raises(PreconditionError):
        PerturbedLattice(1, extra=(Fraction(2),))  # duplicates a lattice point
    with pytest.raises(PreconditionError):
        PerturbedLattice(1, removed=(Fraction(1, 2),))  # not on the lattice
    s = PerturbedLattice(1, extra=(Fraction(5, 2),), removed=(Fraction(2),))
    assert s.materialize(0, 3) == (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(3))


def test_translate_set_roundtrip():
    s = PeriodicPoints(Fraction(3, 2), (0, Fraction(1, 2)))
    t = translate_set(translate_set(s, Fraction(1, 3), R), Fraction(-1, 3), R)
    assert t == s


@given(st.lists(st.integers(0, 23), min_size=1, max_size=8))
def test_periodic_discrete_reduction(residues):
    s = PeriodicDiscrete.line(12, residues)
    assert all(0 <= r < 12 for r in s.line_residues())
    assert sorted(set(r % 12 for r in residues)) == list(s.line_residues())


@given(
    st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=8),
             min_size=1, max_size=6)
)
def test_finite_points_difference_symmetric(points):
    s = FinitePoints(tuple(points))
    d = difference_set(s, R)
    pts = set(d.points)
    assert Fraction(0) in pts
    assert all(-p in pts for p in pts)


@given(
    st.fractions(min_value=1, max_value=4, max_denominator=4),
    st.lists(st.fractions(min_value=0, max_value=4, max_denominator=8),
             min_size=1, max_size=4),
    st.fractions(min_value=-8, max_value=8, max_denominator=8),
)
def test_window_mass_covariance_property(period, residues, g):
    nu = Counting(PeriodicPoints(period, tuple(residues)))
    w = IntervalUnion.closed(0, 2)
    shifted = translate_measure(nu, g, R)
    assert window_mass(shifted, R, g, w) == window_mass(nu, R, 0, w)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_discrete_quotient_indexes_each_set_kind(data):
    """The index list and lift of every discrete set kind against a scan of
    the quotient's elements."""
    kind = data.draw(st.sampled_from(("finite", "lattice", "chain")))
    if kind == "chain":
        group = SigmaFiniteChain(tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))))
        depth = data.draw(st.integers(0, group.depth))
        cells = st.sampled_from(FiniteAbelian(group.moduli[:depth]).elements())
        s = CylinderSet(depth, tuple(data.draw(st.lists(cells, max_size=4))))
    elif kind == "lattice":
        period = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        group = ZLattice(len(period))
        point = st.tuples(*[st.integers(-9, 9)] * len(period))
        s = PeriodicDiscrete(period, tuple(data.draw(st.lists(point, max_size=6))))
    else:
        group = FiniteAbelian(tuple(data.draw(st.lists(st.integers(1, 4), max_size=3))))
        s = ExplicitFinite(tuple(data.draw(st.lists(st.sampled_from(group.elements()), max_size=6))))
    quotient, indices, lift = discrete_quotient(s, group)
    elements = quotient.elements()
    lifted = [_strip(e) if kind == "chain" else e for e in elements]
    if kind == "chain":
        expect = [i for i, e in enumerate(lifted) if s.contains(e, group)]
    else:
        expect = [i for i, e in enumerate(elements) if e in (s.residues if kind == "lattice" else s.elements)]
    assert indices == expect
    assert [lift(e) for e in elements] == lifted


# ---------------------------------------------------------------------------
# integer difference kernels against the Fraction formulas they replaced


def fraction_perturbed_difference(s, lo, hi):
    """The Fraction loop the integer _perturbed_difference replaced."""
    removed = set(s.removed)
    step = s.step
    diffs = set()
    k = ceil(lo / step)
    while k * step <= hi:
        diffs.add(k * step)
        k += 1
    for e in s.extra:
        for sign in (1, -1):
            lo_m = (e - hi) if sign == 1 else (e + lo)
            hi_m = (e - lo) if sign == 1 else (e + hi)
            k = ceil(lo_m / step)
            while k * step <= hi_m:
                p = k * step
                if p not in removed:
                    diffs.add(sign * (e - p))
                k += 1
    for a in s.extra:
        for b in s.extra:
            if lo <= a - b <= hi:
                diffs.add(a - b)
    acc = (AccumulationPoint(Fraction(0), "both"),) if s.accumulation else ()
    return FinitePoints(tuple(diffs), accumulation=acc)


mixed = st.fractions(min_value=-6, max_value=6, max_denominator=36)
RECIPROCALS = tuple(Fraction(1, n) for n in range(1, 101))


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed, max_size=14), st.booleans())
@example(list(RECIPROCALS), False)
@example(list(RECIPROCALS), True)
def test_integer_difference_matches_fraction_difference(points, accumulating):
    acc = (AccumulationPoint(Fraction(0)),) if accumulating else ()
    s = FinitePoints(tuple(points), acc)
    if not s.points and not acc:
        return  # the empty set warns and is covered above
    d = difference_set(s, R)
    oracle_acc = (AccumulationPoint(Fraction(0), "both"),) if accumulating else ()
    assert d == FinitePoints(tuple(x - y for x in s.points for y in s.points), oracle_acc)
    # the trusted constructor's result is what the public one builds
    assert d == FinitePoints(d.points, d.accumulation)
    assert all(type(p) is Fraction for p in d.points)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((Fraction(1), Fraction(2, 3), Fraction(5, 4), Fraction(7))),
    st.lists(mixed, max_size=6),
    st.lists(st.integers(-6, 6), max_size=3),
    mixed,
    st.fractions(min_value=0, max_value=9, max_denominator=20),
    st.booleans(),
)
def test_integer_perturbed_difference_matches_fraction_loop(step, extra, removed, lo, width, acc):
    removed = {k * step for k in removed}
    extra = {p for p in extra if (p / step).denominator != 1 or p in removed}
    s = PerturbedLattice(
        step, tuple(extra), tuple(removed), (AccumulationPoint(Fraction(0)),) if acc else ()
    )
    d = difference_set(s, R)
    oracle = fraction_perturbed_difference(s, lo, lo + width)
    assert d.materialize(lo, lo + width) == oracle.points
    assert d.accumulation == oracle.accumulation == difference_marker(s)


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=12),
    st.lists(mixed, min_size=1, max_size=6),
)
def test_integer_periodic_difference_matches_fraction_residues(period, residues):
    s = PeriodicPoints(period, tuple(residues))
    oracle = {(a - b) % period for a in s.residues for b in s.residues}
    assert difference_set(s, R) == PeriodicPoints(period, tuple(oracle))
    assert min_positive_difference(s) == min([d for d in oracle if d > 0] + [period])


# ---------------------------------------------------------------------------
# translates of point masses and of patterns, difference sets of patterns,
# Haar measure of cylinders and null patterns


small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(small, st.lists(st.tuples(small, st.fractions(min_value=Fraction(1, 4), max_value=3,
                                                    max_denominator=4)), max_size=4),
       small, st.fractions(min_value=0, max_value=4, max_denominator=4))
def test_translated_point_masses_carry_their_mass(q, atoms, lo, width):
    """nu(W) = (nu + q)(W + q) for a Dirac mass at 0, weighted Diracs and
    their sum, with the sum of the parts' masses as the sum's."""
    window = IntervalUnion.closed(lo, lo + width)
    dirac, weighted = DiracAtZero(), WeightedDiracs(tuple(atoms))
    total = Fraction(0)
    for nu in (dirac, weighted):
        moved = translate_measure(nu, q, R)
        assert real_mass(moved, window.translate(q)) == real_mass(nu, window)
        total += real_mass(moved, window.translate(q))
    assert translate_measure(dirac, q, R) == WeightedDiracs(((q, 1),))
    both = translate_measure(MeasureSum((dirac, weighted)), q, R)
    assert real_mass(both, window.translate(q)) == total
    assert total == (lo <= 0 <= lo + width) + sum(w for p, w in atoms if lo <= p <= lo + width)


def _in_pattern(x, pairs, p) -> bool:
    """Whether x + kp lies in a pair for some integer k."""
    return any(ceil((a - x) / p) <= (b - x) // p for a, b in pairs)


patterns = st.builds(
    lambda p, pieces: PeriodicPattern.from_pairs(p, [(a, a + w) for a, w in pieces]),
    st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=2),
    st.lists(st.tuples(small, st.fractions(min_value=0, max_value=2, max_denominator=4)),
             min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(patterns, small)
def test_pattern_translates_and_difference_sets_by_membership(A, q):
    """On a grid finer than every endpoint: x is in A + q iff x - q is in A,
    and in A - A iff x lies in [a - d, b - c] mod p for pieces (a, b), (c, d)."""
    moved = translate_set(A, q, R)
    diff = difference_set(A, R)
    pieces, p = A.pattern.intervals, A.period
    spans = [(a - d, b - c) for a, b in pieces for c, d in pieces]
    assert moved.period == diff.period == p
    for k in range(-16 * 4, 16 * 4 + 1):
        x = Fraction(k, 16)
        assert _in_pattern(x, moved.pattern.intervals, p) == _in_pattern(x - q, pieces, p)
        assert _in_pattern(x, diff.pattern.intervals, p) == _in_pattern(x, spans, p)


def test_haar_of_cylinders_and_null_patterns():
    """A nonempty cylinder meets H_n in #residues * m_{depth+1} ... m_n
    points, unbounded along the chain: Infinite, certified by its depth and
    residue count; an empty one is null. A pattern of points has length 0."""
    chain = SigmaFiniteChain((2, 3, 2))
    A = CylinderSet(1, ((1,),))
    counts = [A.count_in_subgroup(chain, n) for n in (1, 2, 3)]
    assert counts == [1, 3, 6]
    assert haar(A, chain).certificate == ("cylinder", 1, 1)
    assert haar(CylinderSet(1, ()), chain) == 0
    points = PeriodicPattern.from_pairs(2, [(0, 0), (1, 1)])
    assert points.materialize(-10, 10).length == 0 == haar(points, R)


def test_a_chain_sum_refuses_a_bool_coordinate():
    chain = SigmaFiniteChain((2, 3))
    one, other = ExplicitFinite(((1,),)), ExplicitFinite(((0, 1),))
    assert minkowski_sum(one, other, chain) == ExplicitFinite(((1, 1),))
    with pytest.raises(ShapeMismatchError, match="outside the moduli"):
        minkowski_sum(ExplicitFinite(((True,),)), other, chain)
