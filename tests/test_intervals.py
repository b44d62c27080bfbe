import random
import tracemalloc
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import example, given, strategies as st

from density_lab import CapExceededError, IntervalUnion, PeriodicPattern, PreconditionError
from density_lab.intervals import contains_mod, gaps_within, merge_pairs, onto_circle

rng = random.Random(7)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def interval_unions(draw, max_pieces=5):
    pieces = []
    for _ in range(draw(st.integers(0, max_pieces))):
        a = draw(rationals)
        b = a + abs(draw(rationals))
        pieces.append((a, b))
    return IntervalUnion(tuple(pieces))


def test_canonical_merges_touching():
    u = IntervalUnion(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))))
    assert u.intervals == ((Fraction(0), Fraction(2)),)


def test_degenerate_points_kept():
    u = IntervalUnion(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
    assert u.length == 0 and len(u.intervals) == 2


def test_negative_length_rejected():
    with pytest.raises(PreconditionError):
        IntervalUnion(((Fraction(1), Fraction(0)),))


@given(interval_unions())
def test_canonicalization_idempotent(u):
    assert IntervalUnion(u.intervals).intervals == u.intervals


def test_minkowski_examples():
    one = IntervalUnion.closed(0, 1)
    assert one.minkowski(one).intervals == ((Fraction(0), Fraction(2)),)
    sym = IntervalUnion.closed(-1, 1)
    assert sym.minkowski(IntervalUnion.point(0)) == sym


@given(interval_unions(3), interval_unions(3), interval_unions(3))
def test_minkowski_commutative_associative(a, b, c):
    assert a.minkowski(b) == b.minkowski(a)
    assert a.minkowski(b).minkowski(c) == a.minkowski(b.minkowski(c))


def test_minkowski_commutative_associative_seeded_suite():
    def random_union():
        pieces = []
        for _ in range(rng.randrange(0, 3)):
            lo = Fraction(rng.randrange(-16, 16), rng.randrange(1, 4))
            pieces.append((lo, lo + Fraction(rng.randrange(0, 10), rng.randrange(1, 4))))
        return IntervalUnion(tuple(pieces))

    for _ in range(1000):
        a, b, c = random_union(), random_union(), random_union()
        assert a.minkowski(b) == b.minkowski(a)
        assert a.minkowski(b).minkowski(c) == a.minkowski(b.minkowski(c))


@given(interval_unions(3), interval_unions(3))
def test_minkowski_length_dominates(a, b):
    if not a.is_empty and not b.is_empty:
        assert a.minkowski(b).length >= max(a.length, b.length)


@given(interval_unions(3))
def test_difference_set_is_the_minkowski_sum_with_the_negation(u):
    """Also for one interval, whose [-L, L] skips the Minkowski sum."""
    assert u.difference_set() == u.minkowski(u.negate())


def test_complement_and_covering():
    u = IntervalUnion(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))))
    gaps = u.complement_within(0, 3)
    assert gaps.intervals == ((Fraction(1), Fraction(2)),)
    assert not u.complement_within(0, 3).is_empty
    assert u.union(IntervalUnion.closed(1, 2)).complement_within(0, 3).is_empty


def test_intersect_length_oracle():
    # independent oracle: clip piece by piece with plain min/max
    for _ in range(300):
        pieces = []
        for _ in range(rng.randrange(0, 4)):
            lo = Fraction(rng.randrange(-10, 10), rng.randrange(1, 4))
            pieces.append((lo, lo + Fraction(rng.randrange(0, 8), rng.randrange(1, 4))))
        a = IntervalUnion(tuple(pieces))
        lo, hi = sorted(Fraction(rng.randrange(-12, 12)) for _ in range(2))
        expected = Fraction(0)
        for x, y in a.intervals:
            expected += max(Fraction(0), min(y, hi) - max(x, lo))
        assert a.intersect(IntervalUnion.closed(lo, hi)).length == expected


def test_pattern_reduction_wraps():
    p = PeriodicPattern.from_pairs(1, [(Fraction(3, 4), Fraction(5, 4))])
    assert p.pattern.intervals == (
        (Fraction(0), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(1)),
    )
    assert p.mass == Fraction(1, 2)


def test_pattern_full_when_piece_spans_period():
    p = PeriodicPattern.from_pairs(1, [(Fraction(-1, 3), Fraction(4, 3))])
    assert p.pattern.complement_within(0, p.period).is_empty


def test_pattern_mass_on_matches_materialized_oracle():
    p = PeriodicPattern.from_pairs(Fraction(3, 2), [(0, Fraction(1, 2)), (1, Fraction(5, 4))])
    for _ in range(200):
        a = Fraction(rng.randrange(-40, 40), rng.randrange(1, 8))
        b = a + Fraction(rng.randrange(0, 40), rng.randrange(1, 8))
        assert p.mass_on(a, b) == p.materialize(a, b).length


def test_pattern_contains_mod_seam():
    p = PeriodicPattern.from_pairs(1, [(Fraction(1, 2), Fraction(1))])
    assert contains_mod(p.pattern.intervals, 0, p.period)  # 1 is identified with 0
    assert contains_mod(p.pattern.intervals, Fraction(3, 4), p.period)
    assert not contains_mod(p.pattern.intervals, Fraction(1, 4), p.period)


def test_pattern_difference_set():
    p = PeriodicPattern.from_pairs(2, [(0, Fraction(1, 2))])
    d = p.difference_set()
    assert all(contains_mod(d.pattern.intervals, q, d.period) for q in (0, Fraction(1, 2), Fraction(-1, 2)))
    assert not contains_mod(d.pattern.intervals, 1, d.period)


int_pairs = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(0, 14)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=5,
)


def _in(x, pairs) -> bool:
    return any(a <= x <= b for a, b in pairs)


def _in_mod(x, pairs, p) -> bool:
    """Whether x + kp lies in a pair for some integer k."""
    return any(ceil((a - x) / p) <= floor((b - x) / p) for a, b in pairs)


@given(int_pairs, st.integers(1, 12), st.integers(-24, 24), st.integers(0, 30), st.integers(1, 6))
@example(pairs=[(1, 2)], p=2, lo=0, width=4, E=3)  # ends on the seam, then a last gap
@example(pairs=[(0, 1), (1, 3), (-7, -5)], p=5, lo=-2, width=4, E=2)  # touches, crosses
def test_canonical_forms_match_point_membership_on_ints_and_fractions(pairs, p, lo, width, E):
    """merge_pairs, onto_circle, gaps_within and contains_mod against point
    membership on the half-integer grid, which is finer than every endpoint
    (all are ints); then the same calls on the pairs over E, scaled by E."""
    hi = lo + width
    grid = [Fraction(k, 2) for k in range(2 * min(lo, -p) - 2, 2 * max(hi, p) + 3)]
    merged = merge_pairs(pairs)
    assert all(a <= b for a, b in merged)
    assert all(b < c for (_, b), (c, _) in zip(merged, merged[1:]))  # touching pairs merge
    assert all(_in(x, merged) == _in(x, pairs) for x in grid)

    # a multiple of p in a pair (a, b) lands on 0 when the pair starts there or
    # goes on past it, and on p when the pair reaches it from below
    circle = onto_circle(pairs, p)
    assert all(0 <= a <= b <= p for a, b in circle)
    assert _in(0, circle) == any(a % p == 0 or -(-a // p) * p < b for a, b in pairs)
    assert _in(p, circle) == any(b // p * p > a for a, b in pairs)
    assert all(_in(x, circle) == _in_mod(x, pairs, p) for x in grid if 0 < x < p)
    wrapped = merge_pairs(circle)
    assert all(contains_mod(wrapped, q, p) == _in_mod(q, pairs, p) for q in grid)

    # the closure of [lo, hi] minus the pairs, pieces of positive length only:
    # the half-integers are never endpoints, so one lies in a gap iff it is
    # inside (lo, hi) and off the pairs, and an integer iff a neighboring
    # half-integer does
    gaps = list(gaps_within(merged, lo, hi))
    assert all(lo <= a < b <= hi for a, b in gaps)
    assert all(b <= c for (_, b), (c, _) in zip(gaps, gaps[1:]))

    def off(y):
        return lo < y < hi and not _in(y, merged)

    half = Fraction(1, 2)
    for x in grid:
        assert _in(x, gaps) == (off(x) if x.denominator == 2 else off(x - half) or off(x + half))

    def over_E(xs):
        return [(Fraction(a, E), Fraction(b, E)) for a, b in xs]

    def times_E(xs):
        return [(a * E, b * E) for a, b in xs]

    P = Fraction(p, E)
    assert times_E(merge_pairs(over_E(pairs))) == merged
    assert times_E(onto_circle(over_E(pairs), P)) == circle
    assert times_E(gaps_within(merge_pairs(over_E(pairs)), Fraction(lo, E), Fraction(hi, E))) == gaps
    assert all(contains_mod(over_E(wrapped), Fraction(q, E), P) == contains_mod(wrapped, q, p)
               for q in range(-3 * p, 3 * p + 1))


def test_covers_circle():
    """A pattern covers the line iff its reduced pattern leaves no gap in [0, p]."""
    def covers(p):
        return p.pattern.complement_within(0, p.period).is_empty

    assert covers(PeriodicPattern.from_pairs(1, [(0, 1)]))
    assert covers(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)]))
    assert not covers(PeriodicPattern.from_pairs(1, [(0, Fraction(9, 10))]))


def test_expand_to():
    p = PeriodicPattern.from_pairs(1, [(0, Fraction(1, 3))])
    q = p.expand_to(3)
    assert q.mass == 1 and q.density == p.density
    with pytest.raises(PreconditionError):
        p.expand_to(Fraction(3, 2))


def test_expand_to_counts_its_pieces_before_building_them():
    pattern = PeriodicPattern(1, IntervalUnion(((0, Fraction(1, 4)), (Fraction(1, 2), 1))))
    assert pattern.expand_to(3).pattern.intervals[-1] == (Fraction(5, 2), 3)
    tracemalloc.start()
    try:  # 2 pieces times 2^20 periods
        with pytest.raises(CapExceededError, match="the expanded pattern: 2097152 pieces exceed"):
            pattern.expand_to(1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
