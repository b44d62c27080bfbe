import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from density_lab import IntervalUnion, PeriodicPattern, PreconditionError

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


def test_complement_and_covering():
    u = IntervalUnion(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))))
    gaps = u.complement_within(0, 3)
    assert gaps.intervals == ((Fraction(1), Fraction(2)),)
    assert not u.covers(0, 3)
    assert u.union(IntervalUnion.closed(1, 2)).covers(0, 3)


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
    assert p.pattern.covers(0, p.period)


def test_pattern_mass_on_matches_materialized_oracle():
    p = PeriodicPattern.from_pairs(Fraction(3, 2), [(0, Fraction(1, 2)), (1, Fraction(5, 4))])
    for _ in range(200):
        a = Fraction(rng.randrange(-40, 40), rng.randrange(1, 8))
        b = a + Fraction(rng.randrange(0, 40), rng.randrange(1, 8))
        assert p.mass_on(a, b) == p.materialize(a, b).length


def test_pattern_contains_mod_seam():
    p = PeriodicPattern.from_pairs(1, [(Fraction(1, 2), Fraction(1))])
    assert p.contains_mod(0)  # 1 is identified with 0
    assert p.contains_mod(Fraction(3, 4))
    assert not p.contains_mod(Fraction(1, 4))


def test_pattern_difference_set():
    p = PeriodicPattern.from_pairs(2, [(0, Fraction(1, 2))])
    d = p.difference_set()
    assert d.contains_mod(0) and d.contains_mod(Fraction(1, 2)) and d.contains_mod(Fraction(-1, 2))
    assert not d.contains_mod(1)


def test_covers_circle():
    assert PeriodicPattern.from_pairs(1, [(0, 1)]).covers_circle()
    assert PeriodicPattern.from_pairs(
        1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)]
    ).covers_circle()
    assert not PeriodicPattern.from_pairs(1, [(0, Fraction(9, 10))]).covers_circle()


def test_expand_to():
    p = PeriodicPattern.from_pairs(1, [(0, Fraction(1, 3))])
    q = p.expand_to(3)
    assert q.mass == 1 and q.density == p.density
    with pytest.raises(PreconditionError):
        p.expand_to(Fraction(3, 2))
