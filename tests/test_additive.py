import itertools
import random
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    CapExceededError,
    ExplicitFinite,
    FiniteAbelian,
    IntervalUnion,
    PeriodicDiscrete,
    PeriodicPattern,
    PeriodicPoints,
    PreconditionError,
    RealLine,
    SyndeticCertificate,
    ZLattice,
    difference_set,
    gap_analysis,
    greedy_translates,
    minimal_translates,
    syndetic_check,
)
from density_lab.additive import _least_cover
from density_lab.config import DEFAULT_CAPS
from oracles import combinations_least_cover, cover_instance

rng = random.Random(99)
Z = ZLattice(1)
R = RealLine()


def brute_gaps(residues, period, upto):
    pts = sorted(
        r + k * period for k in range(0, upto // period + 2) for r in residues if r + k * period > 0
    )
    return [b - a for a, b in zip(pts, pts[1:])]


def test_gap_examples():
    g = gap_analysis(PeriodicDiscrete.line(2, [0]), Z)
    assert g.max_gap == 2 and g.bounded and g.period == 2
    d3 = difference_set(PeriodicDiscrete.line(3, [0]), Z)
    assert gap_analysis(d3, Z).max_gap == 3
    a = PeriodicDiscrete.line(5, [0, 1])
    d = difference_set(a, Z)
    rep = gap_analysis(d, Z)
    assert rep.positive_elements[:5] == (1, 4, 5, 6, 9)
    assert rep.max_gap == 3


def test_gap_periodic_matches_long_scan_oracle():
    for _ in range(200):
        m = rng.randrange(2, 20)
        residues = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        rep = gap_analysis(PeriodicDiscrete.line(m, residues), Z)
        oracle = brute_gaps(residues, m, 6 * m)
        assert rep.max_gap == max(oracle)


def test_gap_max_at_most_period():
    for _ in range(200):
        m = rng.randrange(2, 25)
        s = PeriodicDiscrete.line(m, sorted(rng.sample(range(m), rng.randrange(1, m + 1))))
        d = difference_set(s, Z)
        assert gap_analysis(d, Z).max_gap <= m


def test_gap_empty_positive_part():
    with pytest.raises(PreconditionError):
        gap_analysis(ExplicitFinite(((-3,), (0,))), Z)


@pytest.mark.parametrize("group", [FiniteAbelian((6,)), ZLattice(2), RealLine()])
def test_gap_analysis_refuses_every_group_but_z(group):
    # the gaps are those of the integers, whatever group is passed
    with pytest.raises(PreconditionError, match="gap analysis runs on Z"):
        gap_analysis(ExplicitFinite(((2,), (5,))), group)


def test_syndetic_examples():
    s = PeriodicDiscrete.line(3, [0])
    ok = syndetic_check(s, ExplicitFinite(((0,), (1,), (2,))), Z)
    assert ok.verified
    bad = syndetic_check(s, ExplicitFinite(((0,), (1,))), Z)
    assert not bad.verified and bad.covering_witness == (2,)
    pattern = PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])
    cert = syndetic_check(pattern, IntervalUnion.closed(0, Fraction(1, 2)), R)
    assert cert.verified


def test_syndetic_points_plus_interval():
    s = PeriodicPoints(1, (0,))
    cert = syndetic_check(s, IntervalUnion.closed(0, 1), R)
    assert cert.verified
    small = syndetic_check(s, IntervalUnion.closed(0, Fraction(1, 3)), R)
    assert not small.verified
    # the gap (1/4, 1) of S + K is cut by the point 5/8, its midpoint: the
    # witness is the midpoint of the first piece, an uncovered point
    dotted = syndetic_check(s, IntervalUnion(((0, Fraction(1, 4)), (Fraction(5, 8),) * 2)), R)
    assert not dotted.verified and dotted.covering_witness == Fraction(7, 16)


def test_syndetic_monotone_in_K():
    for _ in range(100):
        m = rng.randrange(2, 12)
        s = PeriodicDiscrete.line(m, sorted(rng.sample(range(m), rng.randrange(1, m + 1))))
        k1 = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        cert1 = syndetic_check(s, ExplicitFinite(tuple((k,) for k in k1)), Z)
        if cert1.verified:
            k2 = sorted(set(k1) | set(rng.sample(range(m), rng.randrange(0, m)))) or k1
            cert2 = syndetic_check(s, ExplicitFinite(tuple((k,) for k in k2)), Z)
            assert cert2.verified


def test_minimal_translates_examples():
    mt = minimal_translates(PeriodicDiscrete.line(3, [0]), Z)
    assert mt.translates == ((0,), (1,), (2,)) and mt.size == 3 and mt.exact
    g4 = FiniteAbelian((4,))
    full = minimal_translates(ExplicitFinite(tuple((i,) for i in range(4))), g4)
    assert full.size == 1 and full.translates == ((0,),)
    single = minimal_translates(ExplicitFinite(((0,),)), g4)
    assert single.size == 4


def test_minimal_translates_brute_oracle():
    for _ in range(40):
        m = rng.randrange(2, 9)
        res = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        s = PeriodicDiscrete.line(m, res)
        mt = minimal_translates(s, Z)
        # oracle: smallest subset of Z_m whose translates of res cover Z_m
        best = None
        for size in range(1, m + 1):
            for combo in itertools.combinations(range(m), size):
                covered = {(r + k) % m for r in res for k in combo}
                if len(covered) == m:
                    best = size
                    break
            if best:
                break
        assert mt.size == best


def test_minimal_translates_at_most_any_certificate():
    for _ in range(30):
        m = rng.randrange(2, 10)
        res = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        s = PeriodicDiscrete.line(m, res)
        mt = minimal_translates(s, Z)
        k = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        cert = syndetic_check(s, ExplicitFinite(tuple((x,) for x in k)), Z)
        if cert.verified:
            assert mt.size <= len(k)


def test_minimal_translates_vs_greedy_bound():
    # the exact minimum never exceeds floor(1/density) when the input is a
    # difference set with positive density
    for _ in range(40):
        m = rng.randrange(2, 12)
        res = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        a = PeriodicDiscrete.line(m, res)
        d = difference_set(a, Z)
        mt = minimal_translates(d, Z)
        cover = greedy_translates(a, Z)
        assert mt.size <= cover.size_bound
        assert mt.size <= cover.size


@st.composite
def cover_instances(draw):
    """(S, group): a periodic subset of Z of period m <= Caps.exact_cover_cells,
    or a subset of a finite group of at most that order; past 12 cells at
    least half of them, so that the combinations oracle stays fast."""
    if draw(st.booleans()):
        moduli = (draw(st.integers(1, DEFAULT_CAPS.exact_cover_cells)),)
    else:
        moduli = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3).filter(
            lambda ms: prod(ms) <= DEFAULT_CAPS.exact_cover_cells)))
    cells = FiniteAbelian(moduli).elements()
    n = len(cells)
    subset = draw(st.lists(st.sampled_from(cells), min_size=n // 2 if n > 12 else 1,
                           max_size=n, unique=True))
    if len(moduli) == 1 and draw(st.booleans()):
        return PeriodicDiscrete(moduli, tuple(subset)), Z
    return ExplicitFinite(tuple(subset)), FiniteAbelian(moduli)


@settings(max_examples=80, deadline=None)
@given(cover_instances())
@example((PeriodicDiscrete.line(20, [0, 1, 5, 6, 7, 13, 14, 15, 18, 19]), Z))
@example((ExplicitFinite(((0, 0), (1, 2), (3, 1))), FiniteAbelian((4, 5))))
def test_branch_and_bound_cover_matches_the_combinations_loop(drawn):
    S, group = drawn
    cells, covers, lift = cover_instance(S, group)
    combo = combinations_least_cover(covers, len(cells))
    mt = minimal_translates(S, group)
    assert mt.exact and mt.size == len(combo)
    assert mt.translates == tuple(lift(cells[i]) for i in combo)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
def test_least_cover_matches_the_combinations_loop_on_any_masks(drawn):
    """n masks over n cells, not only those of translates: a cell may lie in
    none, or a mask be empty."""
    n, covers = drawn
    assert _least_cover(covers, n) == combinations_least_cover(covers, n)


def test_minimal_translates_empty_rejected():
    with pytest.raises(PreconditionError):
        minimal_translates(PeriodicDiscrete.line(4, []), Z)


def test_minimal_translates_greedy_fallback_above_cap():
    s = PeriodicDiscrete.line(30, [0])
    cover = minimal_translates(s, Z)
    assert not cover.exact and cover.verified
    assert cover.size >= 30  # singleton translates must visit every cell
    exact = minimal_translates(PeriodicDiscrete.line(6, [0, 1]), Z)
    assert exact.exact


# ---------------------------------------------------------------------------
# the indexed syndetic scan against the per-cell loops it replaced


def per_cell_syndetic(S, K, group):
    """The per-cell tuple loops of syndetic_check before the quotient index,
    kept verbatim as the oracle."""
    if isinstance(group, FiniteAbelian):
        sset = set(S.elements)
        witness = {}
        for g in group.elements():
            hit = next((k for k in K.elements if group.add(g, group.negate(k)) in sset), None)
            if hit is None:
                return SyndeticCertificate(K, False, g)
            witness[g] = hit
        return SyndeticCertificate(K, True, witness)
    box = S.period
    witness = {}
    for g in itertools.product(*(range(m) for m in box)):
        hit = None
        for k in K.elements:
            shifted = tuple((c - kc) % m for c, kc, m in zip(g, k, box))
            if shifted in set(S.residues):
                hit = k
                break
        if hit is None:
            return SyndeticCertificate(K, False, g)
        witness[g] = hit
    return SyndeticCertificate(K, True, witness)


@st.composite
def syndetic_instances(draw):
    """(S, K, group): subsets of a finite group with moduli from 1, or a
    periodic subset of Z^d (period axes from 1) with translates that are
    negative or outside the period box."""
    if draw(st.booleans()):
        G = FiniteAbelian(tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
        elements = st.sampled_from(G.elements())
        S = ExplicitFinite(tuple(draw(st.lists(elements, max_size=8))))
        return S, ExplicitFinite(tuple(draw(st.lists(elements, max_size=5)))), G
    d = draw(st.integers(1, 3))
    period = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    point = st.tuples(*[st.integers(-12, 12)] * d)
    S = PeriodicDiscrete(period, tuple(draw(st.lists(point, max_size=8))))
    return S, ExplicitFinite(tuple(draw(st.lists(point, max_size=5)))), ZLattice(d)


@settings(max_examples=40, deadline=None)
@given(syndetic_instances())
def test_indexed_syndetic_check_matches_per_cell_loops(drawn):
    S, K, group = drawn
    cert = syndetic_check(S, K, group)
    expect = per_cell_syndetic(S, K, group)
    assert cert.verified == expect.verified
    assert cert.covering_witness == expect.covering_witness
    assert cert.translate_set == K


def test_syndetic_check_caps_the_quotient_before_building_it():
    S = PeriodicDiscrete((1100, 1100), ((0, 0),))  # 1.21e6 cells > 2^20
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            syndetic_check(S, ExplicitFinite(((0, 0),)), ZLattice(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
