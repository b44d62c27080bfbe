"""The discrete kernels on held int tuples: the per-axis translate tables
and the translates of a mask against the index arithmetic they replaced,
the per-object check (check_points) against check point by point, directly
and through every caller, the finite S - S and sums against group.add per
pair, and the caps of the discrete difference sets, Minkowski sums and
translates."""

import random
import time
import tracemalloc
import warnings
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    CapExceededError,
    Counting,
    ExplicitFinite,
    FiniteAbelian,
    IntervalUnion,
    MeasureSum,
    PeriodicDiscrete,
    PeriodicPoints,
    PreconditionError,
    RealLine,
    ShapeMismatchError,
    SigmaFiniteChain,
    WeightedDiracs,
    ZLattice,
    classical_upper_density,
    delta_density,
    difference_set,
    gap_analysis,
    greedy_translates,
    haar,
    kahane_density,
    kahane_density_finite_group,
    kahane_oracle_finite,
    minimal_translates,
    minkowski_sum,
    packing_bound_check,
    rudin_window,
    syndetic_check,
    to_jsonable,
    translate_set,
)
from density_lab import config
from density_lab.groups import all_finite_abelian_up_to, bits, mask_of
from density_lab.sets import _int_shape, discrete_quotient
from density_lab.windows import measure_layers
from oracles import (
    pairwise_difference_set,
    pairwise_minkowski_sum,
    per_element_layers,
    per_element_quotient,
    per_type_difference_set,
    per_type_minkowski_sum,
    per_type_translate_set,
    syndetic_check_finite,
    translate_at,
)


def outcome(f):
    """("ok", f()) or (the exception's type, its message)."""
    try:
        return "ok", f()
    except Exception as exc:  # the parity tests compare whatever is raised
        return type(exc), str(exc)


def test_translate_tables_match_the_index_arithmetic_on_every_small_presentation():
    for G in all_finite_abelian_up_to(12):
        elements = G.elements()
        at = list(range(G.order))[::-1][::2]
        for k in elements + [tuple(-3 * c - 1 for c in G.zero())]:
            want = [G.index(tuple((a + c) % m for a, c, m in zip(e, k, G.moduli)))
                    for e in elements]
            assert G.translate(k) == want == translate_at(G, k, range(G.order))
            assert G._translate_at(k, at) == translate_at(G, k, at)


def test_the_translates_of_a_mask_are_its_shifts_by_every_element_in_order():
    # FiniteAbelian.translates(X) against the masks of X + g built point by
    # point from the index arithmetic, g in elements() order
    rng = random.Random(12)
    for G in all_finite_abelian_up_to(12):
        for X in [0, 1, (1 << G.order) - 1] + [rng.randrange(1 << G.order) for _ in range(6)]:
            want = [mask_of(translate_at(G, g, bits(X))) for g in G.elements()]
            assert G.translates(X) == want, (G, X)


moduli = st.lists(st.integers(1, 40), max_size=4).filter(lambda ms: prod(ms) <= 2000)


@settings(max_examples=40, deadline=None)
@given(moduli, st.randoms(use_true_random=False))
def test_translate_tables_match_the_index_arithmetic_on_random_moduli(ms, rng):
    G = FiniteAbelian(tuple(ms))
    k = tuple(rng.randint(-100, 100) for _ in ms)
    assert G.translate(k) == translate_at(G, k, range(G.order))
    at = [rng.randrange(G.order) for _ in range(rng.randint(0, 50))]
    assert G._translate_at(k, at) == translate_at(G, k, at)


def test_the_translate_table_of_a_200_by_200_torus():
    G = FiniteAbelian((200, 200))
    assert G.translate((37, -5)) == translate_at(G, (37, -5), range(G.order))


def test_constructors_record_the_shape_of_exact_int_tuples_only():
    assert ExplicitFinite(((1, 2), (3, 4)))._shape == 2
    assert ExplicitFinite(((),))._shape == 0
    for points in ((1, 2), ((True, 0),), ((Fraction(1), 0),), ((1,), (1, 2)), ()):
        assert ExplicitFinite(points)._shape is None
    assert PeriodicDiscrete((3,), ((True,), (4,)))._shape == 1  # reduced to ints
    assert PeriodicDiscrete((3,), ((Fraction(1, 2),),))._shape is None
    assert WeightedDiracs((((0, 1), 1), ((2, 3), 2)))._shape == 2
    assert WeightedDiracs(((Fraction(1, 2), 1),))._shape is None
    # the record is no field: equality, hashing, repr and the report form ignore it
    a, b = ExplicitFinite(((1, 0),)), ExplicitFinite(((True, 0),))
    assert a == b and hash(a) == hash(b) and a._shape != b._shape
    assert "_shape" not in repr(a) and to_jsonable(a) == {"type": "ExplicitFinite",
                                                          "elements": [[1, 0]]}


coordinates = st.one_of(st.integers(-2, 5), st.booleans(), st.sampled_from(
    (Fraction(1, 2), Fraction(2))))
points = st.one_of(coordinates, st.lists(coordinates, max_size=3),
                   st.lists(coordinates, max_size=3).map(tuple),
                   st.lists(st.integers(-1, 4), min_size=2, max_size=2).map(tuple))
GROUPS = (ZLattice(1), ZLattice(2), FiniteAbelian((3,)), FiniteAbelian((2, 3)),
          FiniteAbelian(()), RealLine(), SigmaFiniteChain((2, 3)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GROUPS), st.lists(points, max_size=5))
def test_check_points_is_check_point_by_point(group, ps):
    got = outcome(lambda: list(group.check_points(ps, _int_shape(ps))))
    assert got == outcome(lambda: [group.check(p) for p in ps])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GROUPS + (ZLattice(3), FiniteAbelian((4, 2, 3)))),
       st.lists(points, max_size=5), st.lists(points, max_size=4))
@example(ZLattice(2), [(0, 0), (1, 2, 3)], [(True, 0)])  # b's point is refused first
@example(FiniteAbelian((2, 3)), [(0, 0), (0, 5)], [(1,)])
@example(FiniteAbelian((2, 3)), [(0, 7), (0, 5)], [(1,)])  # a's first point before b's
def test_finite_differences_and_sums_check_as_the_per_pair_path(group, ps, qs):
    # each operand checked once, then int tuples per pair: the same sets, or
    # the same exception type and message, as group.add per pair (and point)
    made = outcome(lambda: (ExplicitFinite(ps), ExplicitFinite(qs)))
    if made[0] != "ok":
        return
    A, B = made[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the S - S of an empty set warns
        assert outcome(lambda: difference_set(A, group)) == outcome(
            lambda: pairwise_difference_set(A, group))
    assert outcome(lambda: minkowski_sum(A, B, group)) == outcome(
        lambda: pairwise_minkowski_sum(A, B, group))
    for g in qs[:1]:  # A + {g} against group.add per point
        assert outcome(lambda: translate_set(A, g, group)) == outcome(
            lambda: per_type_translate_set(A, g, group))


def test_finite_differences_and_sums_of_valid_points_match_the_per_pair_path():
    rng = random.Random(8)
    axes = [(ZLattice(d), [range(-40, 40)] * d) for d in (1, 2, 3)]
    axes += [(G, list(map(range, G.moduli)))
             for G in (FiniteAbelian((7,)), FiniteAbelian((2, 5)), FiniteAbelian((3, 2, 4)))]
    for group, coordinates in axes:
        for _ in range(10):
            A, B = (ExplicitFinite(tuple(tuple(map(rng.choice, coordinates))
                                         for _ in range(rng.randint(1, 30)))) for _ in "AB")
            assert difference_set(A, group) == pairwise_difference_set(A, group)
            assert minkowski_sum(A, B, group) == pairwise_minkowski_sum(A, B, group)
    R, chain = RealLine(), SigmaFiniteChain((2, 3, 2))
    A = ExplicitFinite((Fraction(1, 3), Fraction(-2), Fraction(5, 7)))
    assert difference_set(A, R) == pairwise_difference_set(A, R)
    assert minkowski_sum(A, A, R) == pairwise_minkowski_sum(A, A, R)
    A, B = ExplicitFinite(((1,), (0, 2), (1, 1, 1))), ExplicitFinite(((), (1, 2)))
    assert difference_set(A, chain) == pairwise_difference_set(A, chain)
    assert minkowski_sum(A, B, chain) == pairwise_minkowski_sum(A, B, chain)


Z1, Z2, G23, G5 = ZLattice(1), ZLattice(2), FiniteAbelian((2, 3)), FiniteAbelian((5,))
# (group, points): held or not, each converted or refused as check does it
CASES = [
    (Z1, (3, 1, 2)),  # bare ints on Z
    (Z2, ((0, 1), (2, 3))),
    (Z2, ((True, 0), (2, 3))),
    (Z2, ((Fraction(1, 2), 0),)),
    (Z2, ((0, 0), (1, 2, 3))),  # one point of the wrong dimension
    (Z2, ((1, 2, 3), (4, 5, 6))),  # a held shape of the wrong dimension
    (G23, ((0, 1), (1, 2))),
    (G23, ((0, 0), (1, 5), (1, 3))),  # the first out of range is refused
    (G23, ((-1, 0),)),
    (G23, ((True, 1),)),
    (G23, ((Fraction(1), 1),)),
    (G23, ((1,),)),
    (G5, (4, 1)),
    (G5, ((4,), (5,))),
]
GOOD = {Z1: ((0,),), Z2: ((0, 0),), G23: ((0, 0),), G5: ((0,),)}


def _measures(group, ps):
    weighted = WeightedDiracs(tuple((p, i + 1) for i, p in enumerate(ps)))
    good = Counting(ExplicitFinite(GOOD[group]))
    return [Counting(ExplicitFinite(ps)), weighted, MeasureSum((good, weighted))]


@pytest.mark.parametrize("group, ps", CASES)
def test_every_caller_checks_as_check_did(group, ps):
    for nu in _measures(group, ps):
        assert outcome(lambda: measure_layers(nu, group)) == outcome(
            lambda: per_element_layers(nu, group))
        if isinstance(group, FiniteAbelian):
            want = outcome(lambda: per_element_layers(nu, group))
            got = outcome(lambda: kahane_oracle_finite(nu, group))
            assert got[0] == want[0] and (got[0] == "ok" or got == want)
    if isinstance(group, FiniteAbelian):
        S, good = ExplicitFinite(ps), ExplicitFinite(GOOD[group])
    else:  # residues of one length, which need not be the lattice's
        dims = {len(p) if isinstance(p, tuple) else None for p in ps}
        S = PeriodicDiscrete((3,) * dims.pop(), ps) if len(dims) == 1 and None not in dims else None
        good = PeriodicDiscrete((3,) * group.dimension, GOOD[group])
    K, goodK = ExplicitFinite(ps), ExplicitFinite(GOOD[group])
    for s, k in ((S, goodK), (good, K)):
        if s is None:  # bare ints or mixed lengths make no residues
            continue
        got = outcome(lambda: discrete_quotient(s, group)[:2])
        assert got == outcome(lambda: per_element_quotient(s, group)[:2])

        def oracle():
            per_element_quotient(s, group)
            [group.check(x) for x in k.elements]
            return syndetic_check_finite(s, k, group)

        assert outcome(lambda: syndetic_check(s, k, group)) == outcome(oracle)


class _NoPairs(ZLattice):
    """Z whose add and checks fail: a refusal under it came before any point
    was checked or any pair was built."""

    def add(self, g, h):
        raise AssertionError("a pair was built before the cap")

    def check(self, g):
        raise AssertionError("a point was checked before the cap")

    def check_points(self, points, shape):
        raise AssertionError("the points were checked before the cap")


def test_the_finite_difference_set_counts_its_pairs_before_it_builds_them():
    S = ExplicitFinite(tuple((i,) for i in range(1025)))  # 1025^2 pairs > 2^20
    with pytest.raises(CapExceededError, match="finite difference set: 1050625 pairs"):
        difference_set(S, _NoPairs(1))


def test_the_lattice_difference_set_counts_its_pairs_before_it_builds_them():
    S = PeriodicDiscrete.line(8000, range(4000))  # 1.6 * 10^7 residue pairs
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="lattice difference set"):
        difference_set(S, Z1)
    assert time.perf_counter() - start < 1


def test_the_finite_minkowski_sum_counts_its_pairs_before_it_builds_them():
    A = ExplicitFinite(tuple((i,) for i in range(1100)))
    B = ExplicitFinite(tuple((i,) for i in range(1000)))
    with pytest.raises(CapExceededError, match="finite Minkowski sum: 1100000 pairs"):
        minkowski_sum(A, B, _NoPairs(1))


def test_the_lattice_minkowski_sum_counts_before_it_expands():
    # no residue is checked, and next to nothing allocated, before the cap:
    # the lcm lift alone would be 1031 * 1033 residues
    a, b = PeriodicDiscrete.line(1031, [0]), PeriodicDiscrete.line(1033, [0])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="lattice Minkowski sum over the lcm period"):
            minkowski_sum(a, b, _NoPairs(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_the_lattice_plus_finite_minkowski_sum_counts_its_pairs_first():
    a = PeriodicDiscrete.line(4000, range(4000))
    b = ExplicitFinite(tuple((i,) for i in range(1000)))  # 4 * 10^6 pairs
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="lattice-plus-finite Minkowski sum"):
        minkowski_sum(a, b, Z1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("P, Q", [(1031, 1033), ((1 << 31) - 1, 1 << 31)])
def test_an_empty_lattice_sum_is_not_lifted_to_the_lcm_period(P, Q):
    # no pair means nothing to lift: the lcm lift alone would be P * Q steps
    tracemalloc.start()
    try:
        got = [minkowski_sum(PeriodicDiscrete.line(P, []), PeriodicDiscrete.line(Q, [0]), Z1),
               minkowski_sum(PeriodicDiscrete.line(P, [0]), PeriodicDiscrete.line(Q, []), Z1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [PeriodicDiscrete.line(P * Q, [])] * 2
    assert peak < 64 * 1024


def test_a_period_off_the_lattice_is_refused_before_the_cap():
    # the 2-d period would be cut to its first axis, giving 8 * 10^6 pairs
    a = PeriodicDiscrete.line(8000, range(4000))
    with pytest.raises(ShapeMismatchError, match=r"\(4, 6\) is no subset of ZLattice"):
        minkowski_sum(a, PeriodicDiscrete((4, 6), ((1, 2),)), Z1)


def test_the_discrete_translate_is_capped_like_every_other_site(monkeypatch):
    monkeypatch.setattr(config, "DEFAULT_CAPS", config.Caps(enumeration=3))
    S = ExplicitFinite(tuple((i,) for i in range(4)))
    with pytest.raises(CapExceededError, match="discrete translate: 4 pairs"):
        translate_set(S, (1,), _NoPairs(1))


def test_the_capped_sites_still_sum_what_fits():
    rng = random.Random(5)
    xs = tuple((rng.randint(-9, 9),) for _ in range(12))
    assert difference_set(ExplicitFinite(xs), Z1) == ExplicitFinite(
        tuple((a - b,) for (a,) in xs for (b,) in xs))
    a, b = PeriodicDiscrete.line(4, [1]), PeriodicDiscrete.line(6, [0])
    assert minkowski_sum(a, b, Z1) == PeriodicDiscrete.line(12, [1, 3, 5, 7, 9, 11])
    assert minkowski_sum(a, ExplicitFinite(((2,), (3,))), Z1) == PeriodicDiscrete.line(4, [0, 3])


@st.composite
def valid_operands(draw):
    """(group, a, b, g): ExplicitFinite and PeriodicDiscrete operands on Z^1 to
    Z^3, or subsets of a finite group, and a translate g of that group."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        group, coordinate = ZLattice(d), [st.integers(-9, 9)] * d
        period = st.tuples(*[st.integers(1, 4)] * d)
    else:
        moduli = draw(st.lists(st.integers(1, 5), max_size=3))
        group, period = FiniteAbelian(moduli), None
        coordinate = [st.integers(0, m - 1) for m in moduli]
    point = st.tuples(*coordinate)

    def operand():
        if period is not None and draw(st.booleans()):
            return PeriodicDiscrete(draw(period), draw(st.lists(point, max_size=3)))
        return ExplicitFinite(tuple(draw(st.lists(point, max_size=5))))

    return group, operand(), operand(), draw(point)


@settings(max_examples=150, deadline=None)
@given(valid_operands())
@example((ZLattice(1), PeriodicDiscrete.line(4, [1]), PeriodicDiscrete.line(6, [0, 3]), (5,)))
@example((ZLattice(2), PeriodicDiscrete((2, 3), [(0, 1)]), ExplicitFinite(), (0, 0)))
@example((FiniteAbelian(()), ExplicitFinite(((),)), ExplicitFinite(((),)), ()))
def test_the_discrete_kernel_matches_the_per_type_branches(case):
    # one kernel on held (period, int tuples) forms against the per-type
    # branches it replaced: sums in both orders, S - S and S + {g}
    group, a, b, g = case
    for x, y in ((a, b), (b, a)):
        assert minkowski_sum(x, y, group) == per_type_minkowski_sum(x, y, group)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the S - S of an empty set warns
        for s in (a, b):
            assert difference_set(s, group) == per_type_difference_set(s, group)
            assert translate_set(s, g, group) == per_type_translate_set(s, g, group)


PERIOD_OVER_Z = "a PeriodicDiscrete of period"


@pytest.mark.parametrize("run, message", [
    # a point of another dimension was dropped by zip, or summed over a
    # truncated period, or a residue system of the wrong dimension returned
    (lambda: minkowski_sum(PeriodicDiscrete((5,), ((1,),)), ExplicitFinite(((1, 2),)), Z1),
     "element (1, 2) is not an integer 1-tuple"),
    (lambda: minkowski_sum(ExplicitFinite(((1, 2),)), PeriodicDiscrete((5,), ((1,),)), Z1),
     "element (1, 2) is not an integer 1-tuple"),
    (lambda: minkowski_sum(PeriodicDiscrete.line(5, [1]), PeriodicDiscrete((4, 6), ((1, 2),)),
                           Z1), PERIOD_OVER_Z + " (4, 6) is no subset of ZLattice"),
    (lambda: minkowski_sum(PeriodicDiscrete.line(5, [1]), PeriodicDiscrete((4, 6)), Z1),
     PERIOD_OVER_Z + " (4, 6)"),
    (lambda: difference_set(PeriodicDiscrete((5, 3), ((1, 2),)), Z1), PERIOD_OVER_Z + " (5, 3)"),
    (lambda: translate_set(PeriodicDiscrete((5, 3), ((1, 2),)), 1, Z1), PERIOD_OVER_Z),
    (lambda: difference_set(PeriodicDiscrete.line(3, [1]), Z2), PERIOD_OVER_Z + " (3,)"),
    # a PeriodicDiscrete is a subset of Z^d only
    (lambda: minkowski_sum(PeriodicDiscrete.line(4, [1]), PeriodicDiscrete.line(6, [0]),
                           FiniteAbelian((12,))), "is no subset of FiniteAbelian"),
    (lambda: difference_set(PeriodicDiscrete.line(4, [1]), G5), "is no subset of FiniteAbelian"),
    (lambda: translate_set(PeriodicDiscrete.line(5, [1]), (1,), G5), "is no subset of Finite"),
    (lambda: minkowski_sum(PeriodicDiscrete.line(2, [1]), PeriodicDiscrete.line(2, [0]),
                           RealLine()), "is no subset of RealLine"),
], ids=["lattice+pair", "pair+lattice", "lattice+2d-lattice", "lattice+empty-2d-lattice",
        "2d-lattice-diff", "2d-lattice-translate", "1d-lattice-diff-on-Z2",
        "lattice-sum-on-Z12", "lattice-diff-on-Z5", "lattice-translate-on-Z5",
        "lattice-sum-on-R"])
def test_a_lattice_set_off_its_lattice_is_refused(run, message):
    with pytest.raises(ShapeMismatchError) as info:
        run()
    assert message in str(info.value)


@pytest.mark.parametrize("s, group", [
    (PeriodicDiscrete((2, 3)), Z1),  # empty: once a Z_2 x Z_3 quotient, no layers, zero density
    (PeriodicDiscrete((2, 3), ((0, 1),)), Z1),
    (PeriodicDiscrete.line(4, [1]), Z2),
    (PeriodicDiscrete.line(3, [0]), FiniteAbelian((3,))),  # once "not a measure" to the layers
], ids=["empty-2d-on-Z", "2d-on-Z", "1d-on-Z2", "1d-on-Z3"])
def test_one_malformed_lattice_set_gets_one_refusal_from_every_op(s, group):
    """The period refusal from every op, before any warning (the empty set's
    difference set warns only once its period is checked)."""
    K = ExplicitFinite((group.zero(),))  # a valid translate set
    ops = {
        "sum": lambda: minkowski_sum(s, s, group),
        "sum with a finite set": lambda: minkowski_sum(K, s, group),
        "difference set": lambda: difference_set(s, group),
        "translate": lambda: translate_set(s, group.zero(), group),
        "quotient": lambda: discrete_quotient(s, group),
        "syndetic check": lambda: syndetic_check(s, K, group),
        "greedy cover": lambda: greedy_translates(s, group),
        "least cover": lambda: minimal_translates(s, group),
        "layers": lambda: measure_layers(Counting(s), group),
        "kahane density": lambda: kahane_density(Counting(s), group),
        "delta density": lambda: delta_density(Counting(s), group),
        "haar": lambda: haar(s, group),
    }
    if group == Z1:  # these run on Z alone
        ops["classical density"] = lambda: classical_upper_density(s, group)
        ops["gap analysis"] = lambda: gap_analysis(s, group)
    if isinstance(group, FiniteAbelian):  # kahane_density refuses a finite group on its own
        ops["kahane density"] = lambda: kahane_density_finite_group(Counting(s), group)
        ops["oracle"] = lambda: kahane_oracle_finite(Counting(s), group)
    refusal = (ShapeMismatchError, f"{PERIOD_OVER_Z} {s.period!r} is no subset of {group!r}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = {name: outcome(op) for name, op in ops.items()}
    assert outcomes == dict.fromkeys(ops, refusal)
    assert caught == []


# the readers of subsets of Z take their points through check_points, so a
# set of pairs is refused rather than read by its first coordinates
PAIRS = ExplicitFinite(((1, 2), (3, 4)))


def test_the_classical_density_refuses_points_of_another_dimension():
    with pytest.raises(ShapeMismatchError, match="not an integer 1-tuple"):
        classical_upper_density(PAIRS, Z1)
    report = classical_upper_density(ExplicitFinite((3, 1)), Z1)  # bare ints are points of Z
    assert report.annotations[1].startswith("schedule n=10: 1/5")


def test_gap_analysis_refuses_points_of_another_dimension():
    with pytest.raises(ShapeMismatchError, match="not an integer 1-tuple"):
        gap_analysis(PAIRS, Z1)
    assert gap_analysis(ExplicitFinite((7, 3, -1)), Z1).gaps == (4,)


def test_the_rudin_window_on_z_refuses_points_of_another_dimension():
    with pytest.raises(ShapeMismatchError, match="not an integer 1-tuple"):
        rudin_window(PAIRS, Fraction(1, 2), Z1)
    assert rudin_window(ExplicitFinite((1, 3)), Fraction(1, 2), Z1) == rudin_window(
        ExplicitFinite(((1,), (3,))), Fraction(1, 2), Z1)


def test_the_packing_check_on_z_refuses_an_H_of_another_dimension():
    S = PeriodicDiscrete.line(10, [0])
    with pytest.raises(ShapeMismatchError, match="not an integer 1-tuple"):
        packing_bound_check(S, PAIRS, Z1)
    assert packing_bound_check(S, ExplicitFinite(((0,), (3,))), Z1).mu_H == 2
