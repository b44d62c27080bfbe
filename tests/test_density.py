import random
import timeit
import tracemalloc
from functools import cache
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    AccumulationPoint,
    CapExceededError,
    CenteredCube,
    Counting,
    CustomK,
    CylinderSet,
    DiracAtZero,
    EstimationParams,
    ExplicitFinite,
    FiniteAbelian,
    FinitePoints,
    HaarTrace,
    IntervalUnion,
    IntervalWindow,
    MeasureSum,
    NotFound,
    PeriodicDiscrete,
    PeriodicPattern,
    PeriodicPoints,
    PerturbedLattice,
    PreconditionError,
    RealLine,
    RudinWindow,
    ShapeMismatchError,
    SigmaFiniteChain,
    WeightedDiracs,
    ZLattice,
    all_finite_abelian_up_to,
    auud_window,
    classical_upper_density,
    delta_density,
    hegyvari_density,
    is_infinite,
    kahane_density,
    kahane_density_finite_group,
    kahane_oracle_finite,
    real_mass,
    real_shift_sup,
    rudin_window,
    translate_measure,
    translation_witness,
    window_density_profile,
    window_profile_schedule,
    zd_shift_sup,
)
from density_lab.density import (
    _inf_sup,
    _leader_sums,
    measure_total_finite,
    oracle_counting_sweep,
)
from density_lab.windows import (
    ShiftScan,
    _zd_mass_at,
    _zd_scan,
    _zd_values,
    measure_layers,
    real_threshold_witness,
    zd_threshold_witness,
)
from oracles import (
    finite_group_tables,
    fraction_zd_shift_sup,
    running_best_inf_sup,
    subgroup_elements,
)

rng = random.Random(2024)
R = RealLine()
Z = ZLattice(1)


# ---------------------------------------------------------------------------
# classical density


def test_classical_examples():
    assert classical_upper_density(PeriodicDiscrete.line(3, [0]), Z).value == Fraction(1, 3)
    empty = classical_upper_density(PeriodicDiscrete.line(5, []), Z)
    assert empty.value == 0
    finite = classical_upper_density(ExplicitFinite(((3,), (-2,), (40,), (70,))), Z)
    assert finite.value == 0 and finite.method == "closed-form"
    assert finite.annotations[-1] == (
        "schedule n=10: 1/10, n=100: 3/100, n=1000: 3/1000, n=10000: 3/10000"
    )


def test_classical_residue_count_vs_direct_scan():
    a = PeriodicDiscrete.line(10, [0, 1, 4])
    report = classical_upper_density(a, Z)
    assert report.value == Fraction(3, 10)
    # direct A(n)/n oracle at n = 10^4
    n = 10**4
    count = sum(1 for x in range(1, n + 1) if x % 10 in (0, 1, 4))
    assert Fraction(count, n) == Fraction(3, 10)


# ---------------------------------------------------------------------------
# window profiles


@pytest.mark.parametrize(
    "group, K, r",
    [
        (R, IntervalWindow(), 0),
        (R, IntervalWindow(), -1),
        (R, CustomK(IntervalUnion.closed(0, 1)), 0),
        (Z, CenteredCube(), -1),
    ],
    ids=["interval r=0", "interval r=-1", "custom r=0", "cube r=-1"],
)
def test_profile_refuses_a_radius_with_no_positive_window(group, K, r):
    nu = Counting(PeriodicPoints(2, (0,))) if group == R else Counting(PeriodicDiscrete.line(2, [0]))
    with pytest.raises(PreconditionError):
        window_density_profile(nu, group, K, [r])


def test_profile_counting_2z():
    nu = Counting(PeriodicPoints(2, (0,)))
    rows = window_density_profile(nu, R, IntervalWindow(), [10, 100, 1000])
    assert rows[0][1] == Fraction(11, 20)
    assert rows[1][1] == Fraction(101, 200)
    assert rows[2][1] == Fraction(1001, 2000)


def test_profile_pattern_integer_radii_exact_half():
    nu = HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))]))
    rows = window_density_profile(nu, R, CustomK(IntervalUnion.closed(0, 1)), [1, 2, 8])
    for _, ratio, _ in rows:
        assert ratio == Fraction(1, 2)


def test_profile_half_pattern_interval_exact():
    # window [x-r, x+r] spans whole periods at integer r, so every shift sees
    # exactly half mass and the ratio is 1/2 on the nose
    nu = HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))]))
    rows = window_density_profile(nu, R, IntervalWindow(), [1, 3, 17])
    assert [ratio for _, ratio, _ in rows] == [Fraction(1, 2)] * 3


def test_delta_squeeze_certificate_on_integers():
    # independent confirmation that the finite-test-set density of a periodic
    # subset of Z equals |R|/m: it is at least the mean density (averaging
    # over shifts) and at most K_c/c for the interval test set {0..c-1}
    # (integrate the sliding length-c count over (A cap V) + C); K_c/c
    # approaches |R|/m from above as c grows
    rng2 = random.Random(606)
    for _ in range(40):
        m = rng2.randrange(2, 15)
        res = sorted(rng2.sample(range(m), rng2.randrange(1, m + 1)))
        a = PeriodicDiscrete.line(m, res)
        mean = Fraction(len(res), m)
        for mult in (2, 8, 32):
            c = mult * m + rng2.randrange(1, m)  # off-period length, real squeeze
            # K_c: max count of A in c consecutive integers {x, ..., x+c-1}
            k_c = max(
                sum(1 for t in range(x, x + c) if t % m in res) for x in range(m)
            )
            assert mean <= Fraction(k_c, c)
            assert Fraction(k_c, c) - mean <= Fraction(len(res), c)
        assert delta_density(Counting(a), Z).value == mean


def test_profile_dirac_decreases_to_zero():
    rows = window_density_profile(DiracAtZero(), R, IntervalWindow(), [1, 10, 10**6])
    assert [r[1] for r in rows] == [Fraction(1, 2), Fraction(1, 20), Fraction(1, 2 * 10**6)]


def test_profile_monotone_trend_periodic():
    nu = Counting(PeriodicPoints(Fraction(3, 2), (0, Fraction(1, 2))))
    exact = Fraction(2) / Fraction(3, 2)
    radii = [Fraction(3, 2) * 2**k for k in range(9)]
    rows = window_density_profile(nu, R, IntervalWindow(), radii)
    ratios = [r[1] for r in rows]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))  # sup ratios decrease here
    assert abs(ratios[-1] - exact) < Fraction(1, 100)


def test_profile_final_entry_within_tolerance_of_closed_form():
    # random periodic counting instances: the last geometric-schedule entry
    # sits within the default relative tolerance of the exact mean
    for _ in range(20):
        period = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
        k = rng.randrange(1, 4)
        residues = tuple(sorted({period * Fraction(rng.randrange(0, 16), 16) for _ in range(k)}))
        nu = Counting(PeriodicPoints(period, residues))
        exact = Fraction(len(residues)) / period
        rows = window_density_profile(nu, R, IntervalWindow(), [period * 2**12])
        assert abs(rows[0][1] - exact) / exact < Fraction(1, 1000)


# ---------------------------------------------------------------------------
# auud / kahane


def test_auud_closed_forms():
    assert auud_window(Counting(PeriodicPoints(2, (0,))), R).value == Fraction(1, 2)
    assert auud_window(
        HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 3))])), R
    ).value == Fraction(1, 3)
    assert auud_window(Counting(PeriodicDiscrete.line(3, [0])), Z).value == Fraction(1, 3)
    assert auud_window(DiracAtZero(), R).value == 0


def test_auud_perturbed_lattice_estimates_two():
    """The finite-r profile sits near 2 up to r = 1000, yet the density is
    exactly 1: the extra points have finite mass M, which adds at most
    M/(2r) -> 0 to the lattice's ratio."""
    extras = tuple(Fraction(n * n + 1, n) for n in range(2, 2200))
    nu = Counting(PerturbedLattice(1, extra=extras))
    for report in (auud_window(nu, R), kahane_density(nu, R)):
        assert report.value == 1 and report.method == "closed-form"
    params = EstimationParams(tol=Fraction(1, 100), r0=Fraction(10), k_max=7)
    last = window_profile_schedule(nu, R, params=params)[-1][1]
    assert abs(last - 2) < Fraction(1, 10)
    # spot-check the scan at r in {10, 100, 1000} stays within 2 +- 1/2
    rows = window_density_profile(nu, R, IntervalWindow(), [10, 100, 1000])
    for _, ratio, _ in rows:
        assert abs(ratio - 2) < Fraction(1, 2)


def test_estimated_witness_reevaluates():
    """Every row of the window profile schedule re-evaluates through the
    independent Fraction path real_mass."""
    extras = tuple(Fraction(n * n + 1, n) for n in range(2, 400))
    nu = Counting(PerturbedLattice(1, extra=extras))
    params = EstimationParams(tol=Fraction(1, 50), r0=Fraction(8), k_max=5)
    rows = window_profile_schedule(nu, R, params=params)
    assert [r for r, _, _ in rows] == [8 * 2**k for k in range(len(rows))]
    for r, ratio, argmax in rows:
        window = IntervalUnion.closed(argmax - r, argmax + r)
        assert real_mass(nu, window) / (2 * r) == ratio


@settings(max_examples=40, deadline=None)
@given(
    step=st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)),
    extra=st.lists(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 5)), max_size=6),
    removed=st.lists(st.integers(-15, 15), max_size=4),
)
def test_window_profile_brackets_perturbed_lattice_closed_form(step, extra, removed):
    """The interval-window scan is the oracle of the closed form: the lattice
    meets a closed window of length 2r in 2r/step + [0, 1] points at its best
    shift, and the extra and removed points move the count by at most their
    number, so |ratio - 1/step| <= (1 + #extra + #removed) / (2r)."""
    s = PerturbedLattice(
        step,
        extra=tuple(p for p in extra if (p / step).denominator != 1),
        removed=tuple(step * k for k in removed),
    )
    nu = Counting(s)
    value = auud_window(nu, R).value
    assert value == 1 / step
    slack = 1 + len(s.extra) + len(s.removed)
    for r, ratio, _ in window_density_profile(nu, R, IntervalWindow(), [1, 3, 10, 40]):
        assert abs(ratio - value) <= slack / (2 * r)


def test_auud_closed_form_two_dimensional():
    from density_lab import ZLattice as ZL

    nu = Counting(PeriodicDiscrete((2, 3), ((0, 0), (1, 2))))
    rep = auud_window(nu, ZL(2))
    assert rep.value == Fraction(2, 6) == Fraction(1, 3)
    # the profile approaches the closed form from above
    rows = window_density_profile(nu, ZL(2), CenteredCube(), [1, 2, 4, 8])
    assert all(r >= Fraction(1, 3) for _, r, _ in rows)
    assert abs(rows[-1][1] - Fraction(1, 3)) < Fraction(1, 10)


def test_kahane_window_equivalence_annotation():
    rep = kahane_density(Counting(PeriodicDiscrete.line(3, [0])), Z)
    assert rep.value == Fraction(1, 3)
    assert any("window-equivalent" in a for a in rep.annotations)
    assert kahane_density(HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])), R).value == Fraction(1, 2)
    assert kahane_density(DiracAtZero(), R).value == 0


def test_kahane_infinite_for_accumulation():
    s = FinitePoints(
        tuple(Fraction(1, n) for n in range(1, 30)),
        accumulation=(AccumulationPoint(Fraction(0), "above"),),
    )
    rep = kahane_density(Counting(s), R)
    assert rep.is_infinite


# ---------------------------------------------------------------------------
# finite-group oracle


def test_finite_group_examples():
    G = FiniteAbelian((6,))
    nu = Counting(ExplicitFinite(((0,), (2,))))
    rep = kahane_density_finite_group(nu, G, mode="oracle")
    assert rep.value == Fraction(1, 3)
    full = Counting(ExplicitFinite(tuple((i,) for i in range(6))))
    assert kahane_density_finite_group(full, G).value == 1
    assert kahane_density_finite_group(Counting(ExplicitFinite(())), G).value == 0


def test_finite_group_atoms_are_checked():
    G = FiniteAbelian((6,))
    nu = WeightedDiracs((((7,), 1),))
    for mode in ("closed-form", "oracle"):
        with pytest.raises(ShapeMismatchError):
            kahane_density_finite_group(nu, G, mode=mode)
    with pytest.raises(ShapeMismatchError):
        measure_total_finite(nu, G)


def test_oracle_witness_reevaluates():
    G = FiniteAbelian((2, 3))
    nu = Counting(ExplicitFinite(((0, 0), (1, 2))))
    rep = kahane_density_finite_group(nu, G, mode="oracle")
    C, V = rep.witness.data
    cv = {G.add(c, v) for c in C.elements for v in V.elements}
    num = sum(1 for v in V.elements if v in {(0, 0), (1, 2)})
    assert Fraction(num, len(cv)) == rep.value == Fraction(1, 3)


@pytest.mark.parametrize("moduli", [(11,), (2, 2, 2, 2, 2)], ids=["Z_11", "Z_2^5"])
def test_oracle_pairs_are_capped_before_the_tables_exist(moduli):
    # (2^n - 1)^2 (C, V) pairs over 2^20 for n >= 11: refused before the
    # n * 2^n table entries are allocated, whatever the caller's order cap
    G = FiniteAbelian(moduli)
    nu = Counting(ExplicitFinite((G.zero(),)))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=r"\(C, V\) pairs exceed the enumeration cap"):
            kahane_oracle_finite(nu, G, cap=G.order)
        with pytest.raises(CapExceededError):
            oracle_counting_sweep(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_tables_allowed_up_to_order_10():
    elems, sums = _leader_sums(FiniteAbelian((10,)))
    assert len(elems) == 10 and len(sums(1)) == 1 << 10


def test_oracle_random_groups_and_subsets():
    groups = [g for g in all_finite_abelian_up_to(8) if g.order >= 1]
    for _ in range(60):
        G = rng.choice(groups)
        elems = G.elements()
        k = rng.randrange(0, len(elems) + 1)
        subset = ExplicitFinite(tuple(rng.sample(elems, k)))
        value, _, _ = kahane_oracle_finite(Counting(subset), G)
        assert value == Fraction(len(subset.elements), G.order)


def test_oracle_weighted_measures():
    groups = all_finite_abelian_up_to(6)
    for _ in range(200):
        G = rng.choice(groups)
        elems = G.elements()
        atoms = tuple(
            (e, Fraction(rng.randrange(1, 8), rng.randrange(1, 5)))
            for e in rng.sample(elems, rng.randrange(1, len(elems) + 1))
        )
        nu = WeightedDiracs(atoms)
        value, _, _ = kahane_oracle_finite(nu, G)
        assert value == measure_total_finite(nu, G) / G.order


def full_enumeration_oracle(weights, group):
    """The inf-sup by scoring every nonempty (C, V) pair, on int weights per
    element index: (num, den, C, V) with num/den the least over masks C of
    the greatest nu(V)/#(C+V) over masks V, C the first minimizer and V its
    least maximizer in mask order."""
    n = group.order
    size = 1 << n
    shifted = []  # shifted[g][V]: the mask of V + g
    for g in group.elements():
        perm = group.translate(g)
        shifted.append([sum(1 << perm[i] for i in range(n) if V >> i & 1) for V in range(size)])
    nu_of = [sum(w for i, w in enumerate(weights) if V >> i & 1) for V in range(size)]
    best = None
    for C in range(1, size):
        union = [0] * size  # union[V]: the mask of C + V
        for i in range(n):
            if C >> i & 1:
                union = [u | t for u, t in zip(union, shifted[i])]
        sup = None
        for V in range(1, size):
            num, den = nu_of[V], union[V].bit_count()
            if sup is None or num * sup[1] > sup[0] * den:
                sup = (num, den, V)
        if best is None or sup[0] * best[1] < best[0] * sup[1]:
            best = (sup[0], sup[1], C, sup[2])
    return best


weights_st = st.builds(Fraction, st.integers(1, 7), st.integers(1, 4))


@pytest.mark.parametrize(
    "moduli",
    [g.moduli for g in all_finite_abelian_up_to(5)],
    ids=lambda m: "x".join(f"Z{k}" for k in m) or "Z1",
)
def test_inf_sup_matches_full_enumeration_on_every_subset(moduli):
    # the counting measure of every subset A: value, first minimizer C and
    # least maximizer V as the full enumeration scores them
    G = FiniteAbelian(moduli)
    _, sums = _leader_sums(G)
    size = 1 << G.order
    for A in range(size):
        weights = [A >> i & 1 for i in range(G.order)]
        nu_of = [(A & V).bit_count() for V in range(size)]
        assert _inf_sup(nu_of, sums) == full_enumeration_oracle(weights, G), A


@pytest.mark.parametrize("kind", ["diracs", "diracs+counting", "uniform", "atom"])
@pytest.mark.parametrize(
    "moduli",
    [g.moduli for g in all_finite_abelian_up_to(8)],
    ids=lambda m: "x".join(f"Z{k}" for k in m) or "Z1",
)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_pruned_oracle_matches_full_enumeration(moduli, kind, data):
    G = FiniteAbelian(moduli)
    elems = G.elements()
    picked = st.lists(st.sampled_from(elems), min_size=1, unique=True)
    if kind == "atom":
        atoms = [(data.draw(st.sampled_from(elems)), data.draw(weights_st))]
    elif kind == "uniform":
        w = data.draw(weights_st)
        atoms = [(e, w) for e in elems]
    else:
        atoms = [(e, data.draw(weights_st)) for e in data.draw(picked)]
    nu = WeightedDiracs(tuple(atoms))
    if kind == "diracs+counting":
        support = data.draw(st.lists(st.sampled_from(elems), unique=True))
        nu = MeasureSum((nu, Counting(ExplicitFinite(tuple(support)))))
        atoms += [(e, Fraction(1)) for e in support]
    denom = lcm(*(w.denominator for _, w in atoms))
    weights = [0] * G.order
    for e, w in atoms:
        weights[elems.index(e)] += int(w * denom)

    num, den, C, V = full_enumeration_oracle(weights, G)
    value, wc, wv = kahane_oracle_finite(nu, G)
    assert value == Fraction(num, denom * den)
    assert wc.elements == tuple(e for i, e in enumerate(elems) if C >> i & 1)
    assert wv.elements == tuple(e for i, e in enumerate(elems) if V >> i & 1)


@cache
def _translate(G):
    return finite_group_tables(G)[1]


@cache
def _sums(G):
    return _leader_sums(G)[1]


def test_inf_sup_matches_the_running_best_search_on_every_subset():
    # the counting measure of every subset A of every presentation of order
    # <= 6: the (num, den, C, V) of the search the kernel replaced
    for G in all_finite_abelian_up_to(6):
        translate, sums = _translate(G), _sums(G)
        size = 1 << G.order
        for A in range(size):
            nu_of = [(A & V).bit_count() for V in range(size)]
            assert _inf_sup(nu_of, sums) == running_best_inf_sup(nu_of, translate), (G, A)


@settings(max_examples=60, deadline=None)
@given(
    G=st.sampled_from([G for G in all_finite_abelian_up_to(10) if G.order >= 7]),
    data=st.data(),
)
def test_inf_sup_matches_the_running_best_search_on_weighted_measures(G, data):
    # int weights, zeros among them, on the presentations of order 7 to 10
    weights = data.draw(st.lists(st.integers(0, 4), min_size=G.order, max_size=G.order))
    nu_of = [0]  # nu_of[V]: the sum of the weights over the bits of V
    for w in weights:
        nu_of += [x + w for x in nu_of]
    assert _inf_sup(nu_of, _sums(G)) == running_best_inf_sup(nu_of, _translate(G))


def test_inf_sup_scans_many_leaders_at_a_bounded_cost_each():
    # nu = the counting measure of two neighbours on Z_10 drops most small C:
    # the search forms the sums of 53 leaders. Each leader's cost is held to
    # a few 2^n doubling passes (a plain list doubling, timed here as the
    # unit), so forming tables or scanning bit by bit per leader shows.
    G = FiniteAbelian((10,))
    weights = [0] * 10
    weights[5] = weights[6] = 1

    def doubling():
        out = [0]
        for w in weights:
            out += [x + w for x in out]
        return out

    nu_of, sums, leaders = doubling(), _sums(G), []

    def counted(C):
        leaders.append(C)
        return sums(C)

    assert _inf_sup(nu_of, counted) == running_best_inf_sup(nu_of, _translate(G))
    assert len(leaders) >= 50

    def best_of(k, f):
        return min(timeit.timeit(f, number=1) for _ in range(k))

    search, unit = best_of(5, lambda: _inf_sup(nu_of, sums)), best_of(20, doubling)
    assert search < 6 * len(leaders) * unit, (search, unit, len(leaders))


# ---------------------------------------------------------------------------
# delta density


def delta_lower_bound_check(point, weight, eta: Fraction, test_set_size: int) -> Fraction:
    """Re-evaluatable certificate: the ratio bound weight/(#F * eta)."""
    if eta <= 0 or test_set_size < 1:
        raise PreconditionError("eta must be positive and the test set nonempty")
    return weight / (test_set_size * eta)


def test_delta_equals_kahane_on_discrete():
    G = FiniteAbelian((6,))
    nu = Counting(ExplicitFinite(((0,), (2,))))
    assert delta_density(nu, G, mode="oracle").value == Fraction(1, 3)
    assert delta_density(Counting(PeriodicDiscrete.line(3, [0])), Z).value == Fraction(1, 3)


def test_delta_dirac_infinite_with_schedule():
    rep = delta_density(DiracAtZero(), R)
    assert rep.is_infinite
    kind, point, weight, schedule, note = rep.value.certificate
    assert kind == "diverging-schedule" and point == 0
    assert (Fraction(1, 10**6), Fraction(10**6)) in schedule
    assert schedule[-1][1] > Fraction(10**6)
    # the certificate re-evaluates: for |F| = 3 the bound is 1/(3 eta)
    assert delta_lower_bound_check(point, weight, Fraction(1, 10), 3) == Fraction(10, 3)


def test_delta_counting_on_line_infinite():
    rep = delta_density(Counting(PeriodicPoints(2, (0,))), R)
    assert rep.is_infinite  # atoms force the finite-test-set density to infinity


def test_delta_trace_reports_lower_bound():
    rep = delta_density(HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])), R)
    assert rep.method == "certified-lower-bound"
    assert rep.value == Fraction(1, 2)


def test_delta_dominates_kahane_everywhere():
    cases = [
        (Counting(PeriodicDiscrete.line(4, [0, 1])), Z),
        (Counting(PeriodicPoints(2, (0,))), R),
        (HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 3))])), R),
        (DiracAtZero(), R),
    ]
    for nu, g in cases:
        dv = delta_density(nu, g).value
        kv = kahane_density(nu, g).value
        if is_infinite(dv):
            continue
        assert dv >= kv


# ---------------------------------------------------------------------------
# chain density


def test_hegyvari_examples():
    chain = SigmaFiniteChain((2,) * 6)
    half = CylinderSet(1, ((0,),))
    rep = hegyvari_density(half, chain)
    assert rep.value == Fraction(1, 2)
    sub = hegyvari_density(ExplicitFinite(((), (1,))), chain)
    assert sub.value == 0
    whole = CylinderSet(0, ((),))
    assert hegyvari_density(whole, chain).value == 1


def test_hegyvari_schedule_oracle():
    chain = SigmaFiniteChain((2, 3, 2))
    a = CylinderSet(2, ((0, 0), (1, 2)))
    # oracle: enumerate H_n and count members directly
    for n in range(1, 4):
        count = sum(
            1
            for e in subgroup_elements(chain, n)
            if a.contains(e, chain)
        )
        assert a.count_in_subgroup(chain, n) == count


# ---------------------------------------------------------------------------
# translation witness


def test_translation_witness_examples():
    nu = Counting(PeriodicPoints(2, (0,)))
    w = IntervalUnion.closed(0, 4)
    x = translation_witness(nu, R, w, Fraction(2, 5))
    assert x == 0  # mass 3 >= 0.4 * 4
    trace = HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))]))
    x2 = translation_witness(trace, R, IntervalUnion.closed(0, 1), Fraction(49, 100))
    assert x2 is not None and not isinstance(x2, NotFound)
    assert translation_witness(nu, R, w, 0) == 0


def test_translation_witness_succeeds_below_density():
    # any gamma below the density must produce a witness on periodic instances
    for _ in range(50):
        period = Fraction(rng.randrange(1, 6))
        k = rng.randrange(1, 4)
        residues = sorted({Fraction(rng.randrange(0, int(period * 4)), 4) % period for _ in range(k)})
        s = PeriodicPoints(period, tuple(residues))
        nu = Counting(s)
        rho = s.counting_density
        gamma = rho * Fraction(rng.randrange(0, 100), 100)
        w = IntervalUnion.closed(0, Fraction(rng.randrange(1, 10)))
        got = translation_witness(nu, R, w, gamma)
        assert not isinstance(got, NotFound)


def test_translation_witness_not_found_carries_sup():
    nu = Counting(PeriodicPoints(2, (0,)))
    got = translation_witness(nu, R, IntervalUnion.closed(0, 2), Fraction(5))
    assert isinstance(got, NotFound)
    assert got.scanned_sup == 2  # window [x, x+2] holds at most 2 lattice points


def test_translation_witness_on_integers():
    nu = Counting(PeriodicDiscrete.line(3, [0]))
    W = ExplicitFinite(((0,), (1,), (2,), (3,)))
    x = translation_witness(nu, Z, W, Fraction(1, 3))
    assert x == (0,)  # {0, 3} gives mass 2 >= 4/3
    missing = translation_witness(nu, Z, W, Fraction(3, 4))
    assert isinstance(missing, NotFound)


@pytest.mark.parametrize(
    "period, residues",
    [((3,), ((0,), (1,))), ((4, 4), ((0, 0), (1, 1), (2, 3), (3, 2)))],
)
def test_translation_witness_not_found_reports_the_least_maximizer(period, residues):
    group = ZLattice(len(period))
    nu = Counting(PeriodicDiscrete(period, residues))
    got = translation_witness(nu, group, ExplicitFinite((group.zero(),)), 2)
    assert got == NotFound(Fraction(1), group.zero())
    scan = zd_shift_sup(nu, group, 0)
    assert (got.scanned_sup, got.argmax) == (scan.value, scan.argmax)


def zd_set_window(nu, group: ZLattice, window: ExplicitFinite):
    """nu evaluated on translates of a finite set: the map x -> nu(window + x),
    each point of each translate looked up in every layer in Fractions."""
    layers, _ = measure_layers(nu, group)

    def mass_at(x):
        x = group.check(x)
        total = Fraction(0)
        for w in window.elements:
            pt = group.add(w, x)
            for layer in layers:
                if layer.period is None:
                    for p, wt in layer.atoms:
                        if p == pt:
                            total += wt
                else:
                    key = tuple(c % m for c, m in zip(pt, layer.period))
                    for res, wt in layer.atoms:
                        if res == key:
                            total += wt
        return total

    return mass_at


def lattice_witness_candidates(nu, group: ZLattice, W):
    """The period torus in lexicographic order, the sorted shifts p - w of a
    finite support and the origin, or, for a mixed measure on Z, every
    integer from one period below the zone where W + x meets the finite
    atoms to two periods above it."""
    layers, _ = measure_layers(nu, group)
    periods = [l.period for l in layers if l.period is not None]
    points = [p for l in layers if l.period is None for p, _ in l.atoms]
    if periods and not points:
        return list(product(*(range(lcm(*ms)) for ms in zip(*periods))))
    if not periods:
        shifts = {tuple(a - b for a, b in zip(p, w)) for p in points for w in W.elements}
        return sorted(shifts | {group.zero()})
    (P,) = (lcm(*ms) for ms in zip(*periods))
    offsets = [w for (w,) in W.elements] or [0]
    lo = min(points)[0] - max(offsets) - P
    hi = max(points)[0] - min(offsets) + P
    return [(x,) for x in range(lo, hi + P + 1)]


def fraction_lattice_witness(nu, group, W, gamma):
    """translation_witness on Z^d as a Fraction loop over the candidates."""
    threshold = gamma * len(W.elements)
    mass_at = zd_set_window(nu, group, W)
    scan = None  # (sup, its first shift in candidate order)
    for x in lattice_witness_candidates(nu, group, W):
        mass = mass_at(x)
        if mass >= threshold:
            return x
        if scan is None or mass > scan[0]:
            scan = (mass, x)
    return NotFound(*(scan or (Fraction(0), group.zero())))


@st.composite
def lattice_measures(draw, max_d=2):
    """(d, nu): periodic counting layers, finite weighted atoms or both (the
    mixed case on Z only), in a sum."""
    d = draw(st.integers(1, max_d))
    kind = draw(st.sampled_from(("periodic", "finite", "mixed")[: 3 if d == 1 else 2]))
    parts = []
    if kind != "finite":
        for _ in range(draw(st.integers(1, 2))):
            period = tuple(draw(st.integers(1, 5)) for _ in range(d))
            cells = st.tuples(*(st.integers(0, m - 1) for m in period))
            residues = draw(st.lists(cells, min_size=1, max_size=3, unique=True))
            parts.append(Counting(PeriodicDiscrete(period, tuple(residues))))
    if kind != "periodic":
        point = st.tuples(*(st.integers(-6, 6) for _ in range(d)))
        weight = st.builds(Fraction, st.integers(1, 5), st.sampled_from((1, 2, 3)))
        atoms = draw(st.lists(st.tuples(point, weight), min_size=1, max_size=4))
        parts.append(WeightedDiracs(tuple(atoms)))
        if draw(st.booleans()):
            parts.append(DiracAtZero())
    return d, parts[0] if len(parts) == 1 else MeasureSum(tuple(parts))


def on_the_line(nu):
    """The measure on R with the integer data of nu on Z."""
    if isinstance(nu, MeasureSum):
        return MeasureSum(tuple(map(on_the_line, nu.components)))
    if isinstance(nu, WeightedDiracs):
        return WeightedDiracs(tuple((Fraction(p), w) for (p,), w in nu.atoms))
    if isinstance(nu, Counting) and isinstance(nu.of, PeriodicDiscrete):
        return Counting(PeriodicPoints(nu.of.period[0], nu.of.line_residues()))
    if isinstance(nu, Counting):  # of an ExplicitFinite
        return Counting(FinitePoints(tuple(Fraction(p) for (p,) in nu.of.elements)))
    return nu  # DiracAtZero


def point_window(W: ExplicitFinite) -> IntervalUnion:
    """The offsets W on Z as one-point pieces on R."""
    return IntervalUnion(tuple((Fraction(w), Fraction(w)) for (w,) in W.elements))


def is_mixed(nu, group) -> bool:
    layers, _ = measure_layers(nu, group)
    return len({l.period is None for l in layers}) == 2


@settings(max_examples=50, deadline=None)
@given(lattice_measures(), st.data())
def test_lattice_witness_matches_the_fraction_loop(drawn, data):
    """translation_witness against the Fraction loop over the candidates.
    For a mixed measure on Z the loop walks the perturbation zone: it stays
    the oracle for the scanned sup and for the validity of the witness and
    the argmax, which are those of the line scan of the same data."""
    d, nu = drawn
    group = ZLattice(d)
    point = st.tuples(*(st.integers(-3, 3) for _ in range(d)))
    W = ExplicitFinite(tuple(data.draw(st.lists(point, max_size=4, unique=True))))
    gamma = data.draw(st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)))
    got, want = translation_witness(nu, group, W, gamma), fraction_lattice_witness(nu, group, W, gamma)
    if not is_mixed(nu, group):
        assert got == want
        return
    mass_at = zd_set_window(nu, group, W)
    found, scan = real_threshold_witness(on_the_line(nu), point_window(W), gamma * len(W))
    if isinstance(want, NotFound):
        assert found is None and got == NotFound(want.scanned_sup, (scan.argmax,))
        assert mass_at(got.argmax) == want.scanned_sup
    else:
        assert got == (found,) and mass_at(got) >= gamma * len(W)


@settings(max_examples=60, deadline=None)
@given(lattice_measures(), st.integers(0, 6))
@example(  # mixed: the even integers plus one atom
    (1, MeasureSum((Counting(PeriodicDiscrete.line(2, [0])), WeightedDiracs((((6,), 1),))))), 2
)
def test_cube_scan_matches_the_per_candidate_fraction_loop(drawn, r):
    """zd_shift_sup against the scan it replaced, which evaluates every
    candidate with _zd_mass_at: value, least argmax and candidate count,
    and the value at every candidate of the int kernel. On a mixed measure
    that scan walks the perturbation zone and stays the oracle for the
    value; the argmax and the candidates are the line scan's on the same
    data, and the argmax is checked with _zd_mass_at."""
    d, nu = drawn
    group = ZLattice(d)
    got, want = zd_shift_sup(nu, group, r), fraction_zd_shift_sup(nu, group, r)
    layers, _ = measure_layers(nu, group)
    if is_mixed(nu, group):
        line = real_shift_sup(on_the_line(nu), IntervalUnion.closed(-r, r))
        assert got == ShiftScan(want.value, (line.argmax,), line.candidates)
        assert _zd_mass_at(layers, got.argmax, r) == want.value
    else:
        assert got == want
    Dw, values, at = _zd_values(nu, group, r)
    assert [Fraction(v, Dw) for v in values] == [
        _zd_mass_at(layers, at(i), r) for i in range(len(values))
    ]


def test_lattice_witness_of_the_empty_window_is_the_origin():
    # nu(empty + x) = 0 meets the threshold 0 at every shift; the least
    # candidate is the origin, for a finite, a periodic or a mixed measure
    empty = ExplicitFinite(())
    assert translation_witness(Counting(ExplicitFinite(((3,),))), Z, empty, 1) == (0,)
    assert translation_witness(Counting(PeriodicDiscrete.line(3, [0])), Z, empty, 1) == (0,)
    mixed = MeasureSum((Counting(PeriodicDiscrete.line(3, [0])), WeightedDiracs((((7,), 1),))))
    assert translation_witness(mixed, Z, empty, 1) == (0,)


@settings(max_examples=80, deadline=None)
@given(
    lattice_measures(max_d=1),
    st.one_of(st.integers(0, 6), st.lists(st.integers(-3, 3), max_size=4, unique=True)),
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)),
)
# every shift reaches 0: the least candidate is the origin, not the shift 3
@example((1, Counting(ExplicitFinite(((5,),)))), [2], Fraction(0))
# mass 1 on the cube of radius 3: first reached at the line candidate -7, not
# at -9, where a zone of every integer one period below the events began
@example(
    (1, MeasureSum((Counting(PeriodicDiscrete.line(3, [2])), WeightedDiracs((((-3,), 1),))))),
    3,
    Fraction(1, 7),
)
def test_z_scans_equal_the_line_scans_of_the_same_data(drawn, window, gamma):
    """Z sits inside R: a measure with integer data has the same shift
    supremum, least maximizer and least threshold witness, or NotFound, on
    both, for a cube r ([-r, r] on R) and for a list of offsets (one point
    piece each on R)."""
    _, nu = drawn
    if isinstance(window, int):
        pieces, size = IntervalUnion.closed(-window, window), 2 * window + 1
        found, scan = _zd_scan(nu, Z, window, gamma * size)
    else:
        W = ExplicitFinite(tuple((w,) for w in window))
        pieces, size = point_window(W), len(W)
        found, scan = zd_threshold_witness(nu, Z, W, gamma * size)
    on_r, line = real_threshold_witness(on_the_line(nu), pieces, gamma * size)
    assert (found, scan.value, scan.argmax) == (
        None if on_r is None else (on_r,),
        line.value,
        (line.argmax,),
    )
    if not isinstance(window, int):
        want = NotFound(line.value, (line.argmax,)) if on_r is None else (on_r,)
        assert translation_witness(nu, Z, W, gamma) == want


def test_mixed_cube_scan_on_z_is_independent_of_the_radius():
    nu = MeasureSum((Counting(PeriodicDiscrete.line(2, [0])), Counting(ExplicitFinite(((5,),)))))
    small, large = zd_shift_sup(nu, Z, 10**3), zd_shift_sup(nu, Z, 10**6)
    assert large.candidates == small.candidates
    layers, _ = measure_layers(nu, Z)
    assert large.value == _zd_mass_at(layers, large.argmax, 10**6) == 10**6 + 2
    # a negative radius is the empty window, of mass 0 at every shift
    assert zd_shift_sup(nu, Z, -2) == ShiftScan(Fraction(0), (0,), 1)


@pytest.mark.parametrize(
    "nu",
    [
        Counting(PeriodicPoints(2, (0,))),
        Counting(FinitePoints((Fraction(3),))),
        HaarTrace(IntervalUnion.closed(0, 1)),
        Counting(FinitePoints((Fraction(1),), (AccumulationPoint(Fraction(0), "both"),))),
        Counting(PerturbedLattice(1, (Fraction(1, 2),))),
    ],
    ids=["periodic", "finite", "trace", "accumulating", "mixed"],
)
def test_line_witness_of_the_empty_window_is_the_origin(nu):
    # nu(empty + x) = 0 at every shift, whichever layers nu has
    empty = IntervalUnion.empty()
    assert real_shift_sup(nu, empty) == ShiftScan(Fraction(0), Fraction(0), 1)
    assert translation_witness(nu, R, empty, 1) == 0


@pytest.mark.parametrize(
    "side, shift",
    # the first positive piece [1, 3] of the window: "above" and "both" put its
    # left end on the marker, "below" its right end
    [("above", Fraction(1, 2)), ("below", Fraction(-3, 2)), ("both", Fraction(1, 2))],
)
def test_line_scans_trap_an_accumulation_marker_on_its_side(side, shift):
    ap = AccumulationPoint(Fraction(3, 2), side)
    nu = MeasureSum((Counting(FinitePoints((Fraction(-1), Fraction(2)), (ap,))), DiracAtZero()))
    window = IntervalUnion(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(3)), (5, 6)))
    certificate = ("accumulation", ap, window.translate(shift))
    scan = real_shift_sup(nu, window)
    assert (scan.argmax, scan.candidates) == (shift, 0)
    assert is_infinite(scan.value) and scan.value.certificate == certificate
    found, witness_scan = real_threshold_witness(nu, window, Fraction(10**9))
    assert found == shift and witness_scan.value.certificate == certificate
    assert translation_witness(nu, R, window, 10**9) == shift
    assert is_infinite(real_mass(nu, window.translate(shift)))


def test_a_window_of_points_cannot_trap_an_accumulation_marker():
    points = (Fraction(0), Fraction(1), Fraction(3))
    nu = Counting(FinitePoints(points, (AccumulationPoint(Fraction(0), "both"),)))
    window = IntervalUnion(((Fraction(1), Fraction(1)), (Fraction(4), Fraction(4))))
    # candidates p - w: -4, -3, -1, 0 and 2; only x = -1 puts both points on atoms
    assert real_shift_sup(nu, window) == ShiftScan(Fraction(2), Fraction(-1), 5)
    assert real_threshold_witness(nu, window, 2)[0] == -1
    assert real_threshold_witness(nu, window, 3)[0] is None
    assert real_mass(nu, window.translate(-1)) == 2


def test_lattice_witness_sees_the_atoms_of_a_mixed_measure():
    # the atom at 100 lies outside the period torus [0, 10); nu({100}) = 6
    nu = MeasureSum((Counting(PeriodicDiscrete.line(10, [0])), WeightedDiracs((((100,), 5),))))
    assert translation_witness(nu, Z, ExplicitFinite(((0,),)), 3) == (100,)
    assert zd_shift_sup(nu, Z, 0).value == 6
    missing = translation_witness(nu, Z, ExplicitFinite(((0,),)), 7)
    assert missing == NotFound(Fraction(6), (100,))
    plane = MeasureSum((Counting(PeriodicDiscrete((2, 2), ((0, 0),))), DiracAtZero()))
    with pytest.raises(PreconditionError, match="need d = 1"):
        translation_witness(plane, ZLattice(2), ExplicitFinite(((0, 0),)), 1)


def test_translation_witness_caps_the_torus_before_building_it():
    nu = Counting(PeriodicDiscrete((1100, 1100), ((0, 0),)))  # 1.21e6 centers > 2^20
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            translation_witness(nu, ZLattice(2), ExplicitFinite(((0, 0),)), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# neighborhood-growth window


def test_rudin_window_real_example():
    rw = rudin_window(IntervalUnion.closed(-1, 1), Fraction(1, 10), R)
    assert rw.mu_CV < (1 + Fraction(1, 10)) * rw.mu_V
    assert rw.L == 11  # minimal integer: 2L + 2 < 2.2 L forces L > 10
    # the sufficiency value diam(C)/eps = 20 also verifies: 42 < 44
    v20 = IntervalUnion.closed(-20, 20)
    assert IntervalUnion.closed(-1, 1).minkowski(v20).length == 42 < Fraction(44)


def test_rudin_window_point_set():
    rw = rudin_window(IntervalUnion.point(0), Fraction(1, 2), R)
    assert rw.L == 1 and rw.mu_CV == rw.mu_V


def test_rudin_window_integers():
    C = ExplicitFinite(tuple((i,) for i in range(6)))
    rw = rudin_window(C, Fraction(1, 2), Z)
    assert rw.mu_CV < Fraction(3, 2) * rw.mu_V
    assert rw.L == 5  # |C+V| = 2L+6 < 1.5 (2L+1) forces L >= 5
    # minimality: L = 4 fails
    assert not (2 * 4 + 6 < Fraction(3, 2) * (2 * 4 + 1))


def test_rudin_window_minimality_random():
    for _ in range(40):
        lo = Fraction(rng.randrange(-10, 10), rng.randrange(1, 4))
        width = Fraction(rng.randrange(0, 30), rng.randrange(1, 4))
        C = IntervalUnion.closed(lo, lo + width)
        eps = Fraction(rng.randrange(1, 20), 20)
        rw = rudin_window(C, eps, R)
        assert rw.mu_CV < (1 + eps) * rw.mu_V
        if rw.L > 1:
            prev = C.minkowski(IntervalUnion.closed(-(rw.L - 1), rw.L - 1)).length
            assert not (prev < (1 + eps) * Fraction(2 * (rw.L - 1)))


def minkowski_rudin_window(C, epsilon, group=R):
    """rudin_window with the probes that the gap formula replaced: on the
    line each probe of L builds C + [-L, L] as an IntervalUnion and measures
    it; on Z it unions the Fraction pieces [p - L, p + L] over the points p
    of C and counts their integer points."""
    if isinstance(group, RealLine):

        def check(L):
            V = IntervalUnion.closed(-L, L)
            mu_v = Fraction(2 * L)
            mu_cv = mu_v if C.is_empty else C.minkowski(V).length
            return mu_cv < (1 + epsilon) * mu_v, mu_v, mu_cv

        def build(L):
            return IntervalUnion.closed(0, L), IntervalUnion.closed(-L, L)

    else:
        pts = tuple(e[0] for e in C.elements)

        def check(L):
            mu_v = Fraction(2 * L + 1)
            if not pts:
                return True, mu_v, mu_v
            pieces = IntervalUnion(tuple((Fraction(p - L), Fraction(p + L)) for p in pts))
            mu_cv = sum((int(b - a) + 1 for a, b in pieces.intervals), 0)
            return Fraction(mu_cv) < (1 + epsilon) * mu_v, mu_v, Fraction(mu_cv)

        def build(L):
            return (
                ExplicitFinite(tuple((i,) for i in range(L + 1))),
                ExplicitFinite(tuple((i,) for i in range(-L, L + 1))),
            )

    tried = [1]
    L = 1
    ok, mu_v, mu_cv = check(L)
    while not ok:
        L *= 2
        ok, mu_v, mu_cv = check(L)
        tried.append(L)
    lo, hi = L // 2, L
    while hi - lo > 1:
        mid = (lo + hi) // 2
        tried.append(mid)
        if check(mid)[0]:
            hi = mid
        else:
            lo = mid
    _, mu_v, mu_cv = check(hi)
    W, V = build(hi)
    return RudinWindow(
        L=hi, W=W, V=V, mu_V=mu_v, mu_CV=mu_cv, epsilon=epsilon, tried=tuple(tried)
    )


rudin_ends = st.fractions(min_value=-12, max_value=12, max_denominator=9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(rudin_ends, st.sampled_from((0, 0, Fraction(1, 3), 1, 5))), max_size=5),
    st.booleans(),
    st.fractions(min_value=Fraction(1, 40), max_value=4, max_denominator=40),
    st.lists(st.integers(-30, 30), max_size=6),
)
@example([], False, Fraction(1, 2), [])  # the empty set
@example([(Fraction(-1), 0), (Fraction(3), 0)], False, Fraction(1, 7), [-1, 3])  # two points
@example([(Fraction(0), 1)], True, Fraction(1, 3), [0, 1, 2])  # [0, 1] and [1, 2] touch
@example([], False, Fraction(1, 3), [0, 3, 3])  # on Z, [-1, 1] and [2, 4] are adjacent at L = 1
def test_integer_rudin_probe_matches_the_minkowski_probe(pieces, touching, eps, points):
    """Every RudinWindow field of the int probe equals that of the
    IntervalUnion probe, on the line (points, touching pieces, multi-piece
    unions and the empty set) and on Z (repeated, adjacent and spread
    points, and the empty set)."""
    pairs = [(a, a + w) for a, w in pieces]
    if touching and pairs:
        a, b = pairs[-1]
        pairs.append((b, b + 1))  # touches the last piece, which it may merge with
    C = IntervalUnion(tuple(pairs))
    assert rudin_window(C, eps, R) == minkowski_rudin_window(C, eps)
    C = ExplicitFinite(tuple((p,) for p in points))
    assert rudin_window(C, eps, Z) == minkowski_rudin_window(C, eps, Z)


# ---------------------------------------------------------------------------
# invariance properties


def test_density_reports_translation_invariant():
    cases = [
        (Counting(PeriodicPoints(2, (0,))), R, Fraction(1, 3)),
        (HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])), R, Fraction(5, 7)),
        (Counting(PeriodicDiscrete.line(6, [0, 2, 3])), Z, (2,)),
    ]
    for nu, g, shift in cases:
        base = auud_window(nu, g).value
        shifted = auud_window(translate_measure(nu, shift, g), g).value
        assert base == shifted


def test_density_monotone_in_nested_sets():
    for _ in range(1000):
        m = rng.randrange(2, 16)
        small = set(rng.sample(range(m), rng.randrange(0, m + 1)))
        extra = set(rng.sample(range(m), rng.randrange(0, m + 1)))
        big = small | extra
        da = auud_window(Counting(PeriodicDiscrete.line(m, sorted(small))), Z).value
        db = auud_window(Counting(PeriodicDiscrete.line(m, sorted(big))), Z).value
        assert da <= db


def test_k_independence_on_periodic_patterns():
    pat = PeriodicPattern.from_pairs(1, [(0, Fraction(1, 3))])
    nu = HaarTrace(pat)
    shapes = [
        CustomK(IntervalUnion.closed(0, 1)),
        CustomK(IntervalUnion.closed(Fraction(-1, 2), Fraction(1, 2))),
        CustomK(IntervalUnion(((Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(5, 4))))),
    ]
    radii = [Fraction(2**k) for k in range(4, 13)]
    finals = []
    for K in shapes:
        rows = window_density_profile(nu, R, K, radii)
        finals.append(rows[-1][1])
        assert abs(rows[-1][1] - Fraction(1, 3)) < Fraction(1, 100)
    for a in finals:
        for b in finals:
            assert abs(a - b) < Fraction(2, 1000)
