import random
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    AccumulationPoint,
    CapExceededError,
    Counting,
    CylinderSet,
    ExplicitFinite,
    FiniteAbelian,
    FinitePoints,
    IntervalUnion,
    PeriodicDiscrete,
    PeriodicPattern,
    PeriodicPoints,
    PerturbedLattice,
    PreconditionError,
    RealLine,
    SigmaFiniteChain,
    VerificationError,
    ZLattice,
    auto_H,
    difference_set,
    fatten,
    greedy_translates,
    minkowski_sum,
    packing_bound_check,
    partition_by_coloring,
    subadditivity_check,
    syndetic_pipeline,
)
from density_lab import structure
from density_lab.groups import _strip
from density_lab.instances import canonical_json, to_jsonable
from density_lab.rational import common_scale, is_infinite
from density_lab.structure import (
    _configuration,
    _difference_points_within,
    _first_fit,
    _materialize_config,
    _partition,
    _pattern_cover_fault,
    _periodic_classes,
    _verify_class_packing,
    _window_count,
    counting_density,
)
from density_lab.windows import real_mass
from oracles import (
    fraction_class_partition,
    fraction_greedy_pattern,
    fraction_pattern_cover_fault,
    fraction_pipeline,
    min_positive_difference,
    range_slice_first_fit,
)

rng = random.Random(31337)
Z = ZLattice(1)
R = RealLine()


# ---------------------------------------------------------------------------
# greedy translate sets


def test_greedy_3z_golden():
    cover = greedy_translates(PeriodicDiscrete.line(3, [0]), Z)
    assert cover.translates == ((0,), (1,), (2,))
    assert cover.size_bound == 3
    assert cover.verified_cover and cover.verified_packing


def test_greedy_full_group():
    G = FiniteAbelian((5,))
    cover = greedy_translates(ExplicitFinite(tuple((i,) for i in range(5))), G)
    assert cover.translates == ((0,),)


def test_greedy_chain_golden():
    chain = SigmaFiniteChain((2, 2, 2))
    cover = greedy_translates(CylinderSet(1, ((0,),)), chain)
    assert cover.translates == ((), (1,))
    assert cover.size_bound == 2


def test_greedy_maximality_witnesses():
    # every rejected candidate's recorded blocker must lie in
    # (A-A) cap (B' - B') away from zero
    for _ in range(100):
        m = rng.randrange(2, 18)
        res = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        a = PeriodicDiscrete.line(m, res)
        cover = greedy_translates(a, Z)
        d = set(difference_set(a, Z).line_residues())
        b_set = [b[0] for b in cover.translates]
        for cand, blocker in cover.blocked:
            assert blocker[0] != 0 and blocker[0] in d
            assert any((cand[0] - b) % m == blocker[0] for b in b_set)


def test_greedy_cover_and_bound_random_suite():
    for _ in range(200):
        m = rng.randrange(2, 25)
        res = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        a = PeriodicDiscrete.line(m, res)
        cover = greedy_translates(a, Z)
        assert cover.size <= cover.size_bound
        d = set(difference_set(a, Z).line_residues())
        bs = [b[0] for b in cover.translates]
        assert all(any((g - b) % m in d for b in bs) for g in range(m))


def test_greedy_pattern_golden():
    # A = [0, 1/2] mod 2 has density 1/4; two translates cover
    a = PeriodicPattern.from_pairs(2, [(0, Fraction(1, 2))])
    cover = greedy_translates(a, R)
    assert cover.translates == (Fraction(0), Fraction(1))
    assert cover.size_bound == 4
    assert cover.verified_cover


def test_greedy_pattern_random_suite():
    for _ in range(60):
        p = Fraction(rng.randrange(1, 5))
        width = Fraction(rng.randrange(1, int(4 * p)), 4)
        a = PeriodicPattern.from_pairs(p, [(0, min(width, p))])
        cover = greedy_translates(a, R)
        assert cover.size <= cover.size_bound
        d = a.difference_set()
        union = IntervalUnion.empty()
        for b in cover.translates:
            union = union.union(d.translate(b).pattern)
        assert union.complement_within(0, p).is_empty


def test_greedy_two_dimensional_lattice():
    a = PeriodicDiscrete((2, 3), ((0, 0),))
    cover = greedy_translates(a, ZLattice(2))
    assert cover.size <= cover.size_bound == 6
    assert cover.verified_cover and cover.verified_packing
    # A - A = the period lattice itself, so B must hit every residue cell
    assert len(cover.translates) == 6


def test_greedy_stays_linear_on_a_large_sparse_quotient():
    # A = {0, 1} in Z_{2^17}: 2^16 translates and 2^16 blocked cells. Each
    # accepted b touches only b + (A - A), so this takes about a second; a
    # greedy that spends O(|G|) per accepted b takes several times the bound.
    start = time.perf_counter()
    cover = greedy_translates(PeriodicDiscrete.line(1 << 17, [0, 1]), Z)
    assert time.perf_counter() - start < 5
    assert cover.translates == tuple((2 * k,) for k in range(1 << 16))
    assert cover.blocked[:2] == (((1,), (1,)), ((3,), (1,)))


def test_greedy_zero_density_rejected():
    with pytest.raises(PreconditionError):
        greedy_translates(PeriodicDiscrete.line(4, []), Z)
    with pytest.raises(PreconditionError):
        greedy_translates(PeriodicPoints(2, (0,)), R)


# ---------------------------------------------------------------------------
# packing bound


def test_packing_examples():
    ok = packing_bound_check(PeriodicPoints(2, (0,)), IntervalUnion.closed(0, Fraction(3, 2)))
    assert ok.mu_H == Fraction(3, 2) and ok.bound == 2
    with pytest.raises(PreconditionError, match="common difference 2"):
        packing_bound_check(PeriodicPoints(2, (0,)), IntervalUnion.closed(0, 2))
    third = packing_bound_check(
        PeriodicPoints(1, (0, Fraction(1, 3))), IntervalUnion.closed(0, Fraction(1, 4))
    )
    assert third.bound == Fraction(1, 2) and third.slack == Fraction(1, 4)


def test_packing_boundary_case():
    h = IntervalUnion.closed(0, Fraction(2) - Fraction(1, 10**6))
    check = packing_bound_check(PeriodicPoints(2, (0,)), h)
    assert check.slack == Fraction(1, 10**6)


def test_packing_bound_never_violated_randomized():
    for _ in range(2000):
        p = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
        k = rng.randrange(1, 4)
        residues = tuple(sorted({Fraction(rng.randrange(0, 24), 24) * p for _ in range(k)}))
        s = PeriodicPoints(p, residues)
        gap = min_positive_difference(s)
        h_len = gap * Fraction(rng.randrange(1, 16), 16)
        if h_len >= gap:
            continue
        check = packing_bound_check(s, IntervalUnion.closed(0, h_len))
        assert check.mu_H <= check.bound


def test_packing_on_integers():
    s = PeriodicDiscrete.line(4, [0])
    h = ExplicitFinite(((0,), (1,)))
    check = packing_bound_check(s, h, Z)
    assert check.mu_H == 2 and check.bound == 4
    with pytest.raises(PreconditionError):
        packing_bound_check(s, ExplicitFinite(((0,), (4,))), Z)


def z_packing_loop(S, H):
    """The Z branch of packing_bound_check before it shared the line's filter:
    Fraction-radius lifts by ceil/while and q_diffs & s_diffs. Returns the
    (mu_H, density, bound, slack, checked_radius) tuple or the error message."""
    if not isinstance(H, ExplicitFinite):
        return "H must be a finite set on Z"
    rho = counting_density(S, Z)
    if is_infinite(rho) or rho <= 0:
        return "positive finite counting density required"
    pts = [e[0] for e in H.elements]
    if not pts:
        return "H is empty"
    q_diffs = {a - b for a in pts for b in pts}
    radius = Fraction(max(abs(d) for d in q_diffs))
    if not isinstance(S, PeriodicDiscrete):
        return "Z packing checks need a periodic subset"
    m = S.period[0]
    res = S.line_residues()
    s_diffs = set()
    for a in res:
        for b in res:
            base = a - b
            k = ceil((-radius - base) / m)
            while base + k * m <= radius:
                s_diffs.add(base + k * m)
                k += 1
    violations = sorted(d for d in (q_diffs & s_diffs) if d > 0)
    if violations:
        return f"packing condition fails: common difference {violations[0]}"
    mu_h = Fraction(len(pts))
    bound = 1 / rho
    if mu_h > bound:
        return "packing bound violated"
    return (mu_h, rho, bound, bound - mu_h, radius)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.builds(
            PeriodicDiscrete.line,
            st.integers(1, 12),
            st.lists(st.integers(-20, 20), max_size=5),
        ),
        st.builds(lambda xs: ExplicitFinite(tuple((x,) for x in xs)),
                  st.lists(st.integers(-9, 9), max_size=4)),
    ),
    st.one_of(
        st.builds(lambda xs: ExplicitFinite(tuple((x,) for x in xs)),
                  st.lists(st.integers(-9, 9), max_size=5)),
        st.just(IntervalUnion.closed(0, 1)),
    ),
)
@example(PeriodicDiscrete.line(4, [0]), ExplicitFinite(((0,), (4,))))
@example(PeriodicDiscrete.line(7, [0, 3]), ExplicitFinite(((-2,), (1,), (2,))))
def test_z_packing_matches_the_lift_loop(S, H):
    """On Z the shared int filter gives the result or the precondition
    message of the former Fraction lift loop."""
    try:
        check = packing_bound_check(S, H, Z)
    except (PreconditionError, VerificationError) as exc:
        got = str(exc)
    else:
        got = (check.mu_H, check.density, check.bound, check.slack, check.checked_radius)
    assert got == z_packing_loop(S, H)


def test_packing_on_perturbed_lattice():
    """A perturbed lattice has counting density 1/step; its extra points set
    the shortest difference that H - H must avoid."""
    s = PerturbedLattice(2, extra=(Fraction(5, 2), Fraction(31, 3)), removed=(Fraction(4),))
    check = packing_bound_check(s, IntervalUnion.closed(0, Fraction(1, 4)))
    assert check.density == Fraction(1, 2) and check.bound == 2
    assert check.mu_H == Fraction(1, 4) <= check.bound
    with pytest.raises(PreconditionError, match="common difference 1/3"):
        packing_bound_check(s, IntervalUnion.closed(0, Fraction(1, 2)))


# ---------------------------------------------------------------------------
# fattening


def test_fatten_examples():
    r1 = fatten(PeriodicPoints(2, (0,)), IntervalUnion.closed(0, 1))
    assert r1.fattened == PeriodicPattern.from_pairs(2, [(0, 1)])
    assert r1.measured == Fraction(1, 2) == r1.claimed_bound and r1.equality
    r2 = fatten(PeriodicPoints(2, (0,)), IntervalUnion.point(0))
    assert r2.claimed_bound == 0 and r2.equality
    r3 = fatten(PeriodicPoints(1, (0,)), IntervalUnion.closed(0, Fraction(1, 3)))
    assert r3.measured == Fraction(1, 3) and r3.equality


@pytest.mark.parametrize("group", [ZLattice(1), FiniteAbelian((3,))])
def test_fatten_refuses_every_group_but_the_line(group):
    with pytest.raises(PreconditionError, match="fatten runs on the real line"):
        fatten(PeriodicPoints(1, (0,)), IntervalUnion.point(0), group)


def test_fatten_rejects_packing_violation():
    with pytest.raises(PreconditionError):
        fatten(PeriodicPoints(2, (0,)), IntervalUnion.closed(0, 2))


def test_fatten_density_bound_random():
    for _ in range(300):
        p = Fraction(rng.randrange(1, 7))
        s = PeriodicPoints(p, (0,))
        h_len = p * Fraction(rng.randrange(1, 16), 16)
        if h_len >= p:
            continue
        result = fatten(s, IntervalUnion.closed(0, h_len))
        assert result.measured >= s.counting_density * h_len


# ---------------------------------------------------------------------------
# partition


def test_partition_one_class_when_no_conflicts():
    s = PeriodicPoints(1, (0, Fraction(1, 3)))
    part = partition_by_coloring(s, IntervalUnion.closed(0, Fraction(1, 5)))
    assert part.n == 1


def test_partition_two_classes_golden():
    s = PeriodicPoints(1, (0, Fraction(1, 3)))
    part = partition_by_coloring(s, IntervalUnion.closed(0, Fraction(2, 5)))
    assert part.n == 2
    assert part.classes[0].residues == (Fraction(0),)
    assert part.classes[1].residues == (Fraction(1, 3),)


def test_partition_truncated_reciprocal_perturbation():
    pts = sorted(
        [Fraction(n) for n in range(2, 51)] + [Fraction(n * n + 1, n) for n in range(2, 51)]
    )
    s = FinitePoints(tuple(pts))
    part = partition_by_coloring(s, IntervalUnion.closed(0, Fraction(1, 4)))
    assert part.n == 2
    q = part.Q
    for cl in part.classes:
        for a in cl.points:
            for b in cl.points:
                if a != b:
                    assert not q.contains(a - b)


def test_partition_reverifies_and_respects_window_bound():
    for _ in range(60):
        p = Fraction(rng.randrange(1, 4))
        k = rng.randrange(1, 4)
        residues = tuple(sorted({p * Fraction(rng.randrange(0, 12), 12) for _ in range(k)}))
        s = PeriodicPoints(p, residues)
        h = IntervalUnion.closed(0, Fraction(rng.randrange(1, 30), 10))
        part = partition_by_coloring(s, h)
        assert part.n <= part.k_bound
        # classes reproduce S exactly over one coloring period
        hi = part.period - Fraction(1, 1000)
        union = sorted(q for c in part.classes for q in c.materialize(0, hi))
        assert union == list(s.materialize(0, hi))


def _drop_last(colors):
    return colors[:-1]


def _first_negative(colors):
    return [-1, *colors[1:]]


@pytest.mark.parametrize("corrupt", [_drop_last, _first_negative])
def test_partition_refuses_a_coloring_that_misses_a_point(monkeypatch, corrupt):
    # one color in range(n) per point: a short coloring would drop points in
    # zip, and a negative color would land in the last class
    monkeypatch.setattr(structure, "_first_fit", lambda pts, lifts: corrupt(_first_fit(pts, lifts)))
    s = PeriodicPoints(1, (0, Fraction(1, 3)))
    with pytest.raises(VerificationError, match="partition does not reproduce S") as exc:
        partition_by_coloring(s, IntervalUnion.closed(0, Fraction(2, 5)))
    assert exc.value.counterexample == s


def test_partition_perturbed_lattice_materializes():
    s = PerturbedLattice(1, extra=tuple(Fraction(n * n + 1, n) for n in range(4, 20)))
    part = partition_by_coloring(s, IntervalUnion.closed(0, Fraction(1, 4)))
    assert part.n == 2  # each n with 1/n <= 1/4 conflicts with its perturbation
    assert all(isinstance(c, FinitePoints) for c in part.classes)


def test_partition_refuses_a_bare_lattice():
    with pytest.raises(PreconditionError, match="bare lattice"):
        partition_by_coloring(PerturbedLattice(1), IntervalUnion.closed(0, Fraction(1, 4)))


@pytest.mark.parametrize("group", [FiniteAbelian((3,)), ZLattice(1)])
def test_partition_refuses_every_group_but_the_line(group):
    with pytest.raises(PreconditionError, match="the partition runs on the real line"):
        partition_by_coloring(PeriodicPoints(1, (0,)), IntervalUnion.closed(0, Fraction(1, 4)),
                              group)


def test_partition_rejects_accumulation():
    s = FinitePoints(
        (Fraction(1), Fraction(1, 2)),
        accumulation=(AccumulationPoint(Fraction(0), "above"),),
    )
    with pytest.raises(PreconditionError):
        partition_by_coloring(s, IntervalUnion.closed(0, Fraction(1, 4)))


# ---------------------------------------------------------------------------
# auto H


def test_auto_h_2z():
    result = auto_H(PeriodicPoints(2, (0,)), 1)
    # per-window count bound (1+eps) rho mu(H-H) = mu(H-H) here
    assert result.k <= 2 * Fraction(1, 2) * result.Q.length
    assert result.H.length == result.L


def test_auto_h_integers_eps_half():
    result = auto_H(PeriodicPoints(1, (0,)), Fraction(1, 2))
    assert result.k <= Fraction(3, 2) * result.Q.length


def test_auto_h_certificate_arithmetic():
    s = PeriodicPoints(1, (0, Fraction(1, 3)))
    eps = Fraction(1, 2)
    result = auto_H(s, eps)
    rho = s.counting_density
    # the absorbed test interval certifies K_c/c <= rho (1 + eps/2)
    assert result.window_count <= rho * (1 + eps / 2) * result.c
    # the growth construction certifies mu(C + V) < (1 + eta) mu(V)
    assert result.rudin.mu_CV < (1 + result.eta) * result.rudin.mu_V
    # combined: the exact window count meets the target
    assert result.k <= (1 + eps) * rho * result.Q.length


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda q: st.tuples(
           st.just(q), st.lists(st.integers(0, 4 * q - 1), min_size=1, max_size=4, unique=True))),
       st.sampled_from([1, 2, 3, 4]), st.fractions(Fraction(1, 16), 4))
def test_auto_h_takes_its_first_window_of_m_periods(qr, p, eps):
    # c = M periods with M = max(1, ceil(2/eps)) holds K_c = M |R| + 1
    # points at most, so the window certificate passes at the first M
    q, residues = qr
    S = PeriodicPoints(Fraction(p, q), [Fraction(r, q * q) for r in residues])
    M = max(1, ceil(2 / eps))
    result = auto_H(S, eps)
    assert result.c == M * S.period
    assert result.window_count == M * len(S.residues) + 1


def test_auto_h_requires_periodic():
    with pytest.raises(PreconditionError):
        auto_H(FinitePoints((Fraction(0), Fraction(1))), Fraction(1, 2))


def test_window_count_certificate_bounds_every_ratio():
    # the inequality behind auto_H: for C = [0, c] and any bounded V,
    # #(S cap V) / mu(C + V) <= K_c / c with K_c the max count over closed
    # length-c windows (integrate the sliding count over (S cap V) + C)
    from density_lab import Counting, real_shift_sup

    for _ in range(200):
        p = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
        k = rng.randrange(1, 4)
        residues = tuple(sorted({p * Fraction(rng.randrange(0, 24), 24) for _ in range(k)}))
        s = PeriodicPoints(p, residues)
        c = rng.randrange(1, 5) * p
        k_c = real_shift_sup(Counting(s), IntervalUnion.closed(0, c)).value
        C = IntervalUnion.closed(0, c)
        for _ in range(10):
            pieces = []
            for _ in range(rng.randrange(1, 3)):
                lo = Fraction(rng.randrange(-40, 40), 4)
                pieces.append((lo, lo + Fraction(rng.randrange(0, 30), 4)))
            v = IntervalUnion(tuple(pieces))
            if v.is_empty:
                continue
            count = len(
                [q for q in s.materialize(v.inf - 1, v.sup + 1) if v.contains(q)]
            )
            mu_cv = C.minkowski(v).length
            assert Fraction(count) * c <= k_c * mu_cv


# ---------------------------------------------------------------------------
# subadditivity


def test_subadditivity_examples():
    G6 = FiniteAbelian((6,))
    a1 = Counting(ExplicitFinite(((0,), (1,))))
    a2 = Counting(ExplicitFinite(((3,),)))
    check = subadditivity_check([a1, a2], G6)
    assert check.total_density == Fraction(1, 2)
    assert check.part_sum == Fraction(1, 3) + Fraction(1, 6)
    assert check.slack == 0
    evens = Counting(PeriodicDiscrete.line(2, [0]))
    odds = Counting(PeriodicDiscrete.line(2, [1]))
    check2 = subadditivity_check([evens, odds], Z)
    assert check2.total_density == 1 and check2.slack == 0
    perturbed = Counting(PerturbedLattice(1, extra=(Fraction(1, 2), Fraction(7, 3))))
    thirds = Counting(PeriodicPoints(3, (Fraction(1, 3), Fraction(2, 3))))
    check3 = subadditivity_check([perturbed, thirds], R)
    assert check3.part_densities == (1, Fraction(2, 3)) and check3.slack == 0


def test_subadditivity_partition_of_group_sums_to_one():
    for _ in range(50):
        G = FiniteAbelian((rng.randrange(2, 7),))
        elems = G.elements()
        rng.shuffle(elems)
        cut = rng.randrange(1, len(elems))
        parts = [
            Counting(ExplicitFinite(tuple(elems[:cut]))),
            Counting(ExplicitFinite(tuple(elems[cut:]))),
        ]
        check = subadditivity_check(parts, G)
        assert check.part_sum == 1 and check.total_density == 1


def test_subadditivity_random_zero_violations():
    for _ in range(300):
        m = rng.randrange(2, 13)
        n_parts = rng.randrange(1, 4)
        parts = [
            Counting(
                PeriodicDiscrete.line(m, sorted(rng.sample(range(m), rng.randrange(1, m + 1))))
            )
            for _ in range(n_parts)
        ]
        check = subadditivity_check(parts, Z)
        assert check.slack >= 0


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_2z_golden():
    result = syndetic_pipeline(PeriodicPoints(2, (0,)), H=IntervalUnion.closed(0, 1))
    assert result.partition.n == 1
    assert result.fatten.fattened == PeriodicPattern.from_pairs(2, [(0, 1)])
    assert result.fatten.measured == Fraction(1, 2)
    assert result.cover.translates == (Fraction(0),)
    assert result.T == IntervalUnion.closed(-1, 1)
    assert result.mu_T == 2
    assert result.remark_bound == 3 and result.remark_bound_holds
    assert result.covering_verified


def test_pipeline_two_residues_golden():
    s = PeriodicPoints(1, (0, Fraction(1, 3)))
    result = syndetic_pipeline(s, H=IntervalUnion.closed(0, Fraction(2, 5)))
    assert result.partition.n == 2
    assert result.selected_class == 0  # both classes have density 1; least index wins
    assert result.rho_j == 1
    assert result.cover.translates == (Fraction(0), Fraction(1, 2))
    assert result.mu_T == Fraction(13, 10)
    assert result.remark_bound_holds
    # re-derive the covering claim: (S - S) + T must cover a period
    d = difference_set(s, R)
    summed = minkowski_sum(d, result.T, R)
    assert summed.pattern.complement_within(0, summed.period).is_empty


def test_pipeline_rejects_accumulation_and_degenerate_h():
    acc = FinitePoints(
        tuple(Fraction(1, n) for n in range(1, 40)),
        accumulation=(AccumulationPoint(Fraction(0), "above"),),
    )
    with pytest.raises(PreconditionError):
        syndetic_pipeline(acc)
    with pytest.raises(PreconditionError):
        syndetic_pipeline(PeriodicPoints(2, (0,)), H=IntervalUnion.point(0))
    with pytest.raises(PreconditionError):
        syndetic_pipeline(FinitePoints((Fraction(0), Fraction(1))))


def test_pipeline_with_auto_h_certifies_bounds():
    for s in (
        PeriodicPoints(1, (0,)),
        PeriodicPoints(2, (0,)),
        PeriodicPoints(1, (0, Fraction(1, 3))),
    ):
        result = syndetic_pipeline(s)  # auto H
        assert result.class_count_holds
        assert result.derived_bound_holds
        assert result.covering_verified


def test_pipeline_third_golden_hand_derived():
    # S = Z u (Z + 2/5), H = [0, 1/5]: no conflicts (2/5 and 3/5 exceed 1/5),
    # one class of density 2; A = S + H has density 2/5; A - A already covers
    # the period, so B = {0} and T = [-1/5, 1/5]
    s = PeriodicPoints(1, (0, Fraction(2, 5)))
    result = syndetic_pipeline(s, H=IntervalUnion.closed(0, Fraction(1, 5)))
    assert result.partition.n == 1
    assert result.rho_j == 2
    assert result.fatten.measured == Fraction(2, 5)
    assert result.cover.translates == (Fraction(0),)
    assert result.T == IntervalUnion.closed(Fraction(-1, 5), Fraction(1, 5))
    assert result.mu_T == Fraction(2, 5)
    assert result.remark_bound == 3 and result.remark_bound_holds


def test_pipeline_evidence_replays():
    # every stage of the emitted result can be recomputed from its inputs
    s = PeriodicPoints(1, (0, Fraction(1, 3)))
    result = syndetic_pipeline(s, H=IntervalUnion.closed(0, Fraction(2, 5)))
    replay_fat = fatten(result.partition.classes[result.selected_class], result.H)
    assert replay_fat.fattened == result.fatten.fattened
    replay_cover = greedy_translates(result.fatten.fattened, RealLine())
    assert replay_cover.translates == result.cover.translates
    replay_T = IntervalUnion(
        tuple(
            (b + lo, b + hi)
            for b in result.cover.translates
            for lo, hi in result.partition.Q.intervals
        )
    )
    assert replay_T == result.T and replay_T.length == result.mu_T


def test_pipeline_stage_evidence_consistency():
    s = PeriodicPoints(Fraction(3, 2), (0, Fraction(1, 2)))
    result = syndetic_pipeline(s, H=IntervalUnion.closed(0, Fraction(1, 8)))
    # the fattened set's density equals rho_j * mu(H) exactly
    assert result.fatten.measured == result.rho_j * result.H.length
    # the translate count respects floor(1 / density(A))
    assert result.cover.size <= result.cover.size_bound
    # mu(T) is at most #B * mu(H - H)
    assert result.mu_T <= result.cover.size * result.partition.Q.length


# ---------------------------------------------------------------------------
# the indexed greedy and the integer first-fit against the loops they replaced


def fraction_greedy(a_elements, quotient):
    """The greedy loop the first-blocker table replaced: each candidate, in
    lexicographic order, is tested against every accepted translate."""
    a_set = {tuple(c % m for c, m in zip(e, quotient.moduli)) for e in a_elements}
    diff = {quotient.add(x, quotient.negate(y)) for x in a_set for y in a_set}
    zero = quotient.zero()
    B: list = []
    blocked: list = []
    for cand in quotient.elements():
        blocker = None
        for b in B:
            d = quotient.add(cand, quotient.negate(b))
            if d != zero and d in diff:
                blocker = d
                break
        if blocker is None:
            B.append(cand)
        else:
            blocked.append((cand, blocker))
    return tuple(B), tuple(blocked)


@st.composite
def greedy_instances(draw):
    """(A, group, expected translates, expected blocked) on Z_m, a multi-modulus
    finite group, or a chain subgroup."""
    kind = draw(st.sampled_from(("Z_m", "finite", "chain")))
    if kind == "Z_m":
        m = draw(st.integers(2, 60))
        residues = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6, unique=True))
        A = PeriodicDiscrete.line(m, residues)
        return A, Z, *fraction_greedy(A.residues, FiniteAbelian((m,)))
    if kind == "finite":
        G = FiniteAbelian(tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))))
        elements = G.elements()
        subset = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=6, unique=True))
        return ExplicitFinite(tuple(subset)), G, *fraction_greedy(subset, G)
    chain = SigmaFiniteChain(tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))))
    depth = draw(st.integers(0, chain.depth))
    cells = FiniteAbelian(chain.moduli[:depth]).elements()
    A = CylinderSet(depth, tuple(draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))))
    quotient = chain.subgroup(chain.depth)
    elems = [e for e in quotient.elements() if A.contains(_strip(e), chain)]
    B, blocked = fraction_greedy(elems, quotient)
    return (
        A,
        chain,
        tuple(_strip(b) for b in B),
        tuple((_strip(c), _strip(d)) for c, d in blocked),
    )


@settings(max_examples=40, deadline=None)
@given(greedy_instances())
def test_first_blocker_greedy_matches_fraction_greedy(drawn):
    A, group, translates, blocked = drawn
    cover = greedy_translates(A, group)
    assert cover.translates == translates
    assert cover.blocked == blocked


def fraction_reduced(S):
    """S over its minimal period, by the Fraction loop that
    PeriodicPoints.reduced ran before the partition reduced its classes in
    ints: the largest k dividing #residues whose shift period/k maps the
    residues onto themselves."""
    n = len(S.residues)
    res_set = set(S.residues)
    for k in range(n, 1, -1):
        if n % k:
            continue
        candidate = S.period / k
        if all((r + candidate) % S.period in res_set for r in S.residues):
            return PeriodicPoints(candidate, tuple({r % candidate for r in S.residues}))
    return S


def fraction_partition(S, H):
    """(classes, n, k_bound) from the first-fit loop the integer kernel
    replaced: every earlier point is tested for a conflict in Fractions."""

    def first_fit(points, conflict):
        colors = {}
        for i, q in enumerate(points):
            taken = {colors[t] for t in points[:i] if conflict(t, q)}
            c = 0
            while c in taken:
                c += 1
            colors[q] = c
        return colors

    Q = H.difference_set()
    if isinstance(S, PeriodicPoints):
        span = Q.sup - Q.inf
        L = max(1, int(span / S.period) + 1)
        while L * S.period <= span:
            L += 1
        P = L * S.period
        expanded = sorted(r + j * S.period for r in S.residues for j in range(L))

        def conflict(u, v):
            d = (v - u) % P
            if d == 0:
                return False
            return Q.contains(d) or Q.contains(d - P)

        colors = first_fit(expanded, conflict)
        n = max(colors.values()) + 1
        classes = tuple(
            fraction_reduced(PeriodicPoints(P, tuple(r for r in expanded if colors[r] == c)))
            for c in range(n)
        )
        k_bound = max(real_mass(Counting(S), Q.translate(s)) for s in S.residues)
        return classes, n, k_bound
    points = materialized(S)

    def conflict_pts(u, v):
        return u != v and Q.contains(v - u)

    colors = first_fit(points, conflict_pts)
    n = max(colors.values()) + 1 if points else 0
    classes = tuple(FinitePoints(tuple(q for q in points if colors[q] == c)) for c in range(n))
    k_bound = max(sum(1 for t in points if Q.contains(t - s)) for s in points) if points else 0
    return classes, n, Fraction(k_bound)


twelfths = st.builds(Fraction, st.integers(0, 48), st.just(12))


@st.composite
def partition_instances(draw):
    """(S, H): a periodic, finite or perturbed configuration and an H of one
    to three intervals whose diameter R is small, or just below a multiple of
    half the period (then the coloring period P is about 2R)."""
    kind = draw(st.sampled_from(("periodic", "finite", "perturbed")))
    period = draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4))))
    if kind == "periodic":
        S = PeriodicPoints(period, tuple(draw(st.lists(twelfths, min_size=1, max_size=6))))
    elif kind == "finite":
        S = FinitePoints(tuple(draw(st.lists(twelfths, max_size=25))))
    else:
        off_lattice = st.integers(1, 47).filter(lambda k: k % 12).map(lambda k: Fraction(k, 12))
        extra = draw(st.lists(off_lattice, min_size=1, max_size=8))
        removed = [Fraction(k) for k in draw(st.lists(st.integers(0, 4), max_size=2))]
        S = PerturbedLattice(1, tuple(extra), tuple(removed))
    if draw(st.booleans()):
        top = draw(st.sampled_from((Fraction(1, 12), Fraction(1, 6), Fraction(1, 3))))
    else:
        top = draw(st.integers(1, 4)) * period / 2 - Fraction(1, 24)
    cuts = sorted(draw(st.lists(st.integers(1, 23), max_size=4, unique=True)))
    cuts = [top * c / 24 for c in cuts[: len(cuts) // 2 * 2]]
    edges = [Fraction(0), *cuts, top]
    return S, IntervalUnion(tuple(zip(edges[::2], edges[1::2])))


@settings(max_examples=40, deadline=None)
@given(partition_instances())
# 5/6 and 0 conflict only across the seam of the coloring circle P = 1
@example((PeriodicPoints(1, (0, Fraction(5, 6))), IntervalUnion.closed(0, Fraction(11, 24))))
def test_integer_first_fit_matches_fraction_first_fit(drawn):
    S, H = drawn
    classes, n, k_bound = fraction_partition(S, H)
    part = partition_by_coloring(S, H)
    assert (part.classes, part.n, part.k_bound) == (classes, n, k_bound)


# ---------------------------------------------------------------------------
# integer difference sets and partition re-verification against the Fraction
# loops they replaced


def fraction_difference_points_within(S, radius):
    """The Fraction formulas the integer _difference_points_within replaced."""
    if isinstance(S, PeriodicPoints):
        out = set()
        for a in S.residues:
            for b in S.residues:
                base = a - b
                k = ceil((-radius - base) / S.period)
                while base + k * S.period <= radius:
                    out.add(base + k * S.period)
                    k += 1
        return sorted(out)
    # a perturbed lattice: every pair within radius of each other lies in the
    # perturbation zone widened by radius, or (lattice pairs) in a clean block
    span = S.extra + S.removed
    lo, hi = (min(span), max(span)) if span else (Fraction(0), Fraction(0))
    lo, hi = lo - radius - S.step, hi + radius + S.step
    far = hi + 2 * radius + 2 * S.step
    pts = S.materialize(lo, hi) + S.materialize(far, far + radius + S.step)
    return sorted({x - y for x in pts for y in pts if abs(x - y) <= radius})


mixed = st.fractions(min_value=0, max_value=5, max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("periodic", "perturbed")),
    st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=10),
    st.lists(mixed, min_size=1, max_size=8),
    st.fractions(min_value=0, max_value=7, max_denominator=24),
)
def test_integer_difference_points_within_match_fraction_loop(kind, period, points, radius):
    if kind == "periodic":
        S = PeriodicPoints(period, tuple(points))
    else:
        off = tuple(p for p in points if (p / period).denominator != 1)
        S = PerturbedLattice(period, off, (period * 2,))
    D, ds, _ = _difference_points_within(S, radius, ())
    assert all(type(d) is int for d in ds)
    assert [Fraction(d, D) for d in ds] == fraction_difference_points_within(S, radius)


def coloring_points(S, Q):
    """(points, P): the sorted points partition_by_coloring colors, and the
    circumference of its coloring circle for a periodic S (else None)."""
    if isinstance(S, PeriodicPoints):
        span = Q.sup - Q.inf
        L = max(1, int(span / S.period) + 1)
        while L * S.period <= span:
            L += 1
        P = L * S.period
        return sorted(r + j * S.period for r in S.residues for j in range(L)), P
    return materialized(S), None


def materialized(S) -> list[Fraction]:
    """The points of a finite or perturbed S that the partition colors, as
    Fractions."""
    D, xs = _materialize_config(S)
    return [Fraction(x, D) for x in xs]


def fraction_violates(Q, P, a, b) -> bool:
    """Whether distinct a, b conflict, as the Fraction re-verification tested."""
    if P is None:
        return a != b and Q.contains(a - b)
    d = (a - b) % P
    return d != 0 and (Q.contains(d) or Q.contains(d - P))


SEAM = (PeriodicPoints(1, (0, Fraction(5, 6))), IntervalUnion.closed(0, Fraction(11, 24)))


@settings(max_examples=80, deadline=None)
@given(
    partition_instances(),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 6)), max_size=3),
)
# 5/6 and 0 conflict only across the seam of the coloring circle P = 1
@example(SEAM, [(0, 0), (1, 0)])
@example(SEAM, [(0, 1), (1, 1)])
def test_integer_class_verifier_rejects_what_fraction_verifier_rejects(drawn, moves):
    """Recolor up to three points of a first-fit partition; the int class
    packing re-verification rejects the coloring iff some class holds a pair
    the all-pairs Fraction test rejects, and names a true violation."""
    S, H = drawn
    part = partition_by_coloring(S, H)
    Q = part.Q
    points, P = coloring_points(S, Q)
    if not points:
        return
    if P is None:
        colors = [next(j for j, c in enumerate(part.classes) if q in c.points) for q in points]
    else:
        colors = [next(j for j, c in enumerate(part.classes) if c.materialize(q, q)) for q in points]
    for i, c in moves:
        colors[i % len(points)] = c % (part.n + 1)
    classes = [
        [q for q, c in zip(points, colors) if c == j] for j in range(max(colors) + 1)
    ]
    expected = any(
        fraction_violates(Q, P, a, b) for cl in classes for a in cl for b in cl
    )
    radius = max(abs(Q.inf), abs(Q.sup))
    D, _, lifts, _, _ = _configuration(S, Q, radius)
    int_classes = [[int(q * D) for q in cl] for cl in classes]
    try:
        _verify_class_packing(int_classes, D, lifts)
    except VerificationError as exc:
        j, a, b = exc.counterexample
        assert expected and a in classes[j] and b in classes[j]
        assert fraction_violates(Q, P, a, b)
    else:
        assert not expected


@settings(max_examples=60, deadline=None)
@given(partition_instances())
@example(SEAM)
def test_integer_window_counts_match_real_mass(drawn):
    """Every int window count #(S cap (s + Q)) of the partition, and so
    k_bound, is the Fraction count: real_mass over s + Q for a periodic S."""
    S, H = drawn
    Q = H.difference_set()
    points, P = coloring_points(S, Q)
    radius = max(abs(Q.inf), abs(Q.sup))
    D, ints, lifts, P_int, n_centers = _configuration(S, Q, radius)
    assert [Fraction(x, D) for x in ints] == points and ints == [q * D for q in points]
    assert P_int == (None if P is None else P * D)
    assert lifts == [(a * D + off, b * D + off) for off in ((0,) if P is None else (0, P_int, -P_int))
                     for a, b in Q.intervals]
    assert points[:n_centers] == list(S.residues if P is not None else points)
    if isinstance(S, PeriodicPoints):
        centers = S.residues
        expected = [real_mass(Counting(S), Q.translate(s)) for s in centers]
    else:
        centers = points
        expected = [sum(1 for t in points if Q.contains(t - s)) for s in points]
    counts = [_window_count(ints, ints[points.index(s)], lifts) for s in centers]
    assert counts == expected
    assert partition_by_coloring(S, H).k_bound == max(expected, default=0)


# ---------------------------------------------------------------------------
# the range-slice kernel against the pair loops it replaced


def pair_membership(spans):
    """in_q(x) iff x lies in one of the sorted, disjoint int spans: the
    membership closure the pair loops called once per pair."""
    starts, ends = [a for a, _ in spans], [b for _, b in spans]

    def in_q(x):
        i = bisect_right(starts, x)
        return i > 0 and x <= ends[i - 1]

    return in_q


def pair_first_fit(points, in_q, R, P=None):
    """First-fit colors with one membership test per pair of points within
    distance R (on the circle of circumference P > 2R also across the seam)."""
    colors = []
    for i, q in enumerate(points):
        lo = bisect_left(points, q - R, 0, i)
        taken = {colors[j] for j in range(lo, i) if in_q(q - points[j])}
        if P is not None:
            wrapped = bisect_right(points, q - P + R, 0, lo)
            taken.update(colors[j] for j in range(wrapped) if in_q(q - points[j] - P))
        c = 0
        while c in taken:
            c += 1
        colors.append(c)
    return colors


def pair_conflicts(points, a, in_q, R, P=None):
    """The t with t - a in Q, or on the circle with (t - a) mod P in Q or
    Q + P, a itself included, by one membership test per near point."""
    near = points[bisect_left(points, a - R) : bisect_right(points, a + R)]
    if P is None:
        return [t for t in near if in_q(t - a)]
    near += points[bisect_left(points, a - R + P) :]
    near += points[: bisect_right(points, a + R - P)]
    return [t for t in near if in_q(d := (t - a) % P) or in_q(d - P)]


@st.composite
def int_configurations(draw):
    """(points, spans, P, colors): sorted distinct ints, the spans of a
    symmetric union of closed int intervals that contains 0, a coloring
    circle P > 2R or None, and a random coloring of the points."""
    edges = sorted(set(draw(st.lists(st.integers(0, 40), min_size=1, max_size=7))))
    edges = edges[: (len(edges) - 1) // 2 * 2 + 1]
    outer = list(zip(edges[1::2], edges[2::2]))
    spans = [(-b, -a) for a, b in reversed(outer)] + [(-edges[0], edges[0])] + outer
    R = edges[-1]
    P = draw(st.one_of(st.none(), st.integers(2 * R + 1, 2 * R + 30)))
    lo, hi = (-60, 60) if P is None else (0, P - 1)
    points = sorted(set(draw(st.lists(st.integers(lo, hi), max_size=30))))
    colors = draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
    return points, spans, P, colors


@settings(max_examples=150, deadline=None)
@given(int_configurations())
# SEAM in ints over D = 24: 0 and 20 conflict only across the seam of P = 24
@example(([0, 20], [(-11, 11)], 24, [0, 0]))
@example(([0, 20], [(-11, 11)], 24, [0, 1]))
def test_range_slices_match_the_pair_loops(drawn):
    """First-fit, every window count and the class verifier (its verdict and
    the pair it names) equal those of the pair loops on the same ints."""
    points, spans, P, colors = drawn
    in_q, R = pair_membership(spans), spans[-1][1]
    lifts = spans if P is None else [(a + off, b + off) for off in (0, P, -P) for a, b in spans]
    assert _first_fit(points, lifts) == pair_first_fit(points, in_q, R, P)
    assert [_window_count(points, s, lifts) for s in points] == [
        len(pair_conflicts(points, s, in_q, R, P)) for s in points
    ]
    classes = [[x for x, c in zip(points, colors) if c == j] for j in range(4)]
    expected = next(
        (
            (j, Fraction(a, 7), Fraction(b, 7))
            for j, cl in enumerate(classes)
            for a in cl
            for b in pair_conflicts(cl, a, in_q, R, P)
            if b != a
        ),
        None,
    )
    try:
        _verify_class_packing(classes, 7, lifts)
    except VerificationError as exc:
        assert exc.counterexample == expected
    else:
        assert expected is None


@st.composite
def point_h_instances(draw):
    """(S, H): a configuration of partition_instances and an H of one to
    three points, so that 0 is isolated in H - H and every positive lift
    (a, b) of H - H has a > 0."""
    S, _ = draw(partition_instances())
    pts = draw(st.lists(twelfths, min_size=1, max_size=3, unique=True))
    return S, IntervalUnion(tuple((p, p) for p in pts))


@settings(max_examples=100, deadline=None)
@given(st.one_of(partition_instances(), point_h_instances()))
@example(SEAM)
# H - H = {-1/2, -1/4, 0, 1/4, 1/2}: a point's color is free again for the next
# point at distance 1/6, which enters no window
@example((PeriodicPoints(1, (0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
          IntervalUnion(((0, 0), (Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2))))))
@example((FinitePoints((0, Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(5, 12))),
          IntervalUnion(((0, 0), (Fraction(1, 4), Fraction(1, 4))))))
def test_sliding_first_fit_matches_the_range_slices_and_the_pair_loop(drawn):
    """The sliding-window first-fit gives the colors of the range-slice kernel
    it replaced and of the pair loop, on the lifts the partition builds."""
    S, H = drawn
    Q = H.difference_set()
    radius = max(abs(Q.inf), abs(Q.sup))
    D, ints, lifts, P, _ = _configuration(S, Q, radius)
    spans = lifts[: len(Q.intervals)]
    colors = _first_fit(ints, lifts)
    assert colors == range_slice_first_fit(ints, lifts)
    assert colors == pair_first_fit(ints, pair_membership(spans), spans[-1][1], P)


@settings(max_examples=60, deadline=None)
@given(
    partition_instances(),
    st.integers(1, 24),
    st.sampled_from((1, 2, 3, 4, 6)),
    st.lists(st.integers(0, 47), max_size=6),
    st.integers(1, 12),
)
@example(SEAM, 24, 3, [0, 5], 7)
def test_int_class_reduction_matches_fraction_reduction(drawn, base, k, offsets, D):
    """Each periodic class of the partition, and the int reduction of a
    k-fold symmetric set, equal the Fraction reduction of their members;
    each class built by the trusted constructors equals the same class built
    by the validating ones."""
    S, H = drawn
    part = partition_by_coloring(S, H)
    radius = max(abs(part.Q.inf), abs(part.Q.sup))
    D_S, ints, lifts, P, _ = _configuration(S, part.Q, radius)
    points = [Fraction(x, D_S) for x in ints]
    colors = _first_fit(ints, lifts)
    for j, cl in enumerate(part.classes):
        members = tuple(q for q, c in zip(points, colors) if c == j)
        if P is None:
            assert cl == FinitePoints(members) and cl.points == members
        else:
            assert cl == fraction_reduced(PeriodicPoints(Fraction(P, D_S), members))
            assert all(type(r) is Fraction for r in (cl.period, *cl.residues))
            rebuilt = PeriodicPoints(cl.period, cl.residues)
            assert (rebuilt.period, rebuilt.residues) == (cl.period, cl.residues)
    xs = sorted({x % base + i * base for x in offsets for i in range(k)})
    fractions = PeriodicPoints(Fraction(base * k, D), tuple(Fraction(x, D) for x in xs))
    assert _periodic_classes([xs], base * k, D) == (fraction_reduced(fractions),)


# ---------------------------------------------------------------------------
# the int classes, the densest class by count and the int line greedy against
# the Fraction path they replaced (tests/oracles.py)


def outcome(f, *args):
    """(result, its report bytes), or (error type, message) when f refuses."""
    try:
        result = f(*args)
    except (PreconditionError, VerificationError) as exc:
        return type(exc), str(exc)
    return result, canonical_json(to_jsonable(result))


# six classes on the coloring circle 3, of minimal periods 3 and 3/2; the
# classes 1, 2 and 4 tie for the densest
MIXED_PERIODS = (PeriodicPoints(1, (0, Fraction(1, 12), Fraction(7, 12))),
                 IntervalUnion.closed(0, Fraction(17, 12)))
# a finite S whose largest first-fit class is class 1; every class has
# density 0, so the first densest class is class 0
FINITE_LARGEST_LATER = (
    FinitePoints((Fraction(1, 4), Fraction(17, 12), Fraction(13, 6))),
    IntervalUnion(((0, Fraction(47, 576)), (Fraction(235, 192), Fraction(47, 24)))),
)


@settings(max_examples=60, deadline=None)
@given(partition_instances())
@example(SEAM)
@example(MIXED_PERIODS)
@example(FINITE_LARGEST_LATER)
def test_int_partition_matches_the_fraction_partition(drawn):
    S, H = drawn
    part, j = _partition(S, H, R)
    expected, expected_j = fraction_class_partition(S, H, R)
    assert part == expected and j == expected_j
    assert canonical_json(to_jsonable(part)) == canonical_json(to_jsonable(expected))
    assert all(type(d) is Fraction for d in part.class_densities)


@st.composite
def pipeline_instances(draw):
    """(S, group, epsilon, H): a configuration of partition_instances (the
    pipeline refuses all but the periodic ones), epsilon in 1/2 .. 1/8, and
    its H, or None for the auto-constructed one."""
    S, H = draw(partition_instances())
    epsilon = Fraction(1, draw(st.sampled_from((2, 3, 4, 8))))
    return S, R, epsilon, H if draw(st.booleans()) else None


@settings(max_examples=25, deadline=None)
@given(pipeline_instances())
@example((PeriodicPoints(1, (0,)), R, Fraction(1, 64), None))
@example((PeriodicPoints(Fraction(5, 4), (0, Fraction(1, 2))), R, Fraction(1, 16), None))
@example((*MIXED_PERIODS[:1], R, Fraction(1, 2), MIXED_PERIODS[1]))
@example((PeriodicPoints(1, (0, Fraction(1, 3))), R, Fraction(1, 2),
          IntervalUnion.closed(0, Fraction(2, 5))))
def test_int_pipeline_matches_the_fraction_pipeline(drawn):
    got, expected = outcome(syndetic_pipeline, *drawn), outcome(fraction_pipeline, *drawn)
    assert got == expected


@st.composite
def line_patterns(draw):
    """A periodic pattern of zero to three intervals with 24ths of the period
    as ends, shifted by up to one period (so it may wrap)."""
    period = draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 7))))
    cuts = sorted(draw(st.lists(st.integers(0, 24), max_size=6, unique=True)))
    shift = period * draw(st.integers(0, 23)) / 24
    cuts = [period * c / 24 + shift for c in cuts[: len(cuts) // 2 * 2]]
    return PeriodicPattern(period, IntervalUnion(tuple(zip(cuts[::2], cuts[1::2]))))


@settings(max_examples=80, deadline=None)
@given(line_patterns())
# 16 translates in 16ths while the pattern is in 24ths: each midpoint of a
# gap of odd length halves the unit
@example(PeriodicPattern(1, IntervalUnion.closed(0, Fraction(1, 24))))
def test_int_line_greedy_matches_the_fraction_greedy(A):
    assert outcome(greedy_translates, A, R) == outcome(fraction_greedy_pattern, A, R)


@settings(max_examples=80, deadline=None)
@given(line_patterns(), st.lists(st.integers(0, 95), max_size=2), st.booleans())
# A - A = [0, 1/4] u [3/4, 1] and B = 0, 1/2, 1/4: the first pair, (0, 1/4),
# differs by 3/4, the left end of an interval of A - A
@example(PeriodicPattern(1, IntervalUnion.closed(0, Fraction(1, 4))), [24], False)
def test_int_cover_reverification_matches_the_fraction_one(A, extra, drop):
    """On the greedy's translates, with one dropped or up to two added (so
    each verdict occurs), the int re-verification gives the Fraction
    verdict, and the same first pair on a packing fault."""
    if A.density == 0:
        return
    D = A.difference_set()
    B = list(greedy_translates(A, R).translates)
    B = B[1:] if drop else B + [A.period * k / 96 for k in extra]
    m = 2 * len(D.pattern.intervals)
    E, (p, *ints) = common_scale((A.period, *D.pattern.endpoints(), *B))
    fault = _pattern_cover_fault(list(zip(ints[:m:2], ints[1:m:2])), p, ints[m:])
    if isinstance(fault, tuple):
        fault = tuple(Fraction(x, E) for x in fault)
    assert fault == fraction_pattern_cover_fault(D, B)


def test_the_partition_counts_its_lift_before_building_it():
    # 100 residues on the period 1, lifted onto 20,001 copies for H = [0, 10^4]:
    # 2,000,100 points over 2^20, refused before the lift exists
    S = PeriodicPoints(1, [Fraction(k, 100) for k in range(100)])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="lift onto the enlarged period: 2000100 points"):
            partition_by_coloring(S, IntervalUnion.closed(0, 10**4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
