import random
from fractions import Fraction

import pytest

from density_lab import (
    AccumulationPoint,
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
        assert union.covers(0, p)


def test_greedy_two_dimensional_lattice():
    a = PeriodicDiscrete((2, 3), ((0, 0),))
    cover = greedy_translates(a, ZLattice(2))
    assert cover.size <= cover.size_bound == 6
    assert cover.verified_cover and cover.verified_packing
    # A - A = the period lattice itself, so B must hit every residue cell
    assert len(cover.translates) == 6


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
        gap = s.min_positive_difference()
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


def test_partition_perturbed_lattice_materializes():
    s = PerturbedLattice(1, extra=tuple(Fraction(n * n + 1, n) for n in range(4, 20)))
    part = partition_by_coloring(s, IntervalUnion.closed(0, Fraction(1, 4)))
    assert part.n == 2  # each n with 1/n <= 1/4 conflicts with its perturbation
    assert all(isinstance(c, FinitePoints) for c in part.classes)


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
    assert summed.covers_circle()


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
