"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
All comparisons are exact rational arithmetic unless a tolerance is stated.
"""

import random
import time
from fractions import Fraction

import pytest

from density_lab import (
    Counting,
    CustomK,
    DiracAtZero,
    EstimationParams,
    ExplicitFinite,
    FinitePoints,
    HaarTrace,
    IntervalUnion,
    IntervalWindow,
    PeriodicDiscrete,
    PeriodicPattern,
    PeriodicPoints,
    PreconditionError,
    RealLine,
    ZLattice,
    all_finite_abelian_up_to,
    auto_H,
    auud_window,
    delta_density,
    difference_set,
    gap_analysis,
    greedy_translates,
    kahane_density_finite_group,
    oracle_counting_sweep,
    packing_bound_check,
    partition_by_coloring,
    subadditivity_check,
    syndetic_pipeline,
    window_density_profile,
    window_profile_schedule,
)
from density_lab.cli import main as cli_main
from oracles import min_positive_difference

R = RealLine()
Z = ZLattice(1)


def _pass(number: int, message: str):
    print(f"\n[PASS] criterion {number}: {message}")


# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    """Brute force over all nonempty (C, V) returns exactly |A|/|G| for every
    subset of every abelian group of order <= 8 (all moduli presentations)."""
    t0 = time.time()
    groups = all_finite_abelian_up_to(8)
    total_subsets = 0
    for group in groups:
        mismatches, size = oracle_counting_sweep(group)
        assert mismatches == [], f"oracle mismatch on {group.moduli}: {mismatches[0]}"
        total_subsets += size
    elapsed = time.time() - t0
    assert elapsed <= 300, f"runtime {elapsed:.1f}s exceeds 5 minutes"
    _pass(1, f"{len(groups)} groups, {total_subsets} subsets, exact equality, {elapsed:.1f}s")


def test_criterion_02_delta_equals_kahane_on_discrete():
    """Finite-test-set density = compact-test-set density exactly on 500
    random discrete instances, and dominates it wherever both are computed."""
    rng = random.Random(20240202)
    groups = all_finite_abelian_up_to(8)
    checked = 0
    for _ in range(250):
        G = rng.choice(groups)
        elems = G.elements()
        a = ExplicitFinite(tuple(rng.sample(elems, rng.randrange(0, len(elems) + 1))))
        nu = Counting(a)
        dv = delta_density(nu, G).value
        kv = kahane_density_finite_group(nu, G).value
        assert dv == kv
        checked += 1
    for _ in range(250):
        m = rng.randrange(2, 25)
        a = PeriodicDiscrete.line(m, sorted(rng.sample(range(m), rng.randrange(0, m + 1))))
        nu = Counting(a)
        dv = delta_density(nu, Z).value
        kv = auud_window(nu, Z).value
        assert dv == kv
        checked += 1
    # domination on instances where both are computed (line instances included)
    line_cases = [
        Counting(PeriodicPoints(2, (0,))),
        HaarTrace(PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))])),
        DiracAtZero(),
    ]
    for nu in line_cases:
        dv = delta_density(nu, R).value
        kv = auud_window(nu, R).value
        if isinstance(dv, Fraction):
            assert dv >= kv
    _pass(2, f"{checked} discrete instances with exact equality, domination holds")


def test_criterion_03_window_shape_independence():
    """50 random periodic patterns, 3 unit-measure window shapes: the window
    profile schedule stops before k_max, and its last ratios lie within 1/100
    of the exact density and 2/1000 of each other."""
    t0 = time.time()
    rng = random.Random(555)
    shapes = [
        CustomK(IntervalUnion.closed(0, 1)),
        CustomK(IntervalUnion.closed(Fraction(-1, 2), Fraction(1, 2))),
        CustomK(IntervalUnion(((Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(5, 4))))),
    ]
    for i in range(50):
        period = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
        pieces = []
        cursor = Fraction(0)
        for _ in range(rng.randrange(1, 4)):
            gap = period * Fraction(rng.randrange(0, 8), 48)
            width = period * Fraction(rng.randrange(1, 8), 48)
            if cursor + gap + width >= period:
                break
            pieces.append((cursor + gap, cursor + gap + width))
            cursor += gap + width
        if not pieces:
            pieces = [(Fraction(0), period / 3)]
        pattern = PeriodicPattern(period, IntervalUnion(tuple(pieces)))
        nu = HaarTrace(pattern)
        exact = pattern.density
        finals = []
        for K in shapes:
            assert auud_window(nu, R).value == exact
            params = EstimationParams(tol=Fraction(1, 1000), r0=period, k_max=12)
            rows = window_profile_schedule(nu, R, K, params)
            last_r, last_ratio, _ = rows[-1]
            assert last_r <= 2**12 * period
            assert len(rows) < 13, f"pattern {i} did not stop before k_max"
            assert abs(last_ratio - exact) <= Fraction(1, 100)
            finals.append(last_ratio)
        for a in finals:
            for b in finals:
                assert abs(a - b) <= Fraction(2, 1000)
    elapsed = time.time() - t0
    assert elapsed <= 120, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _pass(3, f"50 patterns x 3 shapes agree with the exact density, {elapsed:.1f}s")


def test_criterion_04_greedy_translate_bound():
    """A - A + B = G and #B <= floor(1/density) on 500 random periodic subsets
    of Z (period <= 24) and on every subset of every group of order <= 8."""
    rng = random.Random(777)
    violations = 0
    for _ in range(500):
        m = rng.randrange(2, 25)
        res = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        a = PeriodicDiscrete.line(m, res)
        cover = greedy_translates(a, Z)
        assert cover.verified_cover and cover.verified_packing
        if cover.size > cover.size_bound:
            violations += 1
    subsets = 0
    for G in all_finite_abelian_up_to(8):
        elems = G.elements()
        for mask in range(1, 1 << len(elems)):
            a = ExplicitFinite(tuple(e for i, e in enumerate(elems) if mask >> i & 1))
            cover = greedy_translates(a, G)
            assert cover.verified_cover and cover.verified_packing
            if cover.size > cover.size_bound:
                violations += 1
            subsets += 1
    assert violations == 0
    golden = greedy_translates(PeriodicDiscrete.line(3, [0]), Z)
    assert golden.translates == ((0,), (1,), (2,))
    _pass(4, f"500 periodic subsets + {subsets} finite-group subsets, zero violations")


def test_criterion_05_packing_bound():
    """10^4 randomized (S, H) pairs with verified packing never violate
    mu(H) <= 1/density; the boundary pair is split by 10^-6."""
    rng = random.Random(4242)
    trials = 0
    while trials < 10**4:
        period = Fraction(rng.randrange(1, 10), rng.randrange(1, 5))
        k = rng.randrange(1, 5)
        residues = tuple(sorted({period * Fraction(rng.randrange(0, 40), 40) for _ in range(k)}))
        s = PeriodicPoints(period, residues)
        gap = min_positive_difference(s)
        h_len = gap * Fraction(rng.randrange(1, 32), 32)
        if h_len >= gap:
            continue
        check = packing_bound_check(s, IntervalUnion.closed(0, h_len))
        assert check.mu_H <= check.bound
        trials += 1
    eps = Fraction(1, 10**6)
    ok = packing_bound_check(PeriodicPoints(2, (0,)), IntervalUnion.closed(0, 2 - eps))
    assert ok.slack == eps
    with pytest.raises(PreconditionError, match="packing condition fails"):
        packing_bound_check(PeriodicPoints(2, (0,)), IntervalUnion.closed(0, 2))
    _pass(5, "10^4 packed pairs respect mu(H) <= 1/density; boundary split at 10^-6")


def test_criterion_06_partition_suite():
    """Perturbed-lattice partition suite: the two-residue instance and the
    truncated reciprocal perturbation split into exactly 2 classes, every
    partition re-verifies, and auto-H at eps = 1/2 certifies
    n <= (3/2) rho mu(H - H)."""
    two = PeriodicPoints(1, (0, Fraction(1, 3)))
    part = partition_by_coloring(two, IntervalUnion.closed(0, Fraction(2, 5)))
    assert part.n == 2
    pts = sorted(
        [Fraction(n) for n in range(2, 51)] + [Fraction(n * n + 1, n) for n in range(2, 51)]
    )
    trunc = FinitePoints(tuple(pts))
    part2 = partition_by_coloring(trunc, IntervalUnion.closed(0, Fraction(1, 4)))
    assert part2.n == 2
    suite = [
        (two, IntervalUnion.closed(0, Fraction(1, 5)), 1),
        (PeriodicPoints(2, (0,)), IntervalUnion.closed(0, Fraction(1, 2)), 1),
        (PeriodicPoints(Fraction(1, 2), (0,)), IntervalUnion.closed(0, Fraction(3, 4)), 2),
        (PeriodicPoints(1, (0, Fraction(1, 2))), IntervalUnion.closed(0, Fraction(3, 5)), 2),
    ]
    for s, h, expected in suite:
        p = partition_by_coloring(s, h)  # re-verifies internally
        assert p.n == expected
    eps = Fraction(1, 2)
    for s in (two, PeriodicPoints(2, (0,)), PeriodicPoints(1, (0,)),
              PeriodicPoints(Fraction(3, 2), (0, Fraction(1, 2), Fraction(1,)))):
        ah = auto_H(s, eps)
        p = partition_by_coloring(s, ah.H)
        rho = s.counting_density
        assert p.n <= Fraction(3, 2) * rho * ah.Q.length
    _pass(6, "golden class counts, all partitions re-verified, auto-H class bound holds")


def test_criterion_07_subadditivity():
    """Zero violations of density(sum) <= sum(densities) on 10^3 exact
    finite-group partitions and 10^2 periodic-Z partitions."""
    rng = random.Random(90210)
    groups = all_finite_abelian_up_to(8)
    for _ in range(10**3):
        G = rng.choice(groups)
        elems = G.elements()
        rng.shuffle(elems)
        n_parts = rng.randrange(1, min(4, len(elems) + 1))
        cuts = sorted(rng.sample(range(len(elems) + 1), n_parts - 1)) + [len(elems)]
        parts, lo = [], 0
        for hi in cuts:
            parts.append(Counting(ExplicitFinite(tuple(elems[lo:hi]))))
            lo = hi
        check = subadditivity_check(parts, G)
        assert check.slack >= 0
    for _ in range(10**2):
        m = rng.randrange(2, 20)
        cells = list(range(m))
        rng.shuffle(cells)
        n_parts = rng.randrange(1, 4)
        cuts = sorted(rng.sample(range(m + 1), n_parts - 1)) + [m]
        parts, lo = [], 0
        for hi in cuts:
            parts.append(Counting(PeriodicDiscrete.line(m, sorted(cells[lo:hi]))))
            lo = hi
        check = subadditivity_check(parts, Z)
        assert check.slack >= 0
    _pass(7, "10^3 finite-group + 10^2 periodic-Z partitions, zero violations")


def test_criterion_08_totik_gap():
    """The unit mass at 0: the finite-test-set lower-bound schedule passes
    10^6 (eta = 10^-6) while the window profile at r = 10^6 is <= 10^-6."""
    delta = delta_density(DiracAtZero(), R)
    assert delta.is_infinite
    _, point, weight, schedule, _ = delta.value.certificate
    assert (Fraction(1, 10**6), Fraction(10**6)) in schedule
    assert max(bound for _, bound in schedule) > 10**6
    rows = window_density_profile(DiracAtZero(), R, IntervalWindow(), [Fraction(10**6)])
    assert rows[0][1] == Fraction(1, 2 * 10**6) <= Fraction(1, 10**6)
    _pass(8, "lower-bound schedule reaches 10^6 at eta=10^-6; window ratio at r=10^6 is 1/2000000")


PIPELINE_SUITE = [
    (PeriodicPoints(Fraction(1, 3), (0,)), Fraction(1, 12)),
    (PeriodicPoints(Fraction(1, 2), (0,)), Fraction(1, 8)),
    (PeriodicPoints(Fraction(2, 3), (0,)), Fraction(1, 6)),
    (PeriodicPoints(1, (0,)), Fraction(1, 4)),
    (PeriodicPoints(Fraction(3, 2), (0,)), Fraction(3, 8)),
    (PeriodicPoints(2, (0,)), Fraction(1, 2)),
    (PeriodicPoints(Fraction(5, 2), (0,)), Fraction(5, 8)),
    (PeriodicPoints(3, (0,)), Fraction(3, 4)),
    (PeriodicPoints(1, (0, Fraction(1, 3))), Fraction(1, 4)),
    (PeriodicPoints(1, (0, Fraction(1, 3))), Fraction(2, 5)),
    (PeriodicPoints(1, (0, Fraction(2, 5))), Fraction(1, 5)),
    (PeriodicPoints(1, (0, Fraction(1, 2))), Fraction(1, 4)),
    (PeriodicPoints(2, (0, Fraction(1, 2))), Fraction(1, 4)),
    (PeriodicPoints(2, (0, Fraction(2, 3))), Fraction(1, 3)),
    (PeriodicPoints(Fraction(3, 2), (0, Fraction(1, 2))), Fraction(1, 4)),
    (PeriodicPoints(1, (0, Fraction(1, 3), Fraction(2, 3))), Fraction(1, 8)),
    (PeriodicPoints(1, (0, Fraction(1, 4), Fraction(1, 2))), Fraction(1, 10)),
    (PeriodicPoints(2, (0, Fraction(1, 3), Fraction(1, 2))), Fraction(1, 12)),
    (PeriodicPoints(3, (0, 1, Fraction(3, 2))), Fraction(1, 4)),
    (PeriodicPoints(1, (0, Fraction(1, 5), Fraction(3, 5))), Fraction(1, 16)),
]


def test_criterion_09_pipeline_and_measure_bound():
    """20 periodic configurations: T = B + (H-H) makes (S_j - S_j) cover the
    line, and mu(T) <= (1 + eps) mu(H-H) / mu(H) at eps = 1/2, exactly.
    The accumulating instance exits with code 3."""
    eps = Fraction(1, 2)
    assert len(PIPELINE_SUITE) == 20
    for s, h_len in PIPELINE_SUITE:
        result = syndetic_pipeline(s, epsilon=eps, H=IntervalUnion.closed(0, h_len))
        assert result.covering_verified
        assert result.mu_T <= result.remark_bound, (s, h_len, result.mu_T, result.remark_bound)
        assert result.remark_bound == (1 + eps) * result.partition.Q.length / h_len
    code = cli_main(
        ["pipeline", "--instance", "instances/accumulation.json", "--object", "S"]
    )
    assert code == 3
    _pass(9, "20 pipelines cover with mu(T) within the measure bound; accumulation exits 3")


def test_criterion_10_gap_chain():
    """100 random periodic A in N with positive density: the maximal gap of
    (A - A) cap N minus 1 never exceeds max(B) from the greedy translate set."""
    rng = random.Random(1848)
    for _ in range(100):
        m = rng.randrange(2, 25)
        res = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
        a = PeriodicDiscrete.line(m, res)
        d = difference_set(a, Z)
        gaps = gap_analysis(d, Z)
        cover = greedy_translates(a, Z)
        max_b = max(b[0] for b in cover.translates)
        assert gaps.max_gap - 1 <= max_b, (m, res, gaps.max_gap, max_b)
    _pass(10, "100 random periodic sets: max gap - 1 <= max translate, zero violations")
