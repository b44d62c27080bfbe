"""The one held form of line configurations, ((R + PZ) minus M) union E:
its sum against the per-type branches and the pairwise sums it replaced,
its exact difference set with no window, the syndetic check on it, and the
refusals and caps of its sum and of its materialization."""

import json
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    AccumulationPoint,
    CapExceededError,
    EventuallyPeriodicPoints,
    FinitePoints,
    IntervalUnion,
    PeriodicPoints,
    PerturbedLattice,
    PreconditionError,
    RealLine,
    counting_density,
    difference_set,
    is_infinite,
    minkowski_sum,
    syndetic_check,
    to_jsonable,
    translate_set,
)
from density_lab.cli import main
from density_lab.instances import parse_instance
from density_lab.sets import _points_within
from oracles import (
    difference_marker,
    fraction_difference_set,
    fraction_syndetic_line,
    per_type_minkowski,
)

R = RealLine()
ZONE = 6  # every added or removed point lies in [-ZONE, ZONE]
steps = st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)))
thirds = st.integers(-3 * ZONE, 3 * ZONE).map(lambda n: Fraction(n, 3))


def perturbed(step, extra, removed):
    """A valid PerturbedLattice: removed points on the lattice, extras off
    the surviving lattice points (an extra may put a removed point back)."""
    removed = [k * step for k in removed]
    return PerturbedLattice(step, tuple(p for p in extra if (p / step).denominator != 1
                                        or p in removed), tuple(removed))


finite_points = st.builds(FinitePoints, st.lists(thirds, max_size=4).map(tuple))
periodic_points = st.builds(PeriodicPoints, steps, st.lists(thirds, max_size=3).map(tuple))
perturbed_lattices = st.builds(perturbed, steps, st.lists(thirds, max_size=3),
                               st.lists(st.integers(-3, 3), max_size=2))
configurations = st.one_of(finite_points, periodic_points, perturbed_lattices)

# S = (Z minus {0}) union {1/3}: S - S misses exactly -1/3 and 1/3 of its classes
THIRD = PerturbedLattice(1, extra=(Fraction(1, 3),), removed=(0,))


def window_sums(a, b, w):
    """The points of a + b in [-w, w], from the pairwise sums of a and b
    materialized in [-W, W]: a far point of either is a class point, and it
    can trade a multiple of the lcm period with the other point."""
    span = 4 * 6  # four lcm periods of any two drawn steps
    W = w + ZONE + span
    xs, ys = a.materialize(-W, W), b.materialize(-W, W)
    return sorted({x + y for x in xs
                   for y in ys[bisect_left(ys, -w - x):bisect_right(ys, w - x)]})


@settings(max_examples=60, deadline=None)
@given(st.one_of(finite_points, periodic_points), st.one_of(finite_points, periodic_points))
@example(PeriodicPoints(Fraction(3, 2), (0, Fraction(1, 3))), PeriodicPoints(2, (1,)))
@example(PeriodicPoints(1, ()), FinitePoints((Fraction(1, 2),)))
def test_sums_of_finite_and_periodic_points_match_the_per_type_branches(a, b):
    got = minkowski_sum(a, b, R)
    want = per_type_minkowski(a, b)
    assert got == want and type(got) is type(want)
    assert to_jsonable(got) == to_jsonable(want)


@settings(max_examples=60, deadline=None)
@given(configurations, configurations, st.integers(0, 6))
@example(THIRD, translate_set(THIRD, 0, R), 2)
def test_held_sums_match_the_pairwise_sums_in_a_window(a, b, w):
    s = minkowski_sum(a, b, R)
    assert list(s.materialize(-w, w)) == window_sums(a, b, w)
    assert s == minkowski_sum(b, a, R)
    assert counting_density(s, R) == (0 if s._period is None else
                                      Fraction(len(s._residues) * s._D, s._period))


@settings(max_examples=40, deadline=None)
@given(configurations, thirds)
@example(PerturbedLattice(1, extra=(Fraction(2),), removed=(Fraction(2),)), Fraction(1, 3))
def test_a_translate_has_the_difference_set_of_the_set_it_translates(s, t):
    moved = translate_set(s, t, R)
    assert list(moved.materialize(-3, 3)) == [q + t for q in s.materialize(-3 - t, 3 - t)]
    if s.materialize(-100, 100):
        assert difference_set(moved, R) == difference_set(s, R)


def test_the_difference_set_of_a_punctured_lattice_misses_two_points():
    d = difference_set(THIRD, R)
    assert type(d) is EventuallyPeriodicPoints
    assert (d.period, d.residues, d.extra, d.removed) == (
        1, (0, Fraction(1, 3), Fraction(2, 3)), (), (Fraction(-1, 3), Fraction(1, 3)))
    classes = PeriodicPoints(1, d.residues).materialize(-3, 3)
    windowed = d.materialize(-3, 3)
    assert sorted(set(classes) - set(windowed)) == [Fraction(-1, 3), Fraction(1, 3)]
    assert windowed == fraction_difference_set(THIRD, (-3, 3))
    assert d.accumulation == difference_marker(THIRD) == ()


def test_syndetic_check_looks_at_the_points_the_classes_do_not_show():
    d = difference_set(THIRD, R)
    short = IntervalUnion.closed(0, Fraction(1, 3))
    assert syndetic_check(PeriodicPoints(1, d.residues), short, R).verified  # the classes cover
    cert = syndetic_check(d, short, R)
    # by brute force, d + [0, 1/3] misses (-1/3, 0) and (1/3, 2/3) near the removed points
    near = d.materialize(-3, 3)
    covered = IntervalUnion(tuple((q, q + Fraction(1, 3)) for q in near))
    gaps = covered.complement_within(-2, 2).intervals
    assert gaps == ((Fraction(-1, 3), 0), (Fraction(1, 3), Fraction(2, 3)))
    assert not cert.verified and cert.covering_witness == Fraction(-1, 6)
    assert syndetic_check(d, IntervalUnion.closed(0, Fraction(2, 3)), R).verified


quarters = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
translate_sets = st.lists(st.tuples(st.one_of(thirds, quarters), st.sampled_from(
    (0, Fraction(1, 5), Fraction(1, 2), 1, Fraction(3, 2), 2))), min_size=1, max_size=2).map(
    lambda ps: IntervalUnion(tuple((a, a + n) for a, n in ps)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(periodic_points, perturbed_lattices,
                 perturbed_lattices.map(lambda s: difference_set(s, R))), translate_sets)
@example(difference_set(THIRD, R), IntervalUnion.closed(0, Fraction(1, 3)))
@example(difference_set(THIRD, R), IntervalUnion.closed(0, Fraction(2, 3)))
def test_the_int_zone_check_matches_the_fraction_zone_check(S, K):
    assert syndetic_check(S, K, R) == fraction_syndetic_line(S, K)


@pytest.mark.parametrize("s", [
    FinitePoints((0, 1)),
    PerturbedLattice(1, extra=(Fraction(1, 2),), accumulation=(AccumulationPoint(0),)),
])
def test_syndetic_check_still_refuses_a_set_without_a_period_or_with_a_marker(s):
    with pytest.raises(PreconditionError, match="line syndetic checks need a periodic S"):
        syndetic_check(s, IntervalUnion.closed(0, 1), R)


def _shipped_lattice():
    with open("instances/perturbed_lattice.json") as f:
        return parse_instance(f.read()).objects["nu"].of


def test_the_shipped_lattice_has_an_exact_difference_set_with_no_window():
    S = _shipped_lattice()
    d = difference_set(S, R)
    assert d.period == 1 and (len(d.residues), len(d.extra), d.removed) == (98, 2212, ())
    assert d.materialize(-60, 60) == fraction_difference_set(S, (-60, 60))
    assert d.accumulation == difference_marker(S)
    # the point counts of the windowed S - S at +-300 and +-600 before it was held
    D = d._D
    assert [len(_points_within(d, D, -w * D, w * D)) for w in (300, 600)] == [61013, 119813]
    assert syndetic_check(d, IntervalUnion.closed(0, 1), R).verified


def test_sums_refuse_an_accumulating_operand():
    A = FinitePoints(tuple(Fraction(1, n) for n in range(1, 20)),
                     accumulation=(AccumulationPoint(0, "above"),))
    assert is_infinite(counting_density(A, R))
    for a, b in ((A, FinitePoints((5,))), (PeriodicPoints(1, (0,)), A)):
        with pytest.raises(PreconditionError, match="accumulating configuration"):
            minkowski_sum(a, b, R)


def test_the_sum_counts_its_pairs_before_it_builds_them():
    # coprime periods: an lcm period of about 10^12 classes, never built
    a, b = PeriodicPoints(10**6, (0, 1)), PeriodicPoints(10**6 + 1, (0, 1))
    with pytest.raises(CapExceededError, match="Minkowski sum"):
        minkowski_sum(a, b, R)


def test_a_materialized_window_counts_its_points_before_it_builds_them():
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="materialized window: 1962310 points exceed"):
        difference_set(_shipped_lattice(), R).materialize(-10**4, 10**4)
    assert time.perf_counter() - start < 1


def _lattice_file(tmp_path):
    """An instance whose object is the shipped lattice itself, not a measure on it."""
    with open("instances/perturbed_lattice.json") as f:
        data = json.load(f)
    data["objects"] = {"S": data["objects"]["nu"]["of"]}
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_diffset_of_the_lattice_refuses_a_window_over_the_cap(tmp_path, capsys):
    # diffset prints S - S whole, so any --window is a usage error (exit 2)
    path = _lattice_file(tmp_path)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["diffset", "--instance", path, "--object", "S", "--window", "-10000", "10000"])
    assert exc.value.code == 2 and time.perf_counter() - start < 1
    assert "unrecognized arguments: --window -10000 10000" in capsys.readouterr().err


def test_diffset_of_the_lattice_is_exact_with_no_window(tmp_path, capsys):
    code = main(["diffset", "--instance", _lattice_file(tmp_path), "--object", "S"])
    out = capsys.readouterr().out
    assert code == 0 and "difference set of PerturbedLattice: EventuallyPeriodicPoints" in out
