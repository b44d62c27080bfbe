"""The integer normal form that FinitePoints, PeriodicPoints and
PerturbedLattice hold from their constructors, against the Fraction
constructions, difference sets and serializations it replaced."""

import dataclasses
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    AccumulationPoint,
    CapExceededError,
    Counting,
    FinitePoints,
    IntervalUnion,
    PeriodicPoints,
    PerturbedLattice,
    RealLine,
    difference_set,
    real_mass,
    rat_str,
    to_jsonable,
)
from density_lab.instances import OBJECT
from density_lab.rational import common_scale
from density_lab.sets import _canonical
from density_lab.windows import _line_values, measure_layers
from oracles import fraction_difference_set

R = RealLine()
RECIPROCALS = [Fraction(1, n) for n in range(1, 41)]  # the 1/n shape: D has 54 bits
MARKER = (AccumulationPoint(Fraction(0)),)

# negative points, duplicates (few distinct values) and mixed denominators
rationals = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 6, 9, 10)))
point_lists = st.lists(rationals, max_size=8)
periods = st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(5, 6), Fraction(7)))


def perturbed(step, extra, removed, acc=()):
    """A valid PerturbedLattice: removed points on the lattice, extras off
    the surviving lattice points."""
    removed = [k * step for k in removed]
    extra = [p for p in extra if (p / step).denominator != 1 or p in removed]
    return PerturbedLattice(step, tuple(extra), tuple(removed), acc)


perturbed_lattices = st.builds(
    perturbed, periods, point_lists, st.lists(st.integers(-6, 6), max_size=3),
    st.sampled_from(((), MARKER)),
)


def fraction_jsonable(obj):
    """to_jsonable as it printed these configurations before: every Fraction
    field through str(Fraction)."""
    out = {"type": type(obj).__name__}
    for f in dataclasses.fields(obj):
        name, value = f.name, getattr(obj, f.name)
        if isinstance(value, Fraction):
            out[name] = str(value)
        elif value and isinstance(value[0], Fraction):
            out[name] = [str(q) for q in value]
        else:
            out[name] = to_jsonable(value)
    return out


def same_bytes(obj):
    """to_jsonable and the instance table print obj as the Fraction path does."""
    want = fraction_jsonable(obj)
    assert json.dumps(to_jsonable(obj), sort_keys=True) == json.dumps(want, sort_keys=True)
    table = OBJECT.dump(obj, R)
    for name, value in table.items():
        if name != "kind" and name != "accumulation":
            assert value == want[name]


@settings(max_examples=60, deadline=None)
@given(point_lists, st.booleans())
@example([], False)
@example([], True)  # a marker alone
@example([Fraction(-5, 3)], False)
@example(RECIPROCALS[::-1] + RECIPROCALS[:5], True)
def test_finite_points_hold_the_normal_form(points, accumulating):
    acc = MARKER if accumulating else ()
    s = FinitePoints(tuple(points), acc)
    assert s.points == tuple(sorted(set(points)))  # the constructor before
    assert (s._D, list(s._extra)) == common_scale(s.points)
    # from its ints, over a multiple of D, it is the same configuration
    t = _canonical(3 * s._D, None, (), [3 * x for x in s._extra], (), acc)
    assert (t._D, t._extra) == (s._D, s._extra)
    assert t == s and hash(t) == hash(s) and repr(t) == repr(s)
    same_bytes(s)
    if not s.points and not acc:
        return  # the empty set warns, and its difference set is itself
    d = difference_set(s, R)
    assert d == fraction_difference_set(s)
    assert (d._D, list(d._extra)) == common_scale(d.points)
    same_bytes(d)


@settings(max_examples=40, deadline=None)
@given(periods, point_lists)
@example(Fraction(1), RECIPROCALS)
def test_periodic_points_hold_the_normal_form(period, residues):
    s = PeriodicPoints(period, tuple(residues))
    assert s.residues == tuple(sorted({r % period for r in residues}))
    assert (s._D, [s._period, *s._residues]) == common_scale((s.period, *s.residues))
    t = _canonical(2 * s._D, 2 * s._period, [2 * x for x in s._residues])
    assert t == s and hash(t) == hash(s) and repr(t) == repr(s)
    assert s.counting_density == len(s.residues) / s.period
    same_bytes(s)
    if s.residues:
        d = difference_set(s, R)
        assert d == fraction_difference_set(s)
        assert (d._D, [d._period, *d._residues]) == common_scale((d.period, *d.residues))
        same_bytes(d)


@settings(max_examples=40, deadline=None)
@given(perturbed_lattices, rationals, st.integers(0, 12))
def test_perturbed_lattices_hold_the_normal_form(s, lo, width):
    assert (s._D, [s._period, *s._extra, *s._removed]) == common_scale(
        (s.step, *s.extra, *s.removed)
    )
    assert list(s.extra) == sorted(s.extra) and list(s.removed) == sorted(s.removed)
    same_bytes(s)
    window = (lo, lo + Fraction(width, 4))
    wd = difference_set(s, R, window=window)
    assert wd == fraction_difference_set(s, window)
    same_bytes(wd.points)


def test_negative_strings_are_reduced_by_their_own_gcd():
    """-1/2 over D = 6 is -3/6: its string divides by gcd(3, 6), not by
    anything the positives share."""
    d = difference_set(FinitePoints((Fraction(1, 3), Fraction(1, 2), Fraction(1))), R)
    assert to_jsonable(d)["points"] == [rat_str(q) for q in d.points] == [
        "-2/3", "-1/2", "-1/6", "0", "1/6", "1/2", "2/3"]


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.builds(FinitePoints, st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(tuple)),
        st.builds(PeriodicPoints, st.sampled_from((1, 2, 3)),
                  st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple)),
        st.builds(perturbed, periods, point_lists, st.lists(st.integers(-6, 6), max_size=3)),
    ),
    st.sampled_from((3, 4, 7, 12)),
    rationals,
)
def test_scan_rescales_held_ints_to_the_window(s, q, a):
    """A window whose denominator does not divide the configuration's D: each
    scan value is the Fraction mass real_mass gives at its candidate."""
    window = IntervalUnion.closed(a, a + Fraction(5, q))
    nu = Counting(s)
    D, Dw, cands, values = _line_values(measure_layers(nu, R)[0], window)
    assert D % q == 0
    every = len(cands) // 8 + 1
    for x, v in zip(cands[::every], values[::every]):
        assert real_mass(nu, window.translate(Fraction(x, D))) == Fraction(v, D * Dw)


def test_the_finite_line_difference_set_counts_its_half_pass_first():
    # 1,500 points (1,499 distinct): 1,122,751 differences over 2^20, refused
    # before any is built (the uncapped half pass took seconds and 0.7 GB)
    S = FinitePoints([Fraction(k, 7) + Fraction(1, k + 1) for k in range(1500)])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError,
                           match="finite line difference set: 1122751 pairs exceed"):
            difference_set(S, RealLine())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
