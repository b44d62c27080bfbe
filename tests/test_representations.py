"""Metamorphic relations between representations of one line configuration.

The lattice pZ written as PeriodicPoints(p, (0,)), as a bare
PerturbedLattice(p), as a PerturbedLattice with one lattice point removed
and put back as an extra, and as a FinitePoints window of it must give the
same counting density, shift suprema, difference sets and partition
classes. A translate of a configuration, finite, periodic or a perturbed
lattice, has the shift suprema of the configuration it translates."""

from fractions import Fraction
from math import floor

from hypothesis import given, settings, strategies as st

from density_lab import (
    Counting,
    FinitePoints,
    IntervalUnion,
    PeriodicPoints,
    PerturbedLattice,
    RealLine,
    counting_density,
    difference_set,
    partition_by_coloring,
    real_mass,
    real_shift_sup,
    translate_set,
)
from oracles import difference_marker, fraction_difference_set

R = RealLine()
steps = st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)))
thirds = st.integers(-12, 12).map(lambda n: Fraction(n, 3))


@settings(max_examples=30, deadline=None)
@given(steps, st.integers(-4, 4), st.integers(0, 8), st.integers(0, 4))
def test_one_lattice_in_every_held_form(p, k, length, width):
    h = Fraction(length, 3)
    K = IntervalUnion.closed(0, h)
    forms = {
        "periodic": PeriodicPoints(p, (0,)),
        "lattice": PerturbedLattice(p),
        "patched": PerturbedLattice(p, extra=(k * p,), removed=(k * p,)),
    }
    w = width * p  # the difference-set window [-w, w]
    L = h + w + (abs(k) + 2) * p  # the finite window [-L, L] holds both
    finite = FinitePoints(forms["periodic"].materialize(-L, L))
    assert len(finite.points) == 2 * floor(L / p) + 1

    # counting density
    for s in forms.values():
        assert counting_density(s, R) == 1 / p
    assert counting_density(finite, R) == 0

    # shift suprema: one value; each least argmax is a maximizer, and the two
    # forms with the same layers share theirs
    value = floor(h / p) + 1
    scans = {name: real_shift_sup(Counting(s), K) for name, s in forms.items()}
    scans["finite"] = real_shift_sup(Counting(finite), K)
    for name, scan in scans.items():
        s = finite if name == "finite" else forms[name]
        assert scan.value == value
        assert real_mass(Counting(s), K.translate(scan.argmax)) == value
    assert scans["lattice"].argmax == scans["periodic"].argmax

    # S - S within [-w, w] is pZ there
    want = forms["periodic"].materialize(-w, w)
    assert difference_set(forms["periodic"], R).materialize(-w, w) == want
    for name in ("lattice", "patched"):
        d = difference_set(forms[name], R)
        assert d.materialize(-w, w) == fraction_difference_set(forms[name], (-w, w)) == want
        assert d.accumulation == difference_marker(forms[name]) == ()
    assert tuple(d for d in difference_set(finite, R).points if -w <= d <= w) == want

    # partition classes: a perturbed lattice is colored as the FinitePoints
    # window around its perturbation; the periodic classes tile the lattice
    patched = forms["patched"]
    around = FinitePoints(patched.materialize((k - 2) * p, (k + 2) * p))
    got = partition_by_coloring(patched, K)
    assert got.classes == partition_by_coloring(around, K).classes
    periodic = partition_by_coloring(forms["periodic"], K)
    assert periodic.k_bound == 2 * floor(h / p) + 1
    assert got.k_bound == min(periodic.k_bound, 5)
    period = periodic.period
    tiled = sorted(q for c in periodic.classes for q in c.materialize(0, period - p))
    assert tiled == list(forms["periodic"].materialize(0, period - p))


@settings(max_examples=30, deadline=None)
@given(
    steps,
    st.lists(thirds, min_size=1, max_size=4),
    thirds,
    st.integers(0, 6),
)
def test_a_translate_keeps_the_shift_suprema(p, points, t, length):
    K = IntervalUnion.closed(0, Fraction(length, 3))
    finite = FinitePoints(tuple(points))
    off = tuple(q for q in points if (q / p).denominator != 1)
    patched = PerturbedLattice(p, off, (p, -2 * p))
    for s in (PeriodicPoints(p, tuple(points)), finite, patched):
        moved = translate_set(s, t, R)
        assert real_shift_sup(Counting(moved), K).value == real_shift_sup(Counting(s), K).value
    # a finite configuration's least argmax moves with it
    assert (real_shift_sup(Counting(translate_set(finite, t, R)), K).argmax
            == real_shift_sup(Counting(finite), K).argmax + t)
