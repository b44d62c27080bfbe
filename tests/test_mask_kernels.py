"""The mask kernels on finite quotients (syndetic_check and the
minimum-cover instance, both on FiniteAbelian.shift) against the
index-table kernels they replaced, kept in oracles.py."""

import pytest
from hypothesis import given, settings, strategies as st

from density_lab import (
    ExplicitFinite,
    FiniteAbelian,
    PeriodicDiscrete,
    ZLattice,
    syndetic_check,
)
from density_lab.additive import _cover_instance
from oracles import cover_instance, syndetic_check_finite


@st.composite
def quotient_sets(draw):
    """(S, group, points): a periodic subset of Z or Z^2 (residues may be
    negative or unreduced) or an explicit subset of a finite group (moduli
    from 1); points draws translates."""
    kind = draw(st.sampled_from(("Z", "Z^2", "finite")))
    if kind == "finite":
        G = FiniteAbelian(tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
        point = st.sampled_from(G.elements())
        return ExplicitFinite(tuple(draw(st.lists(point, max_size=8)))), G, point
    d = 1 if kind == "Z" else 2
    period = tuple(draw(st.lists(st.integers(1, 40 if d == 1 else 7), min_size=d, max_size=d)))
    point = st.tuples(*[st.integers(-2 * m, 2 * m) for m in period])
    S = PeriodicDiscrete(period, tuple(draw(st.lists(point, max_size=8))))
    return S, ZLattice(d), point


@settings(max_examples=60, deadline=None)
@given(quotient_sets(), st.data())
def test_mask_syndetic_check_matches_translate_tables(drawn, data):
    S, group, point = drawn
    # an empty K, a few translates (mostly failing), or many (mostly covering)
    size = data.draw(st.sampled_from((0, 3, 40)))
    K = ExplicitFinite(tuple(data.draw(st.lists(point, max_size=size))))
    got, want = syndetic_check(S, K, group), syndetic_check_finite(S, K, group)
    assert got.translate_set == want.translate_set == K
    assert got.verified == want.verified
    assert got.covering_witness == want.covering_witness  # the map, or the least uncovered cell


def test_mask_syndetic_check_failing_and_empty_examples():
    S = PeriodicDiscrete.line(7, [0, 1])
    for K in (ExplicitFinite(()), ExplicitFinite(((0,), (-5,)))):
        got, want = syndetic_check(S, K, ZLattice(1)), syndetic_check_finite(S, K, ZLattice(1))
        assert not got.verified and got.covering_witness == want.covering_witness
    assert syndetic_check(S, ExplicitFinite(()), ZLattice(1)).covering_witness == (0,)
    assert syndetic_check(S, ExplicitFinite(((0,), (-5,))), ZLattice(1)).covering_witness == (4,)
    full = ExplicitFinite(tuple((2 * k,) for k in range(4)))
    assert syndetic_check(S, full, ZLattice(1)) == syndetic_check_finite(S, full, ZLattice(1))


@settings(max_examples=40, deadline=None)
@given(quotient_sets())
def test_mask_cover_instance_matches_translate_tables(drawn):
    S, group, _ = drawn
    cells, covers, lift = _cover_instance(S, group)
    assert (cells, covers, lift) == cover_instance(S, group)


@pytest.mark.parametrize("moduli", [(), (1,), (3, 1), (1, 1, 1)])
def test_mask_kernels_on_trivial_axes(moduli):
    G = FiniteAbelian(moduli)
    S = ExplicitFinite((G.zero(),))
    assert syndetic_check(S, ExplicitFinite((G.zero(),)), G) == syndetic_check_finite(
        S, ExplicitFinite((G.zero(),)), G
    )
    assert _cover_instance(S, G) == cover_instance(S, G)
