import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from density_lab import (
    CapExceededError,
    FiniteAbelian,
    PreconditionError,
    RealLine,
    ShapeMismatchError,
    SigmaFiniteChain,
    ZLattice,
    all_finite_abelian_up_to,
    moduli_factorizations,
)
from density_lab.groups import bits, mask_of
from oracles import subgroup_elements

rng = random.Random(42)


def test_modular_addition_example():
    G = FiniteAbelian((3, 6))
    assert G.add((1, 2), (2, 5)) == (0, 1)


def test_rational_addition_example():
    G = RealLine()
    assert G.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def test_negate_examples():
    G = FiniteAbelian((3, 6))
    assert G.negate((1, 2)) == (2, 4)
    assert G.negate((0, 0)) == (0, 0)
    assert RealLine().negate(Fraction(-5, 7)) == Fraction(5, 7)


def _random_element(G):
    if isinstance(G, FiniteAbelian):
        return tuple(rng.randrange(m) for m in G.moduli)
    if isinstance(G, ZLattice):
        return tuple(rng.randrange(-50, 50) for _ in range(G.dimension))
    if isinstance(G, RealLine):
        return Fraction(rng.randrange(-100, 100), rng.randrange(1, 30))
    return tuple(rng.randrange(m) for m in G.moduli[: rng.randrange(0, G.depth + 1)])


FAMILIES = [
    FiniteAbelian((3, 6)),
    FiniteAbelian((8,)),
    ZLattice(2),
    ZLattice(1),
    RealLine(),
    SigmaFiniteChain((2, 3, 2, 5)),
]


def test_identity_on_random_elements():
    for G in FAMILIES:
        zero = G.zero()
        for _ in range(100):
            g = G.check(_random_element(G))
            assert G.add(g, zero) == g


def test_group_axioms_random_triples():
    # associativity, commutativity, inverses on 10^3 triples per family
    for G in FAMILIES:
        for _ in range(1000):
            a, b, c = (G.check(_random_element(G)) for _ in range(3))
            assert G.add(G.add(a, b), c) == G.add(a, G.add(b, c))
            assert G.add(a, b) == G.add(b, a)
            assert G.add(a, G.negate(a)) == G.zero()


def test_enumerate_golden():
    assert FiniteAbelian((2, 2)).elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert FiniteAbelian((5,)).elements() == [(0,), (1,), (2,), (3,), (4,)]
    e = FiniteAbelian((2, 3)).elements()
    assert len(e) == 6 and e[0] == (0, 0) and e[-1] == (1, 2)


def test_enumerate_is_bijection():
    for G in all_finite_abelian_up_to(12):
        elems = G.elements()
        assert len(elems) == G.order
        assert len(set(elems)) == G.order


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        FiniteAbelian((2,) * 21).elements()  # 2^21 elements over Caps.enumeration


def test_real_arithmetic_is_exact_roundtrip():
    G = RealLine()
    for _ in range(200):
        g = G.check(_random_element(G))
        h = G.check(_random_element(G))
        assert G.add(G.add(g, h), G.negate(h)) == g


def test_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        FiniteAbelian((3, 6)).add((1, 2), (1,))
    with pytest.raises(ShapeMismatchError):
        FiniteAbelian((3,)).check((5,))
    with pytest.raises(ShapeMismatchError):
        SigmaFiniteChain((2, 2)).check((0, 0, 1))


def test_moduli_factorizations():
    assert moduli_factorizations(1) == [()]
    assert moduli_factorizations(8) == [(2, 2, 2), (2, 4), (8,)]
    assert moduli_factorizations(6) == [(2, 3), (6,)]
    assert moduli_factorizations(12) == [(2, 2, 3), (2, 6), (3, 4), (12,)]
    for n in range(1, 13):
        for moduli in moduli_factorizations(n):
            prod = 1
            for m in moduli:
                prod *= m
            assert prod == n


def test_all_groups_up_to_8():
    groups = all_finite_abelian_up_to(8)
    # orders 1..8 with every presentation: 1+1+1+2+1+2+1+3
    assert len(groups) == 12
    assert FiniteAbelian(()) in groups


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_lattice_add_commutes(a, b):
    G = ZLattice(1)
    assert G.add((a,), (b,)) == G.add((b,), (a,))


def test_chain_subgroups():
    chain = SigmaFiniteChain((2, 3, 2))
    assert chain.subgroup_order(2) == 6
    assert chain.subgroup(2) == FiniteAbelian((2, 3))
    elems = subgroup_elements(chain, 2)
    assert len(elems) == 6 and elems[0] == ()
    assert chain.in_subgroup((0, 1), 2)
    assert not chain.in_subgroup((0, 0, 1), 2)
    assert chain.add((1, 2), (1, 1)) == ()  # coordinates wrap to zero and strip
    assert chain.add((1,), (0, 2)) == (1, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=3),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
)
def test_row_major_index_matches_elements(moduli, shift):
    G = FiniteAbelian(tuple(moduli))
    elems = G.elements()
    k = tuple(shift[: len(moduli)])
    table = G.translate(k)
    for i, e in enumerate(elems):
        assert G.index(e) == i and G.element(i) == e
        assert table[i] == elems.index(tuple((c + s) % m for c, s, m in zip(e, k, moduli)))
    # the entries at chosen indices are those of the full table
    at = list(range(len(elems)))[::-2]
    assert G._translate_at(k, at) == [table[i] for i in at]


def test_index_validates_and_modulus_one_is_trivial():
    G = FiniteAbelian((1, 3))
    assert G.order == 3 and G.elements() == [(0, 0), (0, 1), (0, 2)]
    assert G.translate((5, -1)) == [2, 0, 1]
    with pytest.raises(ShapeMismatchError):
        G.index((1, 0))
    with pytest.raises(PreconditionError):
        FiniteAbelian((0,))
    with pytest.raises(CapExceededError):
        FiniteAbelian((2,) * 21).translate((0,) * 21)  # 2^21 > Caps.enumeration


def test_strides_are_cached_outside_the_fields():
    G = FiniteAbelian((3, 1, 4))
    assert G.strides == (4, 4, 1) and G.strides is G.strides
    # a group whose strides were computed equals, hashes and prints as a fresh one
    H = FiniteAbelian((3, 1, 4))
    assert G == H and hash(G) == hash(H) and repr(G) == repr(H) == "FiniteAbelian(moduli=(3, 1, 4))"
    assert {G: 1}[H] == 1


def _shifted_by_table(G, mask, k):
    """The mask of X + k through translate's index table."""
    table = G.translate(k)
    return mask_of(table[i] for i in bits(mask))


def test_shift_matches_translate_on_every_small_group():
    local = random.Random(14)
    for G in all_finite_abelian_up_to(12):
        for k in G.elements():
            # the element itself, an unreduced and a negative representative
            for offset in (0, 2, -1):
                rep = tuple(c + offset * m for c, m in zip(k, G.moduli))
                mask = local.getrandbits(G.order)
                assert G.shift(mask, rep) == _shifted_by_table(G, mask, rep)
        assert G.shift((1 << G.order) - 1, G.zero()) == (1 << G.order) - 1


@st.composite
def masks_and_shifts(draw):
    """(G, mask, a, b): a presentation of order <= 12 or random moduli (1s
    included) of order <= 2000, a random mask, and two shifts whose
    coordinates may be zero, negative or unreduced."""
    if draw(st.booleans()):
        G = draw(st.sampled_from(all_finite_abelian_up_to(12)))
    else:
        moduli, order = [], 1
        for _ in range(draw(st.integers(0, 4))):
            moduli.append(draw(st.integers(1, 2000 // order)))
            order *= moduli[-1]
        G = FiniteAbelian(tuple(moduli))
    mask = draw(st.integers(0, (1 << G.order) - 1))
    shift = st.tuples(*[st.integers(-3 * m, 3 * m) for m in G.moduli])
    return G, mask, draw(shift), draw(shift)


@settings(max_examples=60, deadline=None)
@given(masks_and_shifts())
def test_shift_is_translate_on_masks(drawn):
    G, mask, a, b = drawn
    assert G.shift(mask, a) == _shifted_by_table(G, mask, a)
    assert G.shift(G.shift(mask, a), b) == G.shift(mask, tuple(x + y for x, y in zip(a, b)))
    assert G.shift(mask, a).bit_count() == mask.bit_count()


def test_bits_and_mask_of_are_inverse():
    assert bits(0) == [] and mask_of([]) == 0
    assert bits(0b101001) == [0, 3, 5] and mask_of([0, 3, 5]) == 0b101001
    big = mask_of(range(0, 3000, 7))
    assert bits(big) == list(range(0, 3000, 7))
