"""The report layer against the code it replaced (tests/oracles.py): the
join-based writer against json.dumps(sort_keys=True, indent=2), the planned
to_jsonable against the isinstance walk, and the one-parse rat against the
two-parse one, on drawn inputs; and the refusals and fallbacks of the
instance printer, Infinite and frac_lcm."""

import collections
import enum
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    AccumulationPoint,
    FinitePoints,
    InstanceParseError,
    IntervalUnion,
    PeriodicPattern,
    PeriodicPoints,
    PerturbedLattice,
    RealLine,
    ZLattice,
    canonical_json,
    difference_set,
    instance_to_text,
    parse_instance,
    to_jsonable,
    translate_set,
)
from density_lab.instances import Instance
from density_lab.rational import INFINITE, Infinite, frac_lcm, rat
from oracles import encoder_canonical_json, isinstance_to_jsonable, two_parse_rat

R = RealLine()

# ---------------------------------------------------------------------------
# the writer

texts = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f \ud800')),
                max_size=6)
scalars = st.one_of(
    texts, st.integers(), st.integers(2**64 - 2, 2**70), st.booleans(), st.none(),
    st.floats(), st.sampled_from((-0.0, 1e-7, 1e22, 0.1, 2.5e-308)),
)
trees = st.recursive(scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=5),
    st.lists(kids, max_size=5).map(tuple),
    st.lists(texts, max_size=5),  # a list of strings: one C pass
    st.tuples(texts, kids),  # strings first, then anything: the pass falls back
    st.dictionaries(texts, kids, max_size=5),
), max_leaves=12)


@settings(max_examples=50, deadline=None)
@given(trees)
@example({"": [], "a": {}, "b": ()})
@example(["x", 1, ["y", None], ("z",)])
@example({"k": [-0.0, 1e-7, 1e22, float("nan"), float("inf"), -(2**64) - 1]})
def test_the_writer_prints_the_bytes_of_the_stdlib_encoder(tree):
    assert canonical_json(tree) == encoder_canonical_json(tree)


class Tag(str):
    pass


class Level(enum.IntEnum):
    HIGH = 7


class Ratio(Fraction):
    pass


Pair = collections.namedtuple("Pair", "a b")


def test_the_writer_encodes_subclasses_and_refuses_what_json_refuses():
    tree = {Tag("k"): [Tag("v"), Level.HIGH, 1.5], "n": (Level.HIGH, Tag("w"))}
    assert canonical_json(tree) == encoder_canonical_json(tree)
    for bad in ({"x": Fraction(1, 2)}, [1, {1, 2}]):
        with pytest.raises(TypeError):
            canonical_json(bad)
        with pytest.raises(TypeError):
            encoder_canonical_json(bad)


# ---------------------------------------------------------------------------
# to_jsonable

thirds = st.integers(-12, 12).map(lambda n: Fraction(n, 3))
steps = st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)))
markers = st.sampled_from(((), (AccumulationPoint(Fraction(0)),),
                           (AccumulationPoint(Fraction(1, 2), "both"),)))


def perturbed(step, extra, removed, acc):
    """A valid PerturbedLattice: removed points on the lattice, extras off it."""
    removed = [k * step for k in removed]
    return PerturbedLattice(step, [p for p in extra if (p / step).denominator != 1],
                            removed, acc)


configurations = st.one_of(
    st.builds(FinitePoints, st.lists(thirds, max_size=5), markers),
    st.builds(PeriodicPoints, steps, st.lists(thirds, max_size=3)),
    st.builds(perturbed, steps, st.lists(thirds, max_size=3),
              st.lists(st.integers(-3, 3), max_size=2), markers),
)
# the eventually periodic form comes of the sums and difference sets of these
held = st.one_of(
    configurations,
    configurations.map(lambda s: difference_set(s, R)),
    st.builds(lambda s, t: translate_set(s, t, R), configurations, thirds),
)
intervals = st.lists(st.tuples(thirds, thirds).map(sorted), max_size=3).map(
    lambda pairs: IntervalUnion([tuple(p) for p in pairs]))
patterns = st.builds(lambda a, w: PeriodicPattern.from_pairs(1, [(a, a + w)]),
                     st.integers(0, 5).map(lambda n: Fraction(n, 6)),
                     st.integers(0, 6).map(lambda n: Fraction(n, 6)))
leaves = st.one_of(held, intervals, patterns, thirds, st.integers(), st.booleans(), st.none(),
                   st.text(max_size=3), st.floats(allow_nan=False), st.builds(Tag, st.text()),
                   st.just(Level.HIGH), st.just(INFINITE), st.just(ZLattice(2)),
                   st.builds(Ratio, st.integers(-9, 9), st.integers(1, 9)),  # subclasses
                   st.builds(Pair, thirds, st.integers()))
objects = st.recursive(leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.builds(Infinite, kids),  # a certificate
    st.dictionaries(thirds, kids, max_size=3),  # keys of one type, as sorted() needs
    st.dictionaries(st.tuples(st.integers(-3, 3)), kids, max_size=3),
), max_leaves=12)


@pytest.mark.filterwarnings("ignore:difference set of an empty set")
@settings(max_examples=60, deadline=None)
@given(objects)
@example([Ratio(1, 2), Pair(Fraction(1, 3), Level.HIGH), {(0,): Infinite(("accumulation",))}])
def test_to_jsonable_matches_the_isinstance_walk(obj):
    got = to_jsonable(obj)
    want = isinstance_to_jsonable(obj)
    assert got == want and canonical_json(got) == encoder_canonical_json(want)


def test_to_jsonable_falls_back_to_repr():
    assert to_jsonable(0.5) == "0.5"
    assert to_jsonable({1, 2}) == "{1, 2}"
    assert to_jsonable(RealLine) == repr(RealLine)  # a dataclass class, not an instance


# ---------------------------------------------------------------------------
# rat

spaces = st.sampled_from(("", " ", "\t\n", " ", " ", "\x1c", "　"))
numerals = st.one_of(st.from_regex(r"0{0,3}[0-9]{1,6}", fullmatch=True),
                     st.sampled_from(("0", "00", "1" + "0" * 4999, "٣", "1_0", "")))
rational_texts = st.one_of(
    st.builds(lambda a, s, p, d, q, b: f"{a}{s}{p}{d}{q}{b}", spaces,
              st.sampled_from(("", "+", "-", "--", "+-")), numerals,
              st.sampled_from(("", "/", "/", " /", ".", "e")), numerals, spaces),
    st.text(max_size=8),
)


def outcome(parse, value):
    try:
        q = parse(value)
        return type(q), q
    except Exception as exc:  # noqa: BLE001 - compared, type and message
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_texts, st.integers(), st.booleans(), thirds, st.none(), st.floats()))
@example("1/0")
@example(" -007/0021 ")
@example("1" * 5000)
@example("1/" + "1" * 5000)
@example(" 1/2 ")
def test_rat_matches_the_two_parse_rat(value):
    assert outcome(rat, value) == outcome(two_parse_rat, value)


# ---------------------------------------------------------------------------
# refusals and fallbacks


def test_a_bad_element_is_refused():
    text = json.dumps({"group": {"family": "z_lattice", "dimension": 1},
                       "objects": {"S": {"kind": "explicit_finite", "elements": ["x"]}}})
    with pytest.raises(InstanceParseError, match="bad element: 'x'"):
        parse_instance(text)


def test_an_object_of_no_known_kind_cannot_be_printed():
    with pytest.raises(InstanceParseError, match="cannot serialize object"):
        instance_to_text(Instance(ZLattice(1), {"S": object()}, {}))


def test_infinite_is_immutable_and_every_one_is_equal():
    a, b = Infinite(("accumulation", 1)), Infinite()
    with pytest.raises(AttributeError, match="immutable"):
        a.certificate = None
    assert a == b == INFINITE and a != Fraction(1)
    assert len({hash(a), hash(b), hash(INFINITE)}) == 1


@pytest.mark.parametrize("a, b", [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1, 2))])
def test_frac_lcm_refuses_a_rational_at_most_0(a, b):
    with pytest.raises(ValueError, match="positive rationals"):
        frac_lcm(a, b)
