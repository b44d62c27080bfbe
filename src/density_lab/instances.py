"""Instance files and report serialization.

Structured text (JSON), UTF-8, exact rationals as "p/q" strings. One table
describes every file: GROUP maps each group family and OBJECT each object
kind to a Record of typed fields, and PARAMS holds the `params` keys. A
field's spec is RATIONAL, INTEGER, an Array of a spec (PAIR: two entries), a
group ELEMENT, an Enum, a nested Record or OBJECT itself; an optional field
takes its constructor's default. One parser (`spec.parse`) and one printer
(`spec.dump`) walk the table, so parse -> print -> parse is the identity on
every valid file. A value of the wrong JSON type (a string is never a list),
an unknown or missing field, or an unknown family or kind raises
InstanceParseError. `params` are typed at load time (`k_max` an int, `tol`,
`r0`, `epsilon` Fractions, `window` a pair); range checks (a positive period,
r0 > 0) stay with the constructors and the CLI.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import sets
from .errors import InstanceParseError
from .groups import FiniteAbelian, GroupSpec, RealLine, SigmaFiniteChain, ZLattice
from .intervals import IntervalUnion, PeriodicPattern
from .rational import is_infinite, rat, rat_str, ratio_strs


@dataclass(frozen=True)
class Instance:
    group: GroupSpec
    objects: dict
    params: dict


def _int(value) -> int:
    """An integer field: what rat accepts, when its denominator is 1; bools
    and floats are rejected, as rat rejects them."""
    q = rat(value)
    if q.denominator != 1:
        raise InstanceParseError(f"not an integer: {value!r}")
    return q.numerator


# ---------------------------------------------------------------------------
# field specs: parse(value, group) reads a JSON value and dump(obj, group)
# writes it back; the group decides what an ELEMENT is


class Scalar:
    def __init__(self, parse, dump=lambda x: x):
        self.parse_value, self.dump_value = parse, dump

    def parse(self, value, group):
        return self.parse_value(value)

    def dump(self, x, group):
        return self.dump_value(x)


class Enum(Scalar):
    def __init__(self, *values):
        super().__init__(self.check)
        self.values = values

    def check(self, value):
        if isinstance(value, str) and value in self.values:
            return value
        raise InstanceParseError(f"expected one of {', '.join(self.values)}, got {value!r}")


class Element:
    """A group element: a rational on the real line, else a JSON array of
    integers (or one bare JSON integer)."""

    def parse(self, value, group):
        if isinstance(group, RealLine):
            return rat(value)
        if type(value) is int:
            return (value,)
        if isinstance(value, list):
            return INTEGERS.parse(value, group)
        raise InstanceParseError(f"bad element: {value!r}")

    def dump(self, e, group):
        return rat_str(e) if isinstance(group, RealLine) else list(e)


class Array:
    """A JSON array of one spec, read as a tuple; `length` fixes its size."""

    def __init__(self, item, length=None):
        self.item, self.length = item, length

    def parse(self, value, group):
        if not isinstance(value, list) or self.length not in (None, len(value)):
            size = "" if self.length is None else f" of {self.length}"
            raise InstanceParseError(f"not a JSON array{size}: {value!r}")
        return tuple(self.item.parse(x, group) for x in value)

    def dump(self, items, group):
        return [self.item.dump(x, group) for x in items]


class Wrapped:
    """A spec's value wrapped as cls(value), printed from its attribute attr."""

    def __init__(self, spec, cls, attr):
        self.spec, self.cls, self.attr = spec, cls, attr

    def parse(self, value, group):
        return self.cls(self.spec.parse(value, group))

    def dump(self, obj, group):
        return self.spec.dump(getattr(obj, self.attr), group)


class Named:
    """A JSON object from names to objects (an instance's objects)."""

    def parse(self, value, group):
        _check_object(value, "objects")
        return {name: OBJECT.parse(v, group) for name, v in value.items()}

    def dump(self, objects, group):
        return {name: OBJECT.dump(obj, group) for name, obj in objects.items()}


# when a field may be absent: a REQUIRED one never; an OPTIONAL one takes the
# constructor's default and is always printed; a SPARSE one is printed only
# when not empty; an INPUT one is read and never printed (a chain's depth)
REQUIRED, OPTIONAL, SPARSE, INPUT = "required", "optional", "sparse", "input"


@dataclass(frozen=True)
class Field:
    spec: Any
    presence: str = REQUIRED


def _check_object(value, what):
    if not isinstance(value, dict):
        raise InstanceParseError(f"{what} must be an object, got {type(value).__name__}")


def _check_keys(value, fields: dict, what):
    _check_object(value, what)
    unknown = set(value) - set(fields)
    if unknown:
        raise InstanceParseError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = {name for name, f in fields.items() if f.presence == REQUIRED} - set(value)
    if missing:
        raise InstanceParseError(f"missing fields in {what}: {sorted(missing)}")


class Record:
    """A JSON object with fixed fields (a spec, or a Field for one that may be
    absent), built as build(**fields present) and printed from the attributes
    of a cls value (the entries of a tuple, the items of a dict)."""

    def __init__(self, cls, build=None, what=None, **fields):
        self.cls, self.build, self.what = cls, build or cls, what
        self.fields = {k: f if isinstance(f, Field) else Field(f) for k, f in fields.items()}

    def parse(self, value, group, what=None):
        _check_keys(value, self.fields, what or self.what)
        return self.build(**{k: f.spec.parse(value[k], group)
                             for k, f in self.fields.items() if k in value})

    def dump(self, obj, group):
        shown = {k: f for k, f in self.fields.items() if f.presence != INPUT}
        if isinstance(obj, tuple):
            obj = dict(zip(shown, obj))
        elif not isinstance(obj, dict):
            obj = {k: getattr(obj, k) for k in shown}
        return {k: f.spec.dump(obj[k], group) for k, f in shown.items()
                if k in obj and (obj[k] or f.presence != SPARSE)}


class Tagged:
    """One of several records, told apart by the string under `tag`."""

    def __init__(self, what, tag, **kinds):
        self.what, self.tag, self.kinds = what, tag, kinds  # tag value -> Record

    def parse(self, value, group):
        _check_object(value, self.what)
        if self.tag not in value:
            raise InstanceParseError(f"missing fields in {self.what}: {[self.tag]}")
        name = value[self.tag]
        record = self.kinds.get(name) if isinstance(name, str) else None
        if record is None:
            raise InstanceParseError(f"unknown {self.what} {self.tag}: {name!r}")
        rest = {k: v for k, v in value.items() if k != self.tag}
        return record.parse(rest, group, f"{name} {self.what}")

    def record(self, obj) -> tuple:
        """(tag value, record) of a value."""
        for name, record in self.kinds.items():
            if type(obj) is record.cls:
                return name, record
        raise InstanceParseError(f"cannot serialize {type(obj).__name__}")

    def dump(self, obj, group):
        name, record = self.record(obj)
        return {self.tag: name, **record.dump(obj, group)}


# ---------------------------------------------------------------------------
# the table

RATIONAL, INTEGER, ELEMENT = Scalar(rat, rat_str), Scalar(_int), Element()
RATIONALS, INTEGERS, PAIR = Array(RATIONAL), Array(INTEGER), Array(RATIONAL, 2)
INTERVALS = Array(PAIR)


MARKERS = Array(Record(sets.AccumulationPoint, what="accumulation marker",
                       point=RATIONAL, side=Field(Enum(*sets.AccumulationPoint.SIDES), OPTIONAL)))
ATOMS = Array(Record(tuple, build=lambda point, weight: (point, weight), what="weighted atom",
                     point=ELEMENT, weight=RATIONAL))


def _chain(moduli, depth=None):
    if depth is not None and depth != len(moduli):
        raise InstanceParseError("chain depth must equal the number of listed moduli")
    return SigmaFiniteChain(moduli)


GROUP = Tagged(
    "group", "family",
    z_lattice=Record(ZLattice, dimension=INTEGER),
    finite_abelian=Record(FiniteAbelian, moduli=INTEGERS),
    real_line=Record(RealLine),
    sigma_finite_chain=Record(SigmaFiniteChain, build=_chain,
                              moduli=INTEGERS, depth=Field(INTEGER, INPUT)),
)

OBJECT = Tagged("object", "kind")  # counting, haar_trace and sum nest it
OBJECT.kinds.update(
    explicit_finite=Record(sets.ExplicitFinite, elements=Array(ELEMENT)),
    periodic_discrete=Record(sets.PeriodicDiscrete, period=INTEGERS, residues=Array(INTEGERS)),
    interval_union=Record(IntervalUnion, intervals=INTERVALS),
    periodic_pattern=Record(PeriodicPattern, period=RATIONAL,
                            pattern=Wrapped(INTERVALS, IntervalUnion, "intervals")),
    finite_points=Record(sets.FinitePoints, points=RATIONALS, accumulation=Field(MARKERS, SPARSE)),
    periodic_points=Record(sets.PeriodicPoints, period=RATIONAL, residues=RATIONALS),
    perturbed_lattice=Record(sets.PerturbedLattice, step=RATIONAL,
                             extra=Field(RATIONALS, OPTIONAL), removed=Field(RATIONALS, OPTIONAL),
                             accumulation=Field(MARKERS, SPARSE)),
    cylinder=Record(sets.CylinderSet, depth=INTEGER, residues=Array(INTEGERS)),
    counting=Record(sets.Counting, of=OBJECT),
    haar_trace=Record(sets.HaarTrace, of=OBJECT),
    dirac_at_zero=Record(sets.DiracAtZero),
    weighted_diracs=Record(sets.WeightedDiracs, atoms=ATOMS),
    sum=Record(sets.MeasureSum, components=Array(OBJECT)),
)

# the keys the CLI reads: the window profile schedule, the pipeline's epsilon
# and the diffset window
PARAMS = Record(dict, what="params", tol=Field(RATIONAL, OPTIONAL), r0=Field(RATIONAL, OPTIONAL),
                k_max=Field(INTEGER, OPTIONAL), epsilon=Field(RATIONAL, OPTIONAL),
                window=Field(PAIR, OPTIONAL))
OBJECTS = Named()
INSTANCE_FIELDS = {"group": Field(GROUP), "objects": Field(OBJECTS),
                   "params": Field(PARAMS, OPTIONAL)}


def parse_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _check_keys(data, INSTANCE_FIELDS, "instance")
    group = GROUP.parse(data["group"], None)  # the group decides what an element is
    objects = OBJECTS.parse(data["objects"], group)
    return Instance(group, objects, PARAMS.parse(data.get("params", {}), group))


def instance_to_text(instance: Instance) -> str:
    group = instance.group
    data = {"group": GROUP.dump(group, None), "objects": OBJECTS.dump(instance.objects, group)}
    if instance.params:
        data["params"] = PARAMS.dump(instance.params, group)
    return canonical_json(data)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# generic report serialization


def to_jsonable(obj) -> Any:
    """Deterministic JSON form for reports and results."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if is_infinite(obj):
        return {"infinite": to_jsonable(obj.certificate)}
    if isinstance(obj, (IntervalUnion, PeriodicPattern)):  # their instance form, without kind
        return OBJECT.record(obj)[1].dump(obj, None)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        held = obj.__dict__ if isinstance(obj, sets._Held) else {}
        for f in dataclasses.fields(obj):
            ints = held.get("_" + f.name)
            if isinstance(ints, tuple):  # a Fraction tuple, printed from its ints
                out[f.name] = ratio_strs(ints, obj._D)
            else:
                out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {"pairs": [[to_jsonable(k), to_jsonable(v)] for k, v in sorted(obj.items())]}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return repr(obj)
