"""Hypothesis strategies for instance documents, drawn from the instance table
in `density_lab.instances`: every group family, object kind and params key
with the fields and specs the parser reads.

- `documents()`: valid documents (every value of its spec's JSON type), with
  objects S and H and optional params; counting, haar_trace and sum nest
  objects through `st.recursive`.
- `malformed_documents()`: (bad, base) pairs, where bad is a valid base with
  one field given a value its spec rejects (a string where an array belongs,
  a fraction where an integer belongs, an unknown kind, ...), an unknown key
  added, or a required key dropped.

Numbers are drawn small, and positive where the constructors need it, so
that runs get past the preconditions into the computations.
"""

import copy
import functools
from fractions import Fraction

from hypothesis import strategies as st

from density_lab import instances as I

INSTANCE = I.Record(dict, what="instance", **I.INSTANCE_FIELDS)
SMALL = st.integers(-2, 5)
INT_RANGES = {  # field name -> the integers drawn for it
    "dimension": st.integers(1, 2),
    "moduli": st.integers(1, 4),
    "period": st.integers(1, 6),
    "depth": st.integers(0, 3),
    "k_max": st.integers(0, 2),
}
POSITIVE = {"period", "step", "weight", "tol", "r0", "epsilon"}
RATIONALS = st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 4))
POSITIVE_RATIONALS = st.builds("{}/{}".format, st.integers(1, 6), st.integers(1, 3))
# kinds that fit each family, so that runs reach the computations
FITTING = {
    "real_line": ("periodic_points", "finite_points", "perturbed_lattice", "interval_union"),
    "z_lattice": ("periodic_discrete", "explicit_finite"),
    "finite_abelian": ("explicit_finite",),
    "sigma_finite_chain": ("cylinder",),
}


def _nests(record) -> bool:
    return any(f.spec is I.OBJECT or getattr(f.spec, "item", None) is I.OBJECT
               for f in record.fields.values())


def value(spec, name, family, objects):
    """A valid JSON value of spec, for the field `name` on a group of
    `family`; `objects` draws a nested object."""
    if spec is I.RATIONAL:
        return POSITIVE_RATIONALS if name in POSITIVE else RATIONALS
    if spec is I.INTEGER:
        return INT_RANGES.get(name, SMALL)
    if spec is I.ELEMENT:
        if family == "real_line":
            return RATIONALS
        return st.one_of(SMALL, st.lists(SMALL, min_size=1, max_size=2))
    if isinstance(spec, I.Enum):
        return st.sampled_from(spec.values)
    if isinstance(spec, I.Wrapped):
        return value(spec.spec, name, family, objects)
    if isinstance(spec, I.Array):
        item = value(spec.item, name, family, objects)
        if spec.length == 2:  # an interval: [a, b] with a <= b
            return st.tuples(item, item).map(lambda ab: sorted(ab, key=Fraction))
        return st.lists(item, max_size=3)
    if spec is I.OBJECT:
        return objects
    if isinstance(spec, I.Record):
        return record(spec, family, objects)
    raise AssertionError(f"no strategy for {spec!r}")


def record(rec, family, objects=st.nothing()):
    """A valid JSON object of a Record: its required fields, and any of the
    others."""
    required = {k: value(f.spec, k, family, objects)
                for k, f in rec.fields.items() if f.presence == I.REQUIRED}
    optional = {k: value(f.spec, k, family, objects)
                for k, f in rec.fields.items() if f.presence != I.REQUIRED}
    return st.fixed_dictionaries(required, optional=optional)


def tagged(spec, name, family, objects=st.nothing()):
    return record(spec.kinds[name], family, objects).map(lambda d: {spec.tag: name, **d})


def objects(family, kinds=tuple(I.OBJECT.kinds)):
    """Objects of the given kinds on a group of `family`, with counting,
    haar_trace and sum nesting them."""
    leaves = [k for k in kinds if not _nests(I.OBJECT.kinds[k])]
    nesting = [k for k, rec in I.OBJECT.kinds.items() if _nests(rec)]
    return st.recursive(
        st.one_of([tagged(I.OBJECT, k, family) for k in leaves]),
        lambda inner: st.one_of([tagged(I.OBJECT, k, family, inner) for k in nesting]),
        max_leaves=3,
    )


def _documents(family):
    any_kind, fitting = objects(family), objects(family, FITTING[family])
    h = tagged(I.OBJECT, "interval_union", family) if family == "real_line" else fitting
    return st.fixed_dictionaries(
        {"group": tagged(I.GROUP, family, family),
         "objects": st.fixed_dictionaries({"S": st.one_of(any_kind, fitting),
                                           "H": st.one_of(any_kind, h)})},
        optional={"params": record(I.PARAMS, family)},
    )


@functools.cache  # built once: composing and validating the strategies is slow
def documents():
    return st.one_of([_documents(family) for family in I.GROUP.kinds])


# ---------------------------------------------------------------------------
# malformed documents

TAG = object()  # the spec of a family or kind name


def wrong(spec, family):
    """JSON values that are not valid for spec."""
    if spec is TAG:
        return ["mystery", 3, None, [], {}]
    if spec is I.RATIONAL:
        return ["x", "", "1/0", "nan", True, 2.5, None, [], {}]
    if spec is I.INTEGER:
        return ["1/2", "x", 2.5, True, None, [], {}]
    if spec is I.ELEMENT:
        return ["x", True, 2.5, [], {}] if family == "real_line" else ["01", 2.5, True, {}, [0.5]]
    if isinstance(spec, I.Enum):
        return ["sideways", 3, None, []]
    if isinstance(spec, I.Wrapped):
        return wrong(spec.spec, family)
    if isinstance(spec, I.Array):
        strings = ["12", "01", "ab", {}, 3, None]  # a string is never read as a list
        return strings + ([["0"], ["0", "1", "2"]] if spec.length == 2 else [])
    not_objects = [None, 3, "x", []]
    if isinstance(spec, I.Tagged):
        return not_objects + [{spec.tag: "mystery"}, {}]
    return not_objects  # a Record or the named objects


def locations(doc, spec):
    """(container, key, spec) of every value below doc, a valid JSON value of
    spec, container[key] being the value."""
    if isinstance(spec, I.Wrapped):
        spec = spec.spec
    if isinstance(spec, I.Tagged):
        yield doc, spec.tag, TAG
        spec = spec.kinds[doc[spec.tag]]
    if isinstance(spec, I.Record):
        items = [(k, f.spec) for k, f in spec.fields.items() if k in doc]
    elif isinstance(spec, I.Named):
        items = [(k, I.OBJECT) for k in doc]
    elif isinstance(spec, I.Array):
        items = [(i, spec.item) for i in range(len(doc))]
    else:
        return
    for key, sub in items:
        yield doc, key, sub
        yield from locations(doc[key], sub)


def _required(rec):
    return [k for k, f in rec.fields.items() if f.presence == I.REQUIRED]


@st.composite
def malformed_documents(draw):
    base = draw(documents())
    bad = copy.deepcopy(base)
    family = bad["group"]["family"]
    places = list(locations(bad, INSTANCE))
    records = [(bad, INSTANCE)] + [
        (c[k], s.kinds[c[k][s.tag]] if isinstance(s, I.Tagged) else s)
        for c, k, s in places if isinstance(s, (I.Record, I.Tagged))
    ]
    how = draw(st.sampled_from(["value", "unknown key", "missing key"]))
    if how == "unknown key":
        draw(st.sampled_from(records))[0]["mystery"] = 1
    elif how == "missing key":
        target, rec = draw(st.sampled_from([r for r in records if _required(r[1])]))
        del target[draw(st.sampled_from(_required(rec)))]
    else:
        container, key, spec = draw(st.sampled_from(places))
        container[key] = copy.deepcopy(draw(st.sampled_from(wrong(spec, family))))
    return bad, base
