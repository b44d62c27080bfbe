import glob
import hashlib
import json
import re
from fractions import Fraction

import instance_walkers as walkers
import pytest
from documents import documents
from hypothesis import example, given, settings, strategies as st

from density_lab import (
    DensityLabError,
    InstanceParseError,
    IntervalUnion,
    PeriodicPattern,
    PeriodicPoints,
    RealLine,
    canonical_json,
    instance_to_text,
    parse_instance,
    to_jsonable,
)
from density_lab.instances import GROUP, OBJECT, PARAMS
from density_lab.rational import rat


def test_roundtrip_identity_on_shipped_instances():
    for path in sorted(glob.glob("instances/*.json")):
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        inst = parse_instance(text)
        printed = instance_to_text(inst)
        again = parse_instance(printed)
        assert again == inst
        # print of the parse of the print is byte-identical
        assert instance_to_text(again) == printed


# SHA-256 of instance_to_text of each shipped file: the printer's bytes, which
# parse -> print -> parse alone would not pin
PRINTED_SHA256 = {
    "accumulation.json": "5e9b8c577bca19973671a1d0d45fd50a6c948103b6d8ca467941f4ad72fd3521",
    "chain_half.json": "8a8e472f80a0486574e01e8dfd68cc402d590461dc914f95d1956cb0b9cb2ba6",
    "dirac.json": "87a4ff4459a58c65318b2075111a9185472d03d3b09b1ce0371ffd50cd166c90",
    "half_pattern.json": "a5d6f458298ca150a2c39402505089e0cb8e46806e36d52c76de37fef7efe031",
    "perturbed_lattice.json": "137d40109d8a5236c6b444ad5ca13f429f00c97e0da4e23453e81b48c716fca1",
    "reciprocal_perturbation.json":
        "cf6e3fce6f4728a5842490fe807621d6caefc09acae09ef88430863275e658ac",
    "three_z.json": "ab3a39a4eaef10ccd0ec7adbe32baf385867b3086824bc4cf8b05eea1d66e17d",
    "two_residues.json": "321b72ce0aa4949c47071f9799689e009ebb3da4a444e86aa73c2ce73ecc3812",
    "z6_pair.json": "251df75b2d5e883927d3030bf3afa3e9a5e273c7378139e94a3dcc4bba21efc9",
}


def test_shipped_instances_print_pinned_bytes():
    got = {}
    for path in sorted(glob.glob("instances/*.json")):
        with open(path, "r", encoding="utf-8") as f:
            printed = instance_to_text(parse_instance(f.read()))
        got[path.split("/")[-1]] = hashlib.sha256(printed.encode("utf-8")).hexdigest()
    assert got == PRINTED_SHA256


def test_unknown_fields_rejected():
    bad = json.dumps(
        {
            "group": {"family": "real_line"},
            "objects": {"nu": {"kind": "dirac_at_zero", "weight": "2"}},
        }
    )
    with pytest.raises(InstanceParseError, match="unknown fields"):
        parse_instance(bad)
    bad2 = json.dumps({"group": {"family": "real_line"}, "objects": {}, "extra": 1})
    with pytest.raises(InstanceParseError, match="unknown fields"):
        parse_instance(bad2)
    bad3 = json.dumps(
        {"group": {"family": "real_line"}, "objects": {}, "params": {"mystery": 1}}
    )
    with pytest.raises(InstanceParseError, match="unknown fields"):
        parse_instance(bad3)


@pytest.mark.parametrize("key", ["K", "notion", "gamma", "cap", "n_max"])
def test_params_that_nothing_reads_are_rejected(key):
    with open("instances/half_pattern.json", "r", encoding="utf-8") as f:
        data = json.load(f)
    data["params"] = {key: "cube"}
    with pytest.raises(InstanceParseError, match="unknown fields"):
        parse_instance(json.dumps(data))


def test_parse_error_carries_location():
    with pytest.raises(InstanceParseError, match="line 1"):
        parse_instance("{not json")


def test_rational_strings():
    group = RealLine()
    obj = OBJECT.parse(
        {"kind": "periodic_points", "period": "3/2", "residues": ["0", "1/2"]}, group
    )
    assert obj == PeriodicPoints(Fraction(3, 2), (Fraction(0), Fraction(1, 2)))
    assert OBJECT.dump(obj, group)["period"] == "3/2"
    with pytest.raises(InstanceParseError):
        OBJECT.parse({"kind": "periodic_points", "period": "x", "residues": []}, group)


def test_rat_returns_a_fraction_itself_and_copies_every_other_input():
    q = Fraction(-7, 3)
    assert rat(q) is q

    class Tagged(Fraction):
        pass

    for value, want in ((Tagged(1, 2), Fraction(1, 2)), (5, Fraction(5)), (" -7/3 ", q)):
        got = rat(value)
        assert type(got) is Fraction and got == want
    for bad in (True, 1.5, "1.5", "1/0", None):
        with pytest.raises(InstanceParseError):
            rat(bad)


def test_object_roundtrip_measures():
    group = RealLine()
    spec = {
        "kind": "sum",
        "components": [
            {"kind": "dirac_at_zero"},
            {
                "kind": "haar_trace",
                "of": {"kind": "periodic_pattern", "period": "1", "pattern": [["0", "1/2"]]},
            },
            {
                "kind": "weighted_diracs",
                "atoms": [{"point": "1/3", "weight": "2"}],
            },
        ],
    }
    obj = OBJECT.parse(spec, group)
    assert OBJECT.dump(obj, group) == spec


def test_missing_required_fields():
    with pytest.raises(InstanceParseError, match="missing fields"):
        parse_instance(json.dumps({"objects": {}}))
    with pytest.raises(InstanceParseError, match="missing fields"):
        OBJECT.parse({"kind": "interval_union"}, RealLine())


def test_chain_depth_mismatch_rejected():
    bad = json.dumps(
        {
            "group": {"family": "sigma_finite_chain", "moduli": [2, 2], "depth": 3},
            "objects": {},
        }
    )
    with pytest.raises(InstanceParseError, match="depth"):
        parse_instance(bad)


def test_to_jsonable_is_deterministic():
    rep = to_jsonable(
        {
            "value": Fraction(1, 3),
            "pattern": PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))]),
            "window": IntervalUnion.closed(-1, 1),
        }
    )
    rep2 = to_jsonable(
        {
            "window": IntervalUnion.closed(-1, 1),
            "value": Fraction(1, 3),
            "pattern": PeriodicPattern.from_pairs(1, [(0, Fraction(1, 2))]),
        }
    )
    assert json.dumps(rep, sort_keys=True) == json.dumps(rep2, sort_keys=True)


# ---------------------------------------------------------------------------
# the table against the walkers it replaced, and properties of its documents

DRAWN = settings(max_examples=60, deadline=None)


def _outcome(parse):
    """("ok", value) or (error type, message) of a parse."""
    try:
        return "ok", parse()
    except DensityLabError as exc:
        return type(exc).__name__, str(exc)


@DRAWN
@given(documents())
def test_table_parses_and_prints_as_the_walkers_did(document):
    def with_table():
        inst = parse_instance(json.dumps(document))
        return inst.group, inst.objects

    def with_walkers():
        group = walkers.parse_group(document["group"])
        return group, {name: walkers.parse_object(d, group)
                       for name, d in document["objects"].items()}

    table, oracle = _outcome(with_table), _outcome(with_walkers)
    if "ok" in (table[0], oracle[0]) or oracle[0] != "InstanceParseError":
        assert table == oracle  # equal objects, or the same range error
    if table[0] == "ok":
        group, objects = table[1]
        printed = {"group": GROUP.dump(group, None),
                   "objects": {k: OBJECT.dump(v, group) for k, v in objects.items()}}
        expected = {"group": walkers.group_to_json(group),
                    "objects": {k: walkers.object_to_json(v, group) for k, v in objects.items()}}
        assert canonical_json(printed) == canonical_json(expected)


@DRAWN
@given(documents())
def test_parse_print_parse_is_the_identity(document):
    try:
        inst = parse_instance(json.dumps(document))
    except DensityLabError:
        return
    for obj in inst.objects.values():
        assert OBJECT.parse(OBJECT.dump(obj, inst.group), inst.group) == obj
    text = instance_to_text(inst)
    assert parse_instance(text) == inst
    assert instance_to_text(parse_instance(text)) == text


KEYS = sorted({"group", "objects", "params", "kind", "family", *PARAMS.fields}
              | {k for tagged in (GROUP, OBJECT) for rec in tagged.kinds.values()
                 for k in rec.fields})


def _tagged(tag, names, inner):
    """JSON objects with a family or kind, mostly a known one, and any fields."""
    return st.builds(lambda name, d: {**d, tag: name}, st.sampled_from(sorted(names)) | inner,
                     st.dictionaries(st.sampled_from(KEYS), inner, max_size=3))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["above", "1/2", "0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)
    | _tagged("kind", OBJECT.kinds, inner),
    max_leaves=8,
)
ANY_DOCUMENT = JSON | st.fixed_dictionaries(
    {"group": JSON | _tagged("family", GROUP.kinds, JSON),
     "objects": JSON | st.dictionaries(st.sampled_from("SH"), JSON, max_size=2)},
    optional={"params": JSON | st.dictionaries(st.sampled_from(KEYS), JSON, max_size=2)},
)


@settings(max_examples=60, deadline=None)
@given(ANY_DOCUMENT)
@example({"group": {"family": "real_line"}, "objects": {"S": None}})
@example({"group": {"family": "real_line"}, "objects": []})
@example({"group": {"family": "finite_abelian", "moduli": "35"}, "objects": {}})
def test_any_json_parses_or_raises_a_library_error(document):
    # never a TypeError, ValueError or AttributeError from reading the JSON
    try:
        parse_instance(json.dumps(document))
    except DensityLabError:
        pass


def _readme_tables():
    """{first cell: [backticked names in the second cell]} of every table row
    in README's "Instance files" section."""
    with open("README.md", encoding="utf-8") as f:
        text = f.read()
    section = text.split("### Instance files", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    return {name: re.findall(r"`(\w+)`", fields) for name, fields in rows}


def test_readme_lists_the_table():
    listed = _readme_tables()
    table = {**{name: list(rec.fields) for tagged in (GROUP, OBJECT)
                for name, rec in tagged.kinds.items()},
             **{key: [] for key in PARAMS.fields}}
    assert listed == table
