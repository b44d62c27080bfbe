import glob
import json
from fractions import Fraction

import pytest

from density_lab import (
    InstanceParseError,
    IntervalUnion,
    PeriodicPattern,
    PeriodicPoints,
    RealLine,
    instance_to_text,
    parse_instance,
    to_jsonable,
)
from density_lab.instances import object_to_json, parse_object


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
    obj = parse_object(
        {"kind": "periodic_points", "period": "3/2", "residues": ["0", "1/2"]}, group
    )
    assert obj == PeriodicPoints(Fraction(3, 2), (Fraction(0), Fraction(1, 2)))
    assert object_to_json(obj, group)["period"] == "3/2"
    with pytest.raises(InstanceParseError):
        parse_object({"kind": "periodic_points", "period": "x", "residues": []}, group)


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
    obj = parse_object(spec, group)
    assert object_to_json(obj, group) == spec


def test_missing_required_fields():
    with pytest.raises(InstanceParseError, match="missing fields"):
        parse_instance(json.dumps({"objects": {}}))
    with pytest.raises(InstanceParseError, match="missing fields"):
        parse_object({"kind": "interval_union"}, RealLine())


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
