"""The four hand-written walkers that read and printed instance files before
the table in `density_lab.instances` (parse_group, group_to_json,
parse_object, object_to_json, with their helpers), kept unchanged as the
oracle of the table's differential test in test_instances.py.
"""

from density_lab import (
    AccumulationPoint,
    Counting,
    CylinderSet,
    DiracAtZero,
    ExplicitFinite,
    FiniteAbelian,
    FinitePoints,
    GroupSpec,
    HaarTrace,
    InstanceParseError,
    IntervalUnion,
    MeasureSum,
    PeriodicDiscrete,
    PeriodicPattern,
    PeriodicPoints,
    PerturbedLattice,
    RealLine,
    SigmaFiniteChain,
    WeightedDiracs,
    ZLattice,
)
from density_lab.rational import rat, rat_str



def _require_keys(d: dict, allowed: set, required: set, what: str):
    if not isinstance(d, dict):
        raise InstanceParseError(f"{what} must be an object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise InstanceParseError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise InstanceParseError(f"missing fields in {what}: {sorted(missing)}")


def _int(value) -> int:
    """An integer field: what rat accepts, when its denominator is 1; bools
    and floats are rejected, as rat rejects them."""
    q = rat(value)
    if q.denominator != 1:
        raise InstanceParseError(f"not an integer: {value!r}")
    return q.numerator


def parse_group(d: dict) -> GroupSpec:
    _require_keys(d, {"family", "dimension", "moduli", "depth"}, {"family"}, "group")
    family = d["family"]
    if family == "z_lattice":
        _require_keys(d, {"family", "dimension"}, {"family", "dimension"}, "z_lattice group")
        return ZLattice(_int(d["dimension"]))
    if family == "finite_abelian":
        _require_keys(d, {"family", "moduli"}, {"family", "moduli"}, "finite_abelian group")
        return FiniteAbelian(tuple(_int(m) for m in d["moduli"]))
    if family == "real_line":
        _require_keys(d, {"family"}, {"family"}, "real_line group")
        return RealLine()
    if family == "sigma_finite_chain":
        _require_keys(
            d, {"family", "moduli", "depth"}, {"family", "moduli"}, "sigma_finite_chain group"
        )
        moduli = tuple(_int(m) for m in d["moduli"])
        if "depth" in d and _int(d["depth"]) != len(moduli):
            raise InstanceParseError("chain depth must equal the number of listed moduli")
        return SigmaFiniteChain(moduli)
    raise InstanceParseError(f"unknown group family: {family!r}")


def group_to_json(group: GroupSpec) -> dict:
    if isinstance(group, ZLattice):
        return {"family": "z_lattice", "dimension": group.dimension}
    if isinstance(group, FiniteAbelian):
        return {"family": "finite_abelian", "moduli": list(group.moduli)}
    if isinstance(group, RealLine):
        return {"family": "real_line"}
    if isinstance(group, SigmaFiniteChain):
        return {"family": "sigma_finite_chain", "moduli": list(group.moduli)}
    raise InstanceParseError(f"unknown group: {group!r}")


def _parse_element(e, group: GroupSpec):
    if isinstance(group, RealLine):
        return rat(e)
    if isinstance(e, list):
        return tuple(_int(c) for c in e)
    if isinstance(e, int):
        return (_int(e),)
    raise InstanceParseError(f"bad element: {e!r}")


def _element_to_json(e, group: GroupSpec):
    if isinstance(group, RealLine):
        return rat_str(e)
    return list(e)


def _parse_pairs(pairs) -> IntervalUnion:
    return IntervalUnion(tuple((rat(a), rat(b)) for a, b in pairs))


def _parse_accumulation(items):
    out = []
    for d in items:
        _require_keys(d, {"point", "side"}, {"point"}, "accumulation marker")
        out.append(AccumulationPoint(rat(d["point"]), d.get("side", "above")))
    return tuple(out)


def parse_object(d: dict, group: GroupSpec):
    _require_keys(d, set(d), {"kind"}, "object")
    kind = d["kind"]
    if kind == "explicit_finite":
        _require_keys(d, {"kind", "elements"}, {"kind", "elements"}, kind)
        return ExplicitFinite(tuple(_parse_element(e, group) for e in d["elements"]))
    if kind == "periodic_discrete":
        _require_keys(d, {"kind", "period", "residues"}, {"kind", "period", "residues"}, kind)
        return PeriodicDiscrete(
            tuple(_int(m) for m in d["period"]),
            tuple(tuple(_int(c) for c in r) for r in d["residues"]),
        )
    if kind == "interval_union":
        _require_keys(d, {"kind", "intervals"}, {"kind", "intervals"}, kind)
        return _parse_pairs(d["intervals"])
    if kind == "periodic_pattern":
        _require_keys(d, {"kind", "period", "pattern"}, {"kind", "period", "pattern"}, kind)
        return PeriodicPattern(rat(d["period"]), _parse_pairs(d["pattern"]))
    if kind == "finite_points":
        _require_keys(d, {"kind", "points", "accumulation"}, {"kind", "points"}, kind)
        return FinitePoints(
            tuple(rat(p) for p in d["points"]),
            accumulation=_parse_accumulation(d.get("accumulation", [])),
        )
    if kind == "periodic_points":
        _require_keys(d, {"kind", "period", "residues"}, {"kind", "period", "residues"}, kind)
        return PeriodicPoints(rat(d["period"]), tuple(rat(r) for r in d["residues"]))
    if kind == "perturbed_lattice":
        _require_keys(
            d,
            {"kind", "step", "extra", "removed", "accumulation"},
            {"kind", "step"},
            kind,
        )
        return PerturbedLattice(
            rat(d["step"]),
            tuple(rat(p) for p in d.get("extra", [])),
            tuple(rat(p) for p in d.get("removed", [])),
            accumulation=_parse_accumulation(d.get("accumulation", [])),
        )
    if kind == "cylinder":
        _require_keys(d, {"kind", "depth", "residues"}, {"kind", "depth", "residues"}, kind)
        return CylinderSet(_int(d["depth"]), tuple(tuple(_int(c) for c in r) for r in d["residues"]))
    if kind == "counting":
        _require_keys(d, {"kind", "of"}, {"kind", "of"}, kind)
        return Counting(parse_object(d["of"], group))
    if kind == "haar_trace":
        _require_keys(d, {"kind", "of"}, {"kind", "of"}, kind)
        return HaarTrace(parse_object(d["of"], group))
    if kind == "dirac_at_zero":
        _require_keys(d, {"kind"}, {"kind"}, kind)
        return DiracAtZero()
    if kind == "weighted_diracs":
        _require_keys(d, {"kind", "atoms"}, {"kind", "atoms"}, kind)
        atoms = []
        for a in d["atoms"]:
            _require_keys(a, {"point", "weight"}, {"point", "weight"}, "weighted atom")
            atoms.append((_parse_element(a["point"], group), rat(a["weight"])))
        return WeightedDiracs(tuple(atoms))
    if kind == "sum":
        _require_keys(d, {"kind", "components"}, {"kind", "components"}, kind)
        return MeasureSum(tuple(parse_object(c, group) for c in d["components"]))
    raise InstanceParseError(f"unknown object kind: {kind!r}")


def object_to_json(obj, group: GroupSpec) -> dict:
    if isinstance(obj, ExplicitFinite):
        return {
            "kind": "explicit_finite",
            "elements": [_element_to_json(e, group) for e in obj.elements],
        }
    if isinstance(obj, PeriodicDiscrete):
        return {
            "kind": "periodic_discrete",
            "period": list(obj.period),
            "residues": [list(r) for r in obj.residues],
        }
    if isinstance(obj, IntervalUnion):
        return {
            "kind": "interval_union",
            "intervals": [[rat_str(a), rat_str(b)] for a, b in obj.intervals],
        }
    if isinstance(obj, PeriodicPattern):
        return {
            "kind": "periodic_pattern",
            "period": rat_str(obj.period),
            "pattern": [[rat_str(a), rat_str(b)] for a, b in obj.pattern.intervals],
        }
    if isinstance(obj, FinitePoints):
        out = {"kind": "finite_points", "points": [rat_str(p) for p in obj.points]}
        if obj.accumulation:
            out["accumulation"] = [
                {"point": rat_str(a.point), "side": a.side} for a in obj.accumulation
            ]
        return out
    if isinstance(obj, PeriodicPoints):
        return {
            "kind": "periodic_points",
            "period": rat_str(obj.period),
            "residues": [rat_str(r) for r in obj.residues],
        }
    if isinstance(obj, PerturbedLattice):
        out = {
            "kind": "perturbed_lattice",
            "step": rat_str(obj.step),
            "extra": [rat_str(p) for p in obj.extra],
            "removed": [rat_str(p) for p in obj.removed],
        }
        if obj.accumulation:
            out["accumulation"] = [
                {"point": rat_str(a.point), "side": a.side} for a in obj.accumulation
            ]
        return out
    if isinstance(obj, CylinderSet):
        return {"kind": "cylinder", "depth": obj.depth, "residues": [list(r) for r in obj.residues]}
    if isinstance(obj, Counting):
        return {"kind": "counting", "of": object_to_json(obj.of, group)}
    if isinstance(obj, HaarTrace):
        return {"kind": "haar_trace", "of": object_to_json(obj.of, group)}
    if isinstance(obj, DiracAtZero):
        return {"kind": "dirac_at_zero"}
    if isinstance(obj, WeightedDiracs):
        return {
            "kind": "weighted_diracs",
            "atoms": [
                {"point": _element_to_json(p, group), "weight": rat_str(w)}
                for p, w in obj.atoms
            ],
        }
    if isinstance(obj, MeasureSum):
        return {
            "kind": "sum",
            "components": [object_to_json(c, group) for c in obj.components],
        }
    raise InstanceParseError(f"cannot serialize {type(obj).__name__}")
