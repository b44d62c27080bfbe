"""Exit-code contract under instance fuzzing: random instance documents, with
S and H of every object kind on every group family (wrong kinds, out-of-range
elements, mismatched dimensions and wrongly typed integer fields included),
run in-process through `cli.main` on partition, pipeline, cover and diffset.
Every run must end in exit 0, 2, 3 or 4; no exception may escape.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from density_lab.cli import main

small = st.integers(-4, 6)
rationals = st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 4))
positives = st.builds("{}/{}".format, st.integers(1, 6), st.integers(1, 3))
vectors = st.lists(small, min_size=1, max_size=2)
elements = st.one_of(rationals, vectors, small)
pairs = st.lists(st.tuples(rationals, rationals).map(lambda ab: sorted(ab, key=Fraction)),
                 max_size=3)
markers = st.lists(
    st.fixed_dictionaries({"point": rationals, "side": st.sampled_from(["above", "below", "both"])}),
    max_size=1,
)

GROUPS = st.one_of(
    st.builds(lambda d: {"family": "z_lattice", "dimension": d}, st.integers(1, 2)),
    st.builds(lambda m: {"family": "finite_abelian", "moduli": m},
              st.lists(st.integers(1, 5), min_size=1, max_size=2)),
    st.just({"family": "real_line"}),
    st.builds(lambda m: {"family": "sigma_finite_chain", "moduli": m},
              st.lists(st.integers(2, 3), min_size=1, max_size=3)),
)

EXPLICIT = st.fixed_dictionaries({"kind": st.just("explicit_finite"),
                                 "elements": st.lists(elements, max_size=4)})
EXPLICIT_1D = st.fixed_dictionaries({"kind": st.just("explicit_finite"),
                                    "elements": st.lists(st.lists(small, min_size=1, max_size=1),
                                                         max_size=4)})
PERIODIC_DISCRETE = st.fixed_dictionaries({
    "kind": st.just("periodic_discrete"),
    "period": st.lists(st.integers(1, 6), min_size=1, max_size=2),
    "residues": st.lists(vectors, max_size=3),
})
INTERVALS = st.fixed_dictionaries({"kind": st.just("interval_union"), "intervals": pairs})
FINITE_POINTS = st.fixed_dictionaries({"kind": st.just("finite_points"),
                                      "points": st.lists(rationals, max_size=5),
                                      "accumulation": markers})
PERIODIC_POINTS = st.fixed_dictionaries({"kind": st.just("periodic_points"), "period": positives,
                                        "residues": st.lists(rationals, max_size=3)})
PERTURBED = st.fixed_dictionaries({"kind": st.just("perturbed_lattice"), "step": positives,
                                  "extra": st.lists(rationals, max_size=3),
                                  "removed": st.lists(rationals, max_size=2),
                                  "accumulation": markers})
SETS = st.one_of(
    EXPLICIT,
    PERIODIC_DISCRETE,
    INTERVALS,
    st.fixed_dictionaries({"kind": st.just("periodic_pattern"), "period": positives,
                           "pattern": pairs}),
    FINITE_POINTS,
    PERIODIC_POINTS,
    PERTURBED,
    st.fixed_dictionaries({"kind": st.just("cylinder"), "depth": st.integers(0, 3),
                           "residues": st.lists(vectors, max_size=3)}),
)
MEASURES = st.one_of(
    st.builds(lambda s: {"kind": "counting", "of": s}, SETS),
    st.builds(lambda s: {"kind": "haar_trace", "of": s}, SETS),
    st.just({"kind": "dirac_at_zero"}),
    st.builds(lambda atoms: {"kind": "weighted_diracs", "atoms": atoms},
              st.lists(st.fixed_dictionaries({"point": elements, "weight": positives}),
                       max_size=2)),
)
OBJECTS = st.one_of(SETS, MEASURES)


def mistyped(ints):
    """An integer field as an int, or wrongly typed: an integer or fractional
    string, a float or a bool (only an integer string is read, as its int)."""
    wrong = st.one_of(ints.map(str), st.sampled_from(["1/2", "x", ""]), st.floats(), st.booleans())
    return st.one_of(ints, wrong)


MISTYPED_GROUPS = st.one_of(
    st.builds(lambda d: {"family": "z_lattice", "dimension": d}, mistyped(st.integers(1, 2))),
    st.builds(lambda m: {"family": "finite_abelian", "moduli": m},
              st.lists(mistyped(st.integers(1, 5)), min_size=1, max_size=2)),
    st.builds(lambda m, d: {"family": "sigma_finite_chain", "moduli": m, "depth": d},
              st.lists(mistyped(st.integers(2, 3)), min_size=1, max_size=2),
              mistyped(st.integers(1, 2))),
)
MISTYPED_VECTORS = st.lists(mistyped(small), min_size=1, max_size=2)
MISTYPED_SETS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("periodic_discrete"),
                           "period": st.lists(mistyped(st.integers(1, 6)), min_size=1, max_size=2),
                           "residues": st.lists(MISTYPED_VECTORS, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("cylinder"), "depth": mistyped(st.integers(0, 2)),
                           "residues": st.lists(MISTYPED_VECTORS, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("explicit_finite"),
                           "elements": st.lists(st.one_of(MISTYPED_VECTORS, mistyped(small)),
                                                max_size=3)}),
)


def documents(group, S, H):
    return st.fixed_dictionaries({"group": group, "objects": st.fixed_dictionaries({"S": S, "H": H})})


# any group with any objects, and documents of the kinds each group accepts,
# so that runs also get past the preconditions into the computations
DOCUMENTS = st.one_of(
    documents(GROUPS, OBJECTS, OBJECTS),
    documents(st.just({"family": "real_line"}),
              st.one_of(PERIODIC_POINTS, FINITE_POINTS, PERTURBED),
              st.fixed_dictionaries({"kind": st.just("interval_union"),
                                     "intervals": pairs.filter(bool)})),
    documents(st.just({"family": "z_lattice", "dimension": 1}),
              PERIODIC_DISCRETE, EXPLICIT_1D),
    documents(st.builds(lambda m: {"family": "finite_abelian", "moduli": [m]}, st.integers(1, 6)),
              EXPLICIT_1D, EXPLICIT_1D),
    documents(MISTYPED_GROUPS, MISTYPED_SETS, st.one_of(MISTYPED_SETS, EXPLICIT_1D)),
)
RUNS = st.sampled_from([
    ["partition", "--object", "S", "--H", "H"],
    ["pipeline", "--object", "S"],
    ["pipeline", "--object", "S", "--H", "H"],
    ["cover", "--object", "S"],
    ["diffset", "--object", "S"],
])


@pytest.mark.filterwarnings("ignore:difference set of an empty set")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(DOCUMENTS, RUNS)
def test_random_instances_keep_the_exit_code_contract(tmp_path_factory, document, run):
    path = tmp_path_factory.getbasetemp() / "fuzz_instance.json"
    path.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([run[0], "--instance", str(path), *run[1:]])
    assert code in (0, 2, 3, 4)
