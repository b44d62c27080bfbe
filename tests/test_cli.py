import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from density_lab import IntervalUnion, RealLine, VerificationError, cli, density, difference_set
from density_lab.cli import main
from density_lab.instances import parse_instance
from density_lab.windows import measure_layers

from oracles import replica_line_values

INSTANCES = "instances"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_kahane_closed_form(capsys):
    code, out, _ = run(
        capsys, "density", "--instance", f"{INSTANCES}/three_z.json",
        "--object", "nu", "--notion", "kahane",
    )
    assert code == 0
    assert "1/3" in out and "closed-form" in out


def test_density_delta_dirac_infinite(capsys):
    code, out, _ = run(
        capsys, "density", "--instance", f"{INSTANCES}/dirac.json", "--notion", "delta",
    )
    assert code == 0
    assert "Infinite (certified: eta schedule)" in out


def test_density_window_custom_K(capsys):
    code, out, _ = run(
        capsys, "density", "--instance", f"{INSTANCES}/half_pattern.json",
        "--notion", "window",
        "--K", '[["0","1/2"],["3/4","5/4"]]', "--r0", "8", "--kmax", "8",
    )
    assert code == 0
    assert "window density: 1/2" in out
    assert "       8 1/2" in out and "      16 1/2" in out and "      32" not in out


def test_density_window_rmax_caps_schedule(capsys):
    code, out, _ = run(
        capsys, "density", "--instance", f"{INSTANCES}/perturbed_lattice.json",
        "--notion", "window", "--r0", "10", "--rmax", "40", "--tol", "1/1000000",
    )
    assert code == 0
    assert "window density: 1 (= 1.0) [closed-form]" in out
    assert "40" in out and "80" not in out  # schedule stops at rmax
    ratios = [line.split()[1] for line in out.split("least argmax\n")[1].splitlines()]
    assert ratios == ["41/20", "81/40", "13/8"]


def test_window_profile_of_a_perturbed_lattice_runs_to_kmax_20(capsys):
    # a mixed scan walks one period of lattice replicas per finite event,
    # whatever the radius, so every row up to r = 10 * 2^18 (where the
    # profile meets its tolerance) takes about the same time
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "density", "--instance", f"{INSTANCES}/perturbed_lattice.json",
        "--notion", "window", "--kmax", "20", "--tol", "1/100000",
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    rows = [line.split() for line in out.split("least argmax\n")[1].splitlines()]
    assert len(rows) == 19
    # the rows of the replica sweep: computed here up to k = 10; beyond, the
    # sweep (seconds per row) gave sup 2r + 50 at least argmax 51 - r
    nu = parse_instance(pathlib.Path(INSTANCES, "perturbed_lattice.json").read_text()).objects["nu"]
    layers, _ = measure_layers(nu, RealLine())
    for k, row in enumerate(rows[:15]):
        r = 10 * 2**k
        if k <= 10:
            D, Dw, cands, values = replica_line_values(layers, IntervalUnion.closed(-r, r))
            best = max(values)
            sup, x = Fraction(best, D * Dw), Fraction(cands[values.index(best)], D)
        else:
            sup, x = Fraction(2 * r + 50), 51 - r
        assert row == [str(r), str(sup / (2 * r)), str(x)]


def test_window_profile_of_a_mixed_lattice_measure_runs_to_kmax_20(tmp_path, capsys):
    # the multiples of 3 plus three weighted atoms on Z: the cube scan runs the
    # line sweep, whatever the radius, where a walk of the whole perturbation
    # zone would exceed the enumeration cap from r = 8 * 2^16 on
    nu = {"kind": "sum", "components": [
        {"kind": "counting", "of": {"kind": "periodic_discrete", "period": [3], "residues": [[0]]}},
        {"kind": "weighted_diracs", "atoms": [{"point": [1], "weight": "1/2"},
                                              {"point": [7], "weight": "2"},
                                              {"point": [12], "weight": "1"}]},
    ]}
    path = tmp_path / "mixed_z.json"
    path.write_text(json.dumps({"group": {"family": "z_lattice", "dimension": 1},
                                "objects": {"nu": nu}}))
    code, out, _ = run(capsys, "density", "--instance", str(path), "--notion", "window",
                       "--K", "cube", "--kmax", "20", "--tol", "0")
    assert code == 0
    rows = [line.split() for line in out.split("least argmax\n")[1].splitlines()]
    assert len(rows) == 21
    # the rows of the zone walk, which reached k = 15
    want = ["19/34 (4,)", "29/66 (-4,)", "51/130 (-20,)", "31/86 (-52,)", "179/514 (-116,)",
            "349/1026 (-244,)", "691/2050 (-500,)", "1373/4098 (-1012,)", "2739/8194 (-2036,)",
            "1823/5462 (-4084,)", "10931/32770 (-8180,)", "21853/65538 (-16372,)",
            "43699/131074 (-32756,)", "87389/262146 (-65524,)", "174771/524290 (-131060,)",
            "116511/349526 (-262132,)"]
    assert [" ".join(row) for row in rows[:16]] == [
        f"{8 * 2**k} {row}" for k, row in enumerate(want)
    ]


def test_density_oracle_mode(capsys):
    code, out, _ = run(
        capsys, "density", "--instance", f"{INSTANCES}/z6_pair.json",
        "--notion", "kahane", "--mode", "oracle",
    )
    assert code == 0
    assert "1/3" in out and "branch-and-bound" in out


def test_density_hegyvari(capsys):
    code, out, _ = run(
        capsys, "density", "--instance", f"{INSTANCES}/chain_half.json",
        "--object", "A", "--notion", "hegyvari",
    )
    assert code == 0
    assert "1/2" in out


def test_cover_three_z(capsys):
    code, out, _ = run(capsys, "cover", "--instance", f"{INSTANCES}/three_z.json",
                       "--object", "A")
    assert code == 0
    assert "bound 3, used 3" in out


def test_partition_two_classes(capsys):
    code, out, _ = run(
        capsys, "partition", "--instance", f"{INSTANCES}/two_residues.json",
        "--object", "S", "--H", "H",
    )
    assert code == 0
    assert "classes: 2" in out


def test_pipeline_two_residues(capsys):
    code, out, _ = run(
        capsys, "pipeline", "--instance", f"{INSTANCES}/two_residues.json",
        "--object", "S", "--H", "H",
    )
    assert code == 0
    assert "covering verified: True" in out
    assert "holds" in out


def test_pipeline_accumulation_exits_3(capsys):
    code, _, err = run(
        capsys, "pipeline", "--instance", f"{INSTANCES}/accumulation.json", "--object", "S",
    )
    assert code == 3
    assert "precondition" in err


def test_pipeline_refuses_an_H_the_instance_does_not_name(capsys):
    code, _, err = run(
        capsys, "pipeline", "--instance", f"{INSTANCES}/two_residues.json",
        "--object", "S", "--H", "nosuch",
    )
    assert code == 3
    assert "no H named 'nosuch' in the instance" in err


def test_diffset_without_a_window(capsys):
    code, out, _ = run(
        capsys, "diffset", "--instance", f"{INSTANCES}/three_z.json", "--object", "A",
    )
    assert code == 0


def _perturbed_file(tmp_path, params):
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps({
        "group": {"family": "real_line"},
        "objects": {
            "S": {"kind": "perturbed_lattice", "step": "1", "extra": ["5/2", "10/3"]},
            "F": {"kind": "finite_points", "points": ["0", "1/2"]},
        },
        "params": params,
    }))
    return str(path)


def test_diffset_windowed(tmp_path, capsys):
    # diffset reports S - S of a perturbed lattice whole; a window of it is
    # materialize(lo, hi) of the held result
    instance = _perturbed_file(tmp_path, {})
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "diffset", "--instance", instance, "--object", "S",
                       "--out", str(out_path))
    assert code == 0 and "PerturbedLattice: EventuallyPeriodicPoints" in out
    results = json.loads(out_path.read_text())["results"]
    # Z; 5/2 and 10/3 against it: the classes of 1/2, 1/3 and 2/3; against each other: +-5/6
    assert results == {"type": "EventuallyPeriodicPoints", "period": "1",
                       "residues": ["0", "1/3", "1/2", "2/3"], "extra": ["-5/6", "5/6"],
                       "removed": [], "accumulation": []}
    with open(instance, encoding="utf-8") as f:
        S = parse_instance(f.read()).objects["S"]
    assert list(map(str, difference_set(S, RealLine()).materialize(-1, 1))) == [
        "-1", "-5/6", "-2/3", "-1/2", "-1/3", "0", "1/3", "1/2", "2/3", "5/6", "1"
    ]


def test_diffset_refuses_a_window_on_any_other_set(tmp_path, capsys):
    # S - S is reported whole for every set, so a window is refused on every
    # one: --window is a usage error, params.window an unknown key (exit 2)
    instance = _perturbed_file(tmp_path, {})
    for path, name in ((f"{INSTANCES}/reciprocal_perturbation.json", "S"),
                       (instance, "S"), (instance, "F")):
        with pytest.raises(SystemExit) as exc:
            main(["diffset", "--instance", path, "--object", name, "--window", "-1", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window -1 1" in capsys.readouterr().err
    instance = _perturbed_file(tmp_path, {"window": ["-1", "1"]})
    for name in ("S", "F"):
        code, _, err = run(capsys, "diffset", "--instance", instance, "--object", name)
        assert code == 2 and "parse error: unknown fields in params: ['window']" in err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "density", "--instance", str(bad), "--notion", "kahane")
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "density", "--instance", "no/such/file.json",
                       "--notion", "kahane")
    assert code == 2


@pytest.mark.parametrize(
    "instance, extra, code",
    [
        ("dirac.json", ["--notion", "window", "--K", "notjson"], 2),
        ("dirac.json", ["--notion", "window", "--r0", "0"], 3),
        ("dirac.json", ["--notion", "window", "--kmax", "-3"], 3),
        ("perturbed_lattice.json", ["--notion", "window", "--r0", "0", "--rmax", "40"], 3),
        # the window profile always runs, so a lattice window on the line is refused
        ("half_pattern.json", ["--notion", "window", "--K", "cube"], 3),
        # profile flags are refused outside --notion window rather than ignored
        ("three_z.json", ["--object", "nu", "--notion", "kahane", "--K", "cube"], 3),
        ("half_pattern.json", ["--notion", "delta", "--tol", "1/10"], 3),
        ("half_pattern.json", ["--notion", "kahane", "--r0", "2"], 3),
        ("three_z.json", ["--object", "A", "--notion", "classical", "--kmax", "2"], 3),
        ("perturbed_lattice.json", ["--notion", "kahane", "--rmax", "40"], 3),
        # a cap below the first radius would leave no radius to report
        ("perturbed_lattice.json", ["--notion", "window", "--r0", "10", "--rmax", "5"], 3),
        # a negative tolerance would run the profile to --kmax and echo tol=-1
        ("half_pattern.json", ["--notion", "window", "--tol", "-1"], 3),
        # --rmax would override --kmax: 7 radii for --kmax 1
        ("perturbed_lattice.json", ["--notion", "window", "--kmax", "1", "--rmax", "1000"], 3),
        # --K auto was read as no --K; it is no shape, so it is refused as any other
        ("half_pattern.json", ["--notion", "window", "--K", "auto", "--kmax", "1"], 2),
    ],
)
def test_bad_window_arguments_keep_exit_contract(capsys, instance, extra, code):
    got, _, err = run(capsys, "density", "--instance", f"{INSTANCES}/{instance}", *extra)
    assert got == code
    assert ("parse error" if code == 2 else "precondition failure") in err


def test_zero_tolerance_is_valid(capsys):
    """tol = 0 asks for equal consecutive ratios: a valid, if strict, schedule."""
    code, _, _ = run(capsys, "density", "--instance", f"{INSTANCES}/half_pattern.json",
                     "--notion", "window", "--tol", "0", "--kmax", "2")
    assert code == 0


@pytest.mark.parametrize(
    "instance, extra, code",
    [
        # oracle flags run only for kahane or delta on a finite group
        ("three_z.json", ["--object", "nu", "--notion", "kahane", "--mode", "oracle"], 3),
        ("three_z.json", ["--object", "nu", "--notion", "kahane", "--cap", "4"], 3),
        ("three_z.json", ["--object", "nu", "--notion", "window", "--cap", "4"], 3),
        ("dirac.json", ["--notion", "delta", "--mode", "oracle"], 3),
        ("z6_pair.json", ["--notion", "classical", "--mode", "oracle"], 3),
        ("z6_pair.json", ["--notion", "window", "--cap", "4"], 3),
        ("z6_pair.json", ["--notion", "delta", "--mode", "oracle", "--cap", "6"], 0),
        ("z6_pair.json", ["--notion", "kahane", "--cap", "4"], 0),
        ("z6_pair.json", ["--notion", "kahane", "--mode", "closed-form"], 0),
        ("three_z.json", ["--object", "nu", "--notion", "kahane", "--mode", "closed-form"], 0),
        # the depth cap runs only for the chain density
        ("three_z.json", ["--object", "nu", "--notion", "window", "--nmax", "3"], 3),
        ("three_z.json", ["--object", "A", "--notion", "classical", "--nmax", "3"], 3),
        ("chain_half.json", ["--notion", "kahane", "--nmax", "3"], 3),
        ("chain_half.json", ["--notion", "hegyvari", "--nmax", "3"], 0),
    ],
)
def test_density_flags_outside_their_run_exit_3(capsys, instance, extra, code):
    got, _, err = run(capsys, "density", "--instance", f"{INSTANCES}/{instance}", *extra)
    assert got == code
    assert ("valid with --notion" in err) == (code == 3)


@pytest.mark.parametrize("mode", ["closed-form", "oracle"])
def test_finite_group_atom_outside_moduli_exit_3(tmp_path, capsys, mode):
    inst = {
        "group": {"family": "finite_abelian", "moduli": [6]},
        "objects": {
            "nu": {"kind": "weighted_diracs", "atoms": [{"point": [7], "weight": "1"}]},
        },
    }
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    code, _, err = run(capsys, "density", "--instance", str(f), "--notion", "kahane",
                       "--mode", mode)
    assert code == 3
    assert "outside the moduli" in err


@pytest.mark.parametrize("module", ["density_lab", "density_lab.cli"])
@pytest.mark.parametrize("extra, code", [(["--K", "notjson"], 2), ([], 0)])
def test_python_m_runs_the_cli(module, extra, code):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "density", "--instance", f"{INSTANCES}/dirac.json",
         "--notion", "window", *extra],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert ("window density: 0" in proc.stdout) == (code == 0)


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("lines_read", [0, 1])
def test_reader_closing_the_pipe_early_is_no_traceback(unbuffered, lines_read):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "density_lab", "density", "--instance",
         f"{INSTANCES}/perturbed_lattice.json", "--notion", "window"],
        env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, 2, 3, 4)
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_instance_param_K_is_a_parse_error(tmp_path, capsys):
    data = json.loads(pathlib.Path(f"{INSTANCES}/half_pattern.json").read_text())
    data["params"] = {"K": "cube"}  # --K cube exits 3; the file key is not read at all
    path = tmp_path / "half_pattern_K.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "density", "--instance", str(path), "--notion", "window")
    assert code == 2
    assert "parse error" in err


def test_cube_scan_over_the_cap_exits_3(tmp_path, capsys):
    inst = {
        "group": {"family": "z_lattice", "dimension": 2},
        "objects": {
            "nu": {
                "kind": "counting",
                "of": {"kind": "periodic_discrete", "period": [2048, 1024], "residues": [[0, 0]]},
            },
        },
    }
    path = tmp_path / "big_torus.json"
    path.write_text(json.dumps(inst))
    code, _, err = run(capsys, "density", "--instance", str(path), "--notion", "window",
                       "--K", "cube", "--kmax", "0")
    assert code == 3
    assert "enumeration cap" in err


Z1 = {"family": "z_lattice", "dimension": 1}
SYNDETIC = ["syndetic", "--set", "S", "--translates", "K"]


def _explicit(*elements):
    return {"kind": "explicit_finite", "elements": [list(e) for e in elements]}


def _periodic(period, *residues):
    return {"kind": "periodic_discrete", "period": period, "residues": [list(r) for r in residues]}


@pytest.mark.parametrize(
    "group, objects, argv, code, expect",
    [
        (Z1, {"A": _periodic([1], (0,))}, ["cover"], 0, "translates B = [(0,)]"),
        ({"family": "finite_abelian", "moduli": [1]}, {"A": _explicit((0,))}, ["cover"], 0,
         "translates B = [(0,)]"),
        (Z1, {"A": _periodic([2, 3], (0, 0))}, ["cover"], 3,
         "a PeriodicDiscrete of period (2, 3) is no subset of ZLattice(dimension=1)"),
        ({"family": "finite_abelian", "moduli": [4]}, {"A": _explicit((7,))}, ["cover"], 3,
         "outside the moduli"),
        (Z1, {"S": _periodic([3], (0,)), "K": _explicit((0, 5), (1, 7), (2, 9))}, SYNDETIC, 3,
         "not an integer 1-tuple"),
        ({"family": "z_lattice", "dimension": 2},
         {"S": _periodic([1100, 1100], (0, 0)), "K": _explicit((0, 0))}, SYNDETIC, 3,
         "enumeration cap"),
    ],
    ids=["period-1", "Z_1", "2d-set-in-Z", "element-outside-moduli", "2d-translates-in-Z",
         "quotient-over-cap"],
)
def test_discrete_quotient_inputs_keep_exit_contract(tmp_path, capsys, group, objects, argv,
                                                     code, expect):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"group": group, "objects": objects}))
    got, out, err = run(capsys, argv[0], "--instance", str(path), *argv[1:])
    assert got == code
    assert expect in (out if code == 0 else err)


@pytest.mark.parametrize("objects, argv, expect", [
    # a lattice set whose period is not the lattice's dimension
    ({"A": _periodic([5, 3], (1, 2))}, ["diffset"], "PeriodicDiscrete of period (5, 3)"),
    # syndetic names its sets with --set and --translates; --object was read nowhere
    ({"S": _periodic([2], (0,)), "K": _explicit((0,), (1,))}, SYNDETIC + ["--object", "S"],
     "--object: syndetic names its sets"),
    ({"S": _periodic([2], (0,)), "K": _explicit((0,))}, ["syndetic"], "pick one with --set"),
], ids=["2d-lattice-diffset", "syndetic-object", "syndetic-no-set"])
def test_discrete_inputs_and_flags_a_run_would_misread_exit_3(tmp_path, capsys, objects, argv,
                                                              expect):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"group": Z1, "objects": objects}))
    code, _, err = run(capsys, argv[0], "--instance", str(path), *argv[1:])
    assert code == 3
    assert expect in err


@pytest.mark.parametrize("command", ["partition", "pipeline"])
def test_finite_points_H_exits_3(tmp_path, capsys, command):
    inst = {
        "group": {"family": "real_line"},
        "objects": {
            "S": {"kind": "periodic_points", "period": "1", "residues": ["0"]},
            "H": {"kind": "finite_points", "points": ["0"]},
        },
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, _, err = run(capsys, command, "--instance", str(path), "--object", "S", "--H", "H")
    assert code == 3
    assert "H must be an interval union" in err


@pytest.mark.parametrize(
    "group, period, message",
    [
        ({"family": "z_lattice", "dimension": 1}, ["1/2"], "not an integer: '1/2'"),
        ({"family": "z_lattice", "dimension": True}, [3], "not a rational: True"),
        ({"family": "z_lattice", "dimension": 1}, [2.5], "not a rational: 2.5"),
    ],
)
def test_wrongly_typed_integer_fields_exit_2(tmp_path, capsys, group, period, message):
    # a fraction, a bool or a float in an integer field is a parse error, not
    # a traceback, and not silently read as the integer 1 or 2
    inst = {
        "group": group,
        "objects": {"S": {"kind": "periodic_discrete", "period": period, "residues": [[0]]}},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, err = run(capsys, "cover", "--instance", str(path), "--object", "S")
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("moduli, cap", [([11], "11"), ([2, 2, 2, 2, 2], "32")],
                         ids=["Z_11", "Z_2^5"])
def test_oracle_cap_past_the_pair_bound_exits_3(tmp_path, capsys, moduli, cap):
    # the order cap may be raised, but (2^n - 1)^2 (C, V) pairs stay within
    # the enumeration cap, so n <= 10 as for selftest
    inst = {
        "group": {"family": "finite_abelian", "moduli": moduli},
        "objects": {"nu": {"kind": "counting",
                           "of": {"kind": "explicit_finite", "elements": [[0] * len(moduli)]}}},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, _, err = run(capsys, "density", "--instance", str(path), "--notion", "kahane",
                       "--mode", "oracle", "--cap", cap)
    assert code == 3
    assert "pairs exceed the enumeration cap" in err


def test_selftest_cap_above_the_maximum_exits_3(capsys):
    code, _, err = run(capsys, "selftest", "--cap", "11")
    assert code == 3
    assert "selftest cap 11 above the configured maximum" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_selftest_cap_below_1_exits_3(capsys, cap):
    code, out, err = run(capsys, "selftest", "--cap", cap)
    assert code == 3
    assert f"selftest cap {cap} is below 1" in err
    assert "mismatches" not in out


def test_selftest_counts_a_witness_C_with_a_V_above_the_bound(capsys, monkeypatch):
    """A search that returns C = {0} at the right ratio: only the scan of
    every V sees that some V lies above |A|/|G| for every A other than the
    empty set and G."""
    inf_sup = density._inf_sup

    def singleton_C(nu_of, sums):
        num, den, _, V = inf_sup(nu_of, sums)
        return num, den, 1, V

    monkeypatch.setattr(density, "_inf_sup", singleton_C)
    code, out, _ = run(capsys, "selftest", "--cap", "3")
    assert code == 4
    assert "selftest: 3 groups, 14 subsets, 8 mismatches" in out
    assert ("FIRST MISMATCH: group (2,) subset mask 1: got 1/2, expected 1/2; "
            "at C mask 1, V mask 1 lies above 1/2") in out


LINE = {"family": "real_line"}
WINDOW = ["density", "--object", "nu", "--notion", "window"]
DIRAC = {"nu": {"kind": "dirac_at_zero"}}


def _with_params(**params):
    return {"group": LINE, "objects": DIRAC, "params": params}


@pytest.mark.parametrize(
    "document, argv",
    [
        ({"group": LINE, "objects": []}, ["cover"]),
        ({"group": LINE, "objects": {"S": None}}, ["cover"]),
        ({"group": LINE, "objects": {"S": [{"kind": "dirac_at_zero"}]}}, ["cover"]),
        ({"group": LINE, "objects": {"S": {"kind": "interval_union",
                                           "intervals": [["0", "1", "2"]]}}}, ["cover"]),
        ({"group": LINE, "objects": {"S": {"kind": "periodic_pattern", "period": "1",
                                           "pattern": "ab"}}}, ["cover"]),
        ({"group": LINE, "objects": {"S": {"kind": "interval_union", "intervals": ["01"]}}},
         ["diffset"]),
        ({"group": LINE, "objects": {"S": {"kind": "finite_points", "points": "12"}}},
         ["diffset"]),
        ({"group": {"family": "finite_abelian", "moduli": "35"},
          "objects": {"S": {"kind": "explicit_finite", "elements": [[0, 0], [1, 1]]}}},
         ["cover"]),
        ({"group": {"family": "z_lattice", "dimension": 2},
          "objects": {"S": {"kind": "periodic_discrete", "period": [2, 2], "residues": ["01"]}}},
         ["cover"]),
        (_with_params(k_max="1/2"), WINDOW),
        (_with_params(k_max=float("inf")), WINDOW),  # the JSON number 1e400
        (_with_params(k_max=True), WINDOW),
        (_with_params(k_max=2.5), WINDOW),
        (_with_params(window="x"), ["diffset"]),
        (_with_params(window={}), ["diffset"]),
        (_with_params(tol="abc"), ["pipeline"]),
        ({"group": LINE, "objects": {"S": {"kind": "finite_points", "points": ["1"],
                                           "accumulation": [{"point": "0", "side": "sideways"}]}}},
         ["diffset"]),
    ],
    ids=["objects-list", "object-null", "object-list", "interval-of-three", "pattern-string",
         "interval-string", "points-string", "moduli-string", "residue-string", "k_max-fraction",
         "k_max-1e400", "k_max-bool", "k_max-float", "window-string", "window-object",
         "tol-under-pipeline", "accumulation-side"],
)
def test_malformed_documents_exit_2(tmp_path, capsys, document, argv):
    # each was once a traceback (exit 1), a precondition failure (exit 3) or a
    # run on a set the document does not describe (exit 0)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(document).replace("Infinity", "1e400"))
    code, _, err = run(capsys, argv[0], "--instance", str(path), *argv[1:])
    assert code == 2
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["cover"], ["diffset"], ["pipeline"], WINDOW,
                                  ["density", "--object", "nu", "--notion", "kahane"]])
def test_a_bad_param_exits_2_under_every_subcommand(tmp_path, capsys, argv):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_with_params(tol="abc")))
    code, _, err = run(capsys, argv[0], "--instance", str(path), *argv[1:])
    assert code == 2
    assert "parse error: not a rational: 'abc'" in err


PERIODIC = {"group": LINE, "objects": {"S": {"kind": "periodic_points", "period": "1e99999999",
                                               "residues": ["0"]}}}


@pytest.mark.parametrize(
    "document, argv, text",
    [
        (PERIODIC, ["cover", "--object", "S"], "1e99999999"),
        (_with_params(), [*WINDOW, "--tol", "1e99999999"], "1e99999999"),
        (_with_params(tol="0.5"), WINDOW, "0.5"),
        (_with_params(), [*WINDOW, "--r0", "1e3"], "1e3"),
    ],
    ids=["period-exponent", "tol-exponent", "tol-decimal", "r0-exponent"],
)
def test_only_integers_and_p_over_q_are_rationals(tmp_path, capsys, document, argv, text):
    # Fraction would expand "1e99999999" into a 100-million-digit int first
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(document))
    start = time.perf_counter()
    code, _, err = run(capsys, argv[0], "--instance", str(path), *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"parse error: not a rational: '{text}'" in err


def test_integer_string_params_stay_accepted(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_with_params(k_max="3", r0="2")))
    code, out, _ = run(capsys, *WINDOW, "--instance", str(path))
    assert code == 0 and "window density: 0" in out
    path.write_text(json.dumps(_with_params(r0="0")))  # range checks stay exit 3
    assert run(capsys, *WINDOW, "--instance", str(path))[0] == 3
    path.write_text(json.dumps(_with_params(k_max=-1)))
    assert run(capsys, *WINDOW, "--instance", str(path))[0] == 3


def test_window_profile_stops_at_the_cap_while_kahane_is_exact(tmp_path, capsys):
    # the profile is evidence and enumerates the period torus, so 10^10 cube
    # centers exit 3; the exact value comes from the closed form
    inst = {
        "group": {"family": "z_lattice", "dimension": 2},
        "objects": {
            "nu": {"kind": "counting", "of": {
                "kind": "periodic_discrete", "period": [100000, 100000], "residues": [[0, 0]]}},
        },
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, _, err = run(capsys, "density", "--instance", str(path), "--notion", "window")
    assert code == 3
    assert "10000000000 cube centers exceed the enumeration cap" in err
    code, out, _ = run(capsys, "density", "--instance", str(path), "--notion", "kahane")
    assert code == 0
    assert "kahane density: 1/10000000000" in out


def test_syndetic_verification_failure_exit_4(tmp_path, capsys):
    inst = {
        "group": {"family": "z_lattice", "dimension": 1},
        "objects": {
            "S": {"kind": "periodic_discrete", "period": [3], "residues": [[0]]},
            "K": {"kind": "explicit_finite", "elements": [[0], [1]]},
        },
    }
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "syndetic", "--instance", str(f),
                       "--set", "S", "--translates", "K")
    assert code == 4
    assert "least uncovered point: (2,)" in out
    inst["objects"]["K"]["elements"].append([2])
    f.write_text(json.dumps(inst))
    code2, out2, _ = run(capsys, "syndetic", "--instance", str(f),
                         "--set", "S", "--translates", "K")
    assert code2 == 0 and "verified" in out2


def test_syndetic_lists_32_cells_and_counts_the_rest(tmp_path, capsys):
    inst = {"group": Z1, "objects": {"S": _periodic([40], (0,)),
                                     "K": _explicit(*[(k,) for k in range(40)])}}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    code, out, _ = run(capsys, *SYNDETIC, "--instance", str(f))
    assert code == 0
    assert "  (31,) -> (31,)\n  ... 8 more cells\n" in out and "(32,) ->" not in out


def test_a_verification_failure_exits_4_with_its_counterexample(monkeypatch, capsys):
    def refuted(args):
        raise VerificationError("cover check failed", counterexample=(3, Fraction(1, 2)))

    monkeypatch.setitem(cli.HANDLERS, "demo", refuted)
    code, _, err = run(capsys, "demo", "totik")
    assert code == 4
    assert err == ("verification failure: cover check failed\n"
                   "counterexample: (3, Fraction(1, 2))\n")


def test_demos_run_clean(capsys):
    for name in ("totik", "accumulation", "erdos-sarkozy", "hegyvari", "theorem3"):
        code, out, _ = run(capsys, "demo", name)
        assert code == 0, name


def test_demo_totik_exhibits_gap(capsys):
    code, out, _ = run(capsys, "demo", "totik")
    assert code == 0
    assert "1000000" in out           # the eta schedule reaches 10^6
    assert "1/2000000" in out         # window profile value at r = 10^6


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--cap", "4")
    assert code == 0
    assert "0 mismatches" in out


def test_selftest_trivial_group(capsys):
    code, out, _ = run(capsys, "selftest", "--cap", "1")
    assert code == 0


def test_report_determinism(tmp_path, capsys):
    # identical invocation twice: byte-identical report modulo the wall time
    out = tmp_path / "report.json"
    texts = []
    for _ in range(2):
        code, _, _ = run(
            capsys, "density", "--instance", f"{INSTANCES}/three_z.json",
            "--object", "nu", "--notion", "kahane", "--out", str(out),
        )
        assert code == 0
        texts.append(out.read_text())
    a, b = (json.loads(t) for t in texts)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_window_density_of_an_accumulating_configuration_prints_its_certificate(tmp_path, capsys):
    path = tmp_path / "accumulating.json"
    path.write_text(json.dumps({
        "group": {"family": "real_line"},
        "objects": {"nu": {"kind": "counting", "of": {
            "kind": "finite_points", "points": ["1", "1/2", "1/3"],
            "accumulation": [{"point": "0", "side": "above"}]}}},
    }))
    code, out, _ = run(capsys, "density", "--instance", str(path), "--notion", "window")
    assert code == 0
    assert "window density: Infinite (certified: accumulation window)" in out
    assert out.splitlines()[-1].split() == ["8", "Infinite", "8"]  # one row: the schedule stops


@pytest.mark.parametrize("command", ["partition", "pipeline"])
def test_an_h_whose_difference_set_is_over_the_cap_exits_3(tmp_path, capsys, command):
    """H of 1,100 intervals: H - H would form 1,210,000 pairs."""
    path = tmp_path / "wide_h.json"
    path.write_text(json.dumps({
        "group": {"family": "real_line"},
        "objects": {
            "S": {"kind": "periodic_points", "period": "1000000", "residues": ["0"]},
            "H": {"kind": "interval_union",
                  "intervals": [[str(3 * k), str(3 * k + 1)] for k in range(1100)]},
        },
    }))
    code, _, err = run(capsys, command, "--instance", str(path), "--object", "S", "--H", "H")
    assert code == 3
    assert "the interval sum: 1210000 pairs exceed the enumeration cap 1048576" in err
