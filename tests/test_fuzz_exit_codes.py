"""Exit-code contract under instance fuzzing: random instance documents drawn
from the instance table (tests/documents.py), with S and H of every object
kind on every group family and optional params, run in-process through
`cli.main` on partition, pipeline, cover, diffset and density. Every run
must end in exit 0, 2, 3 or 4; no exception may escape. A document with one
field the table rejects exits 2, unless the rest of it already fails a
constructor's range check (exit 3). Random argv over the instance files
keeps the same contract, within a time bound per run, and an empty value
for any value flag of any subcommand is parsed, never read as an unset flag.
"""

import argparse
import contextlib
import io
import json
import pathlib
import time

import pytest
from documents import documents, malformed_documents
from hypothesis import HealthCheck, given, settings, strategies as st

from density_lab import InstanceParseError, PreconditionError, parse_instance
from density_lab.cli import build_parser, main

RUNS = st.sampled_from([
    ["partition", "--object", "S", "--H", "H"],
    ["pipeline", "--object", "S"],
    ["pipeline", "--object", "S", "--H", "H"],
    ["cover", "--object", "S"],
    ["diffset", "--object", "S"],
    ["density", "--object", "S", "--notion", "kahane"],
])
SLOW = [HealthCheck.too_slow, HealthCheck.data_too_large]


def run_main(tmp_path_factory, document, run) -> int:
    path = tmp_path_factory.getbasetemp() / "fuzz_instance.json"
    path.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([run[0], "--instance", str(path), *run[1:]])


@pytest.mark.filterwarnings("ignore:difference set of an empty set")
@settings(max_examples=150, deadline=None, suppress_health_check=SLOW)
@given(documents(), RUNS)
def test_random_instances_keep_the_exit_code_contract(tmp_path_factory, document, run):
    assert run_main(tmp_path_factory, document, run) in (0, 2, 3, 4)


@settings(max_examples=100, deadline=None, suppress_health_check=SLOW)
@given(malformed_documents(), RUNS)
def test_malformed_instances_exit_2(tmp_path_factory, case, run):
    bad, base = case
    try:
        parse_instance(json.dumps(base))
        base_error = None
    except (InstanceParseError, PreconditionError) as exc:
        base_error = exc
    code = run_main(tmp_path_factory, bad, run)
    assert code == 2 or (code == 3 and isinstance(base_error, PreconditionError))


# ---------------------------------------------------------------------------
# random argv over instances/*.json

INSTANCE_FILES = sorted(pathlib.Path(__file__).parent.parent.glob("instances/*.json"))
JUNK = ["1e99999999", "x", "-1", "[]", ""]
RATIONALS = ["1/2", "2", "8", "0"]
INTEGERS = ["0", "2"]
NAMES = None  # the object names of the instance
FLAGS = {  # subcommand -> {flag: its valid values}
    "density": {
        "--notion": ["classical", "window", "kahane", "delta", "hegyvari"],
        "--K": ["cube", "interval", '[["0","1/2"],["3/4","5/4"]]', '[["0","1e99999999"]]'],
        "--tol": RATIONALS, "--r0": RATIONALS, "--rmax": RATIONALS,
        "--kmax": INTEGERS, "--nmax": INTEGERS, "--cap": INTEGERS,
        "--mode": ["closed-form", "oracle"],
    },
    "diffset": {},
    "syndetic": {"--set": NAMES, "--translates": NAMES},
    "cover": {},
    "partition": {"--H": NAMES},
    "pipeline": {"--H": NAMES, "--epsilon": RATIONALS},
}


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refuses a usage error with exit 2
            return exc.code


@st.composite
def argvs(draw):
    """A subcommand on an instance file and an --object, with a random subset
    of the subcommand's flags (density always gets a --notion, without which
    it is a usage error). Each value is a valid one three times in four, else
    junk."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    path = draw(st.sampled_from(INSTANCE_FILES))
    names = list(json.loads(path.read_text())["objects"])

    def pick(valid):
        return draw(st.sampled_from((valid or names) if draw(st.integers(0, 3)) else JUNK))

    argv = [command, "--instance", str(path), "--object", pick(names)]
    flags = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)) if flags else []
    for flag in (["--notion"] if command == "density" else []) + chosen:
        argv += [flag, pick(flags[flag])]
    return argv


@settings(max_examples=120, deadline=None, suppress_health_check=SLOW)
@given(argvs())
def test_random_argv_keeps_the_exit_code_contract(argv):
    start = time.perf_counter()
    assert _exit_code(argv) in (0, 2, 3, 4)
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# an empty string for every value flag

SYNDETIC = {"group": {"family": "z_lattice", "dimension": 1}, "objects": {
    "S": {"kind": "periodic_discrete", "period": [3], "residues": [[0]]},
    "K": {"kind": "explicit_finite", "elements": [[0], [1], [2]]}}}
RUNS_OK = {  # subcommand -> an argv that exits 0 (syndetic: on the SYNDETIC file)
    "density": ["--instance", "instances/perturbed_lattice.json", "--notion", "window"],
    "diffset": ["--instance", "instances/three_z.json", "--object", "A"],
    "syndetic": ["--set", "S", "--translates", "K"],
    "cover": ["--instance", "instances/three_z.json", "--object", "A"],
    "partition": ["--instance", "instances/two_residues.json", "--object", "S"],
    "pipeline": ["--instance", "instances/two_residues.json", "--object", "S"],
    "demo": ["erdos-sarkozy"],
    "selftest": ["--cap", "2"],
}


def _value_flags():
    """(subcommand, flag) for every option of the CLI that takes a value."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0]) for name, sub in commands.choices.items()
            for action in sub._actions if action.option_strings and action.nargs != 0]


@pytest.mark.filterwarnings("ignore:difference set of an empty set")
@pytest.mark.parametrize("command, flag", _value_flags())
def test_an_empty_flag_value_is_refused_not_read_as_unset(tmp_path, command, flag):
    # an empty --rmax, --tol, --r0, --epsilon, --H, --object or --out was
    # once read as an unset flag, so the run went on to exit 0
    argv = [command, *RUNS_OK[command]]
    if command == "syndetic":
        path = tmp_path / "syndetic.json"
        path.write_text(json.dumps(SYNDETIC))
        argv += ["--instance", str(path)]
    assert _exit_code(argv) == 0
    assert _exit_code([*argv, flag, ""]) in (2, 3)


# ---------------------------------------------------------------------------
# a file that cannot be read or written

READS_INSTANCE = ("density", "diffset", "syndetic", "cover", "partition", "pipeline")


def _on_instance(command, path) -> list:
    """The RUNS_OK argv of command, reading the instance at path."""
    argv = [command, *RUNS_OK[command]]
    if "--instance" in argv:
        argv[argv.index("--instance") + 1] = str(path)
        return argv
    return [*argv, "--instance", str(path)]


@pytest.mark.parametrize("bad", ["directory", "not-utf-8"])
@pytest.mark.parametrize("command", READS_INSTANCE)
def test_an_unreadable_instance_exits_2(tmp_path, capsys, command, bad):
    # a directory or a non-UTF-8 file once raised a traceback with exit 1
    path = tmp_path / "instance.json"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    assert main(_on_instance(command, path)) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.filterwarnings("ignore:difference set of an empty set")
@pytest.mark.parametrize("command", sorted(RUNS_OK))
def test_an_out_path_that_is_a_directory_exits_2(tmp_path, capsys, command):
    argv = [command, *RUNS_OK[command]]
    if command == "syndetic":
        path = tmp_path / "syndetic.json"
        path.write_text(json.dumps(SYNDETIC))
        argv += ["--instance", str(path)]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "parse error: [Errno 21] Is a directory" in capsys.readouterr().err
