"""Golden CLI reports: every subcommand and notion on every instance file, every
demo, the self-test and a set of window scans, run in-process through
`cli.main`. `golden_reports.json` maps each argv (joined by single spaces) to
its exit code, the SHA-256 of its `--out` report with `wall_time_s` and
`command` removed (null when the run writes no report), and the SHA-256 of
its stdout and of its stderr. In the streams the `--out` path reads `<out>`
and the self-test's seconds read `<t>s`; each warning the run raises is
appended to stderr as one `warning: <message>` line, so a warning that the
run repeats counts every time. Refactors must keep every entry unchanged. A change that means to alter reports rewrites the file
with `PYTHONPATH=src python tests/test_golden_reports.py`, run from the repo
root, and names every changed entry.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re
import tempfile
import warnings

from density_lab.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
NOTIONS = ("classical", "window", "kahane", "delta", "hegyvari")
SUBCOMMANDS = ("diffset", "cover", "partition", "pipeline", "syndetic")
SPLIT_K = '[["0","1/2"],["3/4","5/4"]]'
EXTRA = [
    ["density", "--instance", "instances/chain_half.json", "--notion", "hegyvari", "--nmax", "3"],
    ["density", "--instance", "instances/z6_pair.json", "--notion", "kahane", "--mode", "oracle"],
    ["density", "--instance", "instances/z6_pair.json", "--notion", "delta", "--mode", "oracle"],
    ["density", "--instance", "instances/z6_pair.json", "--notion", "kahane", "--mode", "oracle",
     "--cap", "4"],
    ["density", "--instance", "instances/dirac.json", "--notion", "window", "--K", "notjson"],
    ["density", "--instance", "instances/half_pattern.json", "--notion", "window", "--K", SPLIT_K],
    ["density", "--instance", "instances/half_pattern.json", "--notion", "window",
     "--K", SPLIT_K, "--r0", "8", "--kmax", "8"],
    ["density", "--instance", "instances/half_pattern.json", "--notion", "window",
     "--K", "interval", "--kmax", "4"],
    ["density", "--instance", "instances/half_pattern.json", "--notion", "window", "--K", "cube"],
    ["density", "--instance", "instances/half_pattern.json", "--notion", "window", "--tol", "-1"],
    ["density", "--instance", "instances/perturbed_lattice.json", "--notion", "window",
     "--rmax", "40"],
    ["density", "--instance", "instances/perturbed_lattice.json", "--notion", "window",
     "--r0", "10", "--rmax", "40", "--tol", "1/1000000"],
    ["density", "--instance", "instances/perturbed_lattice.json", "--notion", "window",
     "--K", '[["0","1"]]', "--kmax", "3"],
    ["density", "--instance", "instances/three_z.json", "--object", "nu", "--notion", "window",
     "--K", "cube", "--r0", "3", "--kmax", "3"],
    ["diffset", "--instance", "instances/reciprocal_perturbation.json", "--object", "S",
     "--window", "-1", "1"],
    ["pipeline", "--instance", "instances/two_residues.json", "--object", "S", "--H", "H"],
    ["pipeline", "--instance", "instances/two_residues.json", "--object", "S", "--epsilon", "1/4"],
    ["selftest", "--cap", "6"],
]
DEMOS = ("totik", "accumulation", "erdos-sarkozy", "hegyvari", "theorem3")


def _argvs():
    out = []
    for path in sorted(pathlib.Path("instances").glob("*.json")):
        objects = sorted(json.loads(path.read_text(encoding="utf-8"))["objects"])
        picks = [[]] if len(objects) == 1 else [["--object", name] for name in objects]
        for pick in picks:
            base = ["--instance", f"instances/{path.name}", *pick]
            out += [["density", *base, "--notion", notion] for notion in NOTIONS]
            out += [[command, *base] for command in SUBCOMMANDS]
    out += [["demo", name] for name in DEMOS]
    return out + EXTRA


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_one(argv, out_dir) -> dict:
    """Exit code, report digest and stream digests of one in-process CLI run."""
    out = pathlib.Path(out_dir) / "report.json"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    digest = None
    if out.exists():
        report = json.loads(out.read_text(encoding="utf-8"))
        del report["wall_time_s"], report["command"]
        canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
        digest = _sha256(canonical)
    err = stderr.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)
    streams = [text.replace(str(out), "<out>") for text in (stdout.getvalue(), err)]
    if argv[0] == "selftest":
        streams = [re.sub(r"\d+\.\d\ds\b", "<t>s", text) for text in streams]
    return {
        "exit": code,
        "sha256": digest,
        "stdout_sha256": _sha256(streams[0]),
        "stderr_sha256": _sha256(streams[1]),
    }


def test_golden_reports(tmp_path):
    argvs = _argvs()
    assert all(" " not in arg for argv in argvs for arg in argv)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {" ".join(argv): run_one(argv, tmp_path) for argv in argvs}
    assert sorted(got) == sorted(golden)
    changed = {key: (golden[key], got[key]) for key in got if got[key] != golden[key]}
    assert not changed, changed


def regenerate():
    """Rewrite golden_reports.json from the current code, and print the argv
    of every entry that was added, changed or dropped."""
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as out_dir:
        golden = {" ".join(argv): run_one(argv, out_dir) for argv in _argvs()}
    for key in sorted(old.keys() | golden.keys()):
        if old.get(key) != golden.get(key):
            print("added" if key not in old else "dropped" if key not in golden else "changed", key)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
