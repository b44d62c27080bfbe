"""The scripts under scripts/ run in-process and print what they promise."""

import runpy
import sys
from pathlib import Path

import pytest

GALLERY = Path(__file__).resolve().parents[1] / "scripts" / "pipeline_gallery.py"


@pytest.mark.parametrize("argv, auto_rows", [([], 4), (["--no-auto"], 0)])
def test_pipeline_gallery_prints_every_row(monkeypatch, capsys, argv, auto_rows):
    monkeypatch.setattr(sys, "argv", [str(GALLERY), *argv])
    namespace = runpy.run_path(str(GALLERY), run_name="__main__")
    header, rule, *rows = capsys.readouterr().out.splitlines()
    names = [name for name, _, _ in namespace["GALLERY"]]
    expected = names + [f"auto {name}" for name in names[:auto_rows]]
    assert header.startswith("instance") and set(rule) == {"-"}
    assert len(rows) == len(expected)
    for row, name in zip(rows, expected):
        assert row.startswith(f"{name} ") and row.endswith(("ok", "exceeds"))


COVERAGE = GALLERY.with_name("src_coverage.py")


def _statement_line(module: str, text: str) -> int:
    lines = (COVERAGE.parents[1] / "src" / "density_lab" / module).read_text().splitlines()
    (number,) = [n for n, line in enumerate(lines, 1) if line.strip() == text]
    return number


def _never_ran(out: str) -> dict[str, set[int]]:
    """{module: the lines the report lists} from its `name: k of n: runs` rows."""
    listed = {}
    for row in out.splitlines():
        name, sep, rest = row.partition(".py: ")
        if sep and " of " in rest:
            runs = rest.split(": ", 1)[1]
            listed[name + ".py"] = {n for run in runs.split(", ") if run != "-"
                                    for a, _, b in [run.partition("-")]
                                    for n in range(int(a), int(b or a) + 1)}
    return listed


def test_src_coverage_lists_what_never_ran(capsys):
    """On one chain test: SigmaFiniteChain.subgroup's return ran, the
    pipeline's first statement did not; a run with no test passing lists
    nothing and exits non-zero."""
    main = runpy.run_path(str(COVERAGE))["main"]
    assert main(["tests/test_groups.py", "-k", "test_chain_subgroups"]) == 0
    listed = _never_ran(capsys.readouterr().out)
    assert _statement_line("groups.py", "return FiniteAbelian(self.moduli[:n])") \
        not in listed["groups.py"]
    assert _statement_line("structure.py", "fat = fatten(part.classes[j], H, group)") \
        in listed["structure.py"]
    assert main(["tests/test_groups.py", "-k", "no_such_test"]) != 0
    assert _never_ran(capsys.readouterr().out) == {}
