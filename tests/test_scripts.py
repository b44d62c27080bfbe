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
