import os
import pathlib

import pytest


@pytest.fixture(autouse=True, scope="session")
def _run_from_repo_root():
    # instance files are referenced relative to the repository root
    root = pathlib.Path(__file__).resolve().parent.parent
    old = os.getcwd()
    os.chdir(root)
    yield
    os.chdir(old)


def pytest_terminal_summary(terminalreporter):
    # the src/ line count (ROADMAP aim 2) beside the slowest tests (--durations)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    terminalreporter.write_sep("=", f"src/ is {lines} lines")
