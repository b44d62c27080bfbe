#!/usr/bin/env python3
"""Stdlib line coverage of src/density_lab under the test suite.

Runs pytest in this process under a sys.settrace / threading.settrace line
tracer limited to the files of src/density_lab, then lists, per module, the
statements in function bodies that never ran (docstrings skipped). A
compound statement counts as run when its header line or its first body
statement ran. If any test fails, it lists nothing and exits with pytest's
code: the tracer of hypothesis's failure explanation replaces this one.

    python scripts/src_coverage.py                       # the whole suite
    python scripts/src_coverage.py tests/test_groups.py  # any pytest arguments
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "density_lab"


def function_statements(tree: ast.AST) -> dict[int, range]:
    """{first line: the lines that show it ran} for each statement inside a
    function body, docstrings skipped."""
    out = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        for stmt in (s for top in body for s in ast.walk(top) if isinstance(s, ast.stmt)):
            inner = getattr(stmt, "body", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
                out[stmt.lineno] = range(first, stmt.lineno + 1)
            elif isinstance(inner, list) and inner:
                out[stmt.lineno] = range(stmt.lineno, inner[0].lineno + 1)
            else:
                out[stmt.lineno] = range(stmt.lineno, stmt.end_lineno + 1)
    return out


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: 3, 7-9."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs) or "-"


def main(argv: list[str]) -> int:
    src = str(SRC)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(src):
            return None
        ran.setdefault(name, set())
        return local

    sys.path.insert(0, str(SRC.parent))
    import pytest

    outer = sys.gettrace(), threading.gettrace()  # a run nested in a traced run
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        replaced = sys.gettrace() is not tracer
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    if code != 0:
        print(f"src_coverage: pytest exited {int(code)}; no coverage listed", file=sys.stderr)
        return int(code) or 1
    if replaced:
        print("src_coverage: another tracer replaced the line tracer; no coverage listed",
              file=sys.stderr)
        return 1
    print(f"statements in function bodies of {SRC.relative_to(ROOT)} that never ran:")
    for path in sorted(SRC.glob("*.py")):
        statements = function_statements(ast.parse(path.read_text(encoding="utf-8")))
        lines = ran.get(str(path), set())
        missed = sorted(n for n, shown in statements.items() if lines.isdisjoint(shown))
        print(f"{path.name}: {len(missed)} of {len(statements)}: {spans(missed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
