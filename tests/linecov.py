"""Statements in src/bsnsim that the tier-1 suite never runs.

Run from the repository root:

    PYTHONPATH=src python tests/linecov.py [extra pytest arguments]

A `sys.settrace` line tracer is installed before `bsnsim` is imported, and
the tier-1 suite runs under it, less acceptance test 01: under the tracer
that test cannot meet its 60 s gate, and the other tests run its code
serially. The script prints each file's unexecuted statements and their
total, and exits with pytest's status.

A statement is every `ast` statement except `def`/`class` lines, docstrings,
`global`/`nonlocal` declarations and `try` headers, which compile to no
line of their own. A compound statement counts as run when a line of its
header runs. Forked pool workers are not traced, so the bodies of
`runner._init_worker` and `runner._pool_run` are listed although the pool
tests run them, and so is the `sys.exit(main())` under `cli.py`'s
`if __name__ == "__main__"`.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bsnsim"
SKIPPED_TEST = "tests/test_acceptance.py::test_01_fig2_ordering"

# statements that compile to no line of their own
_NO_LINE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global,
            ast.Nonlocal, ast.Try)
_DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(source: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines on which running it
    shows: the whole of a simple statement, the header of a compound one."""
    out: dict[int, range] = {}
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if not isinstance(stmts, list):
                continue  # the expression body of a lambda or an `a if c else b`
            if (field == "body" and isinstance(node, _DOCUMENTED)
                    and ast.get_docstring(node, clean=False) is not None):
                stmts = stmts[1:]
            for stmt in stmts:
                if isinstance(stmt, _NO_LINE):
                    continue
                inner = getattr(stmt, "body", None)
                end = inner[0].lineno - 1 if isinstance(inner, list) else stmt.end_lineno
                out[stmt.lineno] = range(stmt.lineno, max(end, stmt.lineno) + 1)
    return out


def main(argv: list[str]) -> int:
    executed: set[tuple[str, int]] = set()
    prefix = str(SRC) + os.sep
    record = executed.add

    def local(frame, event, _arg):
        if event == "line":
            record((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path[0] = str(ROOT)  # as `python -m pytest` from the root has it
    # a forked pool worker runs untraced, at full speed
    os.register_at_fork(after_in_child=lambda: sys.settrace(None))
    sys.settrace(global_)
    import pytest  # bsnsim is first imported by the test modules

    status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect",
                          SKIPPED_TEST, str(ROOT / "tests"), *argv])
    sys.settrace(None)

    total = 0
    for path in sorted(SRC.rglob("*.py")):
        name = str(path)
        missed = [line for line, shown in sorted(
            statements(path.read_text()).items())
            if not any((name, n) in executed for n in shown)]
        if missed:
            total += len(missed)
            print(f"{path.relative_to(ROOT)}: {len(missed)} unexecuted: "
                  + ", ".join(map(str, missed)))
    print(f"unexecuted statements in {SRC.relative_to(ROOT)}: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
