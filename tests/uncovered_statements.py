"""List the `src/gapsym` statements that the test suite never runs.

Run from the repository root:

    python tests/uncovered_statements.py [pytest arguments]

It runs pytest on `tests/` (or on the given arguments) in this process,
with a `sys.settrace` line tracer on every frame whose code lies in
`src/gapsym`, and then prints each statement of those modules whose lines
never ran, as `path:line: source`, and their count.  A statement counts as
run when a line of it ran, before its body for a compound statement; the
docstrings that `count_code_lines.py` finds are no statements.  Code that a test runs in a subprocess (the
demos in `tests/test_demos.py`, the fresh-process CLI checks) is not
traced, and the trace makes the run a few times slower.  The exit code is
pytest's.  Only the standard library and pytest are used, and pytest does
not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

from count_code_lines import _docstring_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapsym"


def _statements(tree: ast.Module):
    """(first line, last line) of each statement outside the docstrings;
    a compound statement's lines end before its body."""
    docstrings = _docstring_lines(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not (isinstance(node, ast.Expr) and node.lineno in docstrings):
            start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            yield start, max(start, end)


def _trace(ran: defaultdict):
    """A global trace function that records, per file, the lines run in
    frames of `PACKAGE` code and traces no other frame."""
    prefix = str(PACKAGE) + "/"

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    return on_call


def main(args) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    ran = defaultdict(set)
    trace = _trace(ran)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        hit = ran[str(path)]
        for first, last in sorted(_statements(ast.parse(source))):
            if hit.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
