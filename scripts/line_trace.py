#!/usr/bin/env python3
"""Print each statement of `src/hodgedim` that the test suite never runs.

A line trace with the standard library's `sys.settrace` (coverage.py is not
needed): the suite runs in process under pytest, with the package imported
from this checkout's `src/`, and every line event in a file of the package
is recorded. A statement counts as run when a line event fires on one of
its own lines: a compound statement's header, a simple statement's whole
extent. Statements without bytecode (docstrings, `global`) are skipped.
Work done in subprocesses is not seen.

    python3 scripts/line_trace.py                  # the tier-1 suite, tests/
    python3 scripts/line_trace.py tests/test_cli.py -k decompose

Prints `path:line: source` for each statement not run, and exits 0 when
there is none and the suite passed, 1 otherwise. A traced suite runs about
three times slower than an untraced one.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgedim"


def _code_lines(code) -> set:
    """Lines that carry bytecode in `code` and the code objects it holds."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict:
    """First line -> the lines that count as running it, for each statement
    of the file that carries bytecode."""
    source = path.read_text()
    tree = ast.parse(source)
    code = _code_lines(compile(source, str(path), "exec"))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        body = [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
        last = min(n.lineno for n in body) - 1 if body else node.end_lineno
        own = set(range(node.lineno, max(last, node.lineno) + 1)) & code
        if own:
            out[node.lineno] = own
    return out


def main(argv: list) -> int:
    seen = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text().splitlines()
        for first, own in sorted(statements(path).items()):
            if not any((str(path), line) in seen for line in own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{lines[first - 1].strip()}")
    return 0 if missed == 0 and status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
