"""Statement reach: which statements of src/khlab does the test suite never run?

Runs pytest in this process under sys.settrace and threading.settrace, with a
line tracer only in frames whose code lives under src/khlab, then prints each
statement of src/khlab that no traced frame reached, grouped by module:

    python tools/linetrace.py                      # the whole suite
    python tools/linetrace.py tests/test_cli.py    # any pytest arguments

A statement is one ast.stmt node.  Docstrings, imports and the def and class
lines are left out (they run at import, or not at all); a try statement counts
through the statements it holds.  A statement counts as reached when a line
event fires on any of its own lines: the whole statement for a simple one, the
header up to its body for a compound one.  Child processes (the CLI and demo
runs the suite starts with subprocess) are not traced, so code that only they
reach is reported as never run.  The suite runs about twice as slowly as
without the tracer.  The exit code is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "khlab"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try, getattr(ast, "TryStar", ast.Try))


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path):
    """(first line, last line) of each reportable statement's own lines in a module."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or _is_docstring(node):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            # a compound statement's own lines end where its body starts
            spans.append((node.lineno, max(node.lineno, body[0].lineno - 1)))
        else:
            spans.append((node.lineno, node.end_lineno))
    return sorted(spans)


def traced_run(pytest_args):
    """(pytest exit code, {filename: set of lines that fired}) of one in-process run."""
    prefix = os.path.realpath(PACKAGE) + os.sep
    fired, inside = {}, {}

    def local(frame, event, arg):
        if event == "line":
            fired[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = os.path.realpath(filename).startswith(prefix)
            if inside[filename]:
                fired.setdefault(filename, set())
        return local if inside[filename] else None

    import pytest
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {}
    for filename, numbers in fired.items():
        lines.setdefault(os.path.realpath(filename), set()).update(numbers)
    return code, lines


def main(args):
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    code, fired = traced_run(args or ["-q", "-p", "no:cacheprovider", "tests"])
    total = 0
    print("\nstatements of src/khlab never run in this process (child processes are not traced):")
    for path in sorted(PACKAGE.glob("*.py")):
        reached = fired.get(os.path.realpath(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        missed = [(first, last) for first, last in statements(path)
                  if not reached.intersection(range(first, last + 1))]
        total += len(missed)
        for first, _ in missed:
            print(f"  {path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{total} statements never run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
