"""The statements of `src/bentkit` that no test executes, found with the
standard library alone (no coverage tool is needed).

A `sys.settrace` tracer, installed before the package is imported and
also given to new threads through `threading.settrace`, records the
line events of frames whose code lies under `src/bentkit`.  The suite
then runs in this process through `pytest.main`, and each module's
statements that had no line executed are printed with their source.
Docstrings are not statements here, and a statement that compiles to no
code (`global`, a bare `try:` header) is never listed.

Processes the tests spawn are not traced, so code reached only through
`python -m bentkit` (most of `cli.py` and `__main__.py`) shows as
unexecuted.  Tracing slows the suite several times over, so its timing
gates may fail; the listing is still complete.  Run from the repository
root with the suite's own arguments, or none for the whole suite:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

It is not collected by the suite.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bentkit"

executed: set[tuple[str, int]] = set()
_ours: dict[str, bool] = {}  # code file name: whether it lies in PACKAGE


def _local(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = Path(os.path.realpath(name)).parent == PACKAGE
    return _local if ours else None


def _code_lines(code) -> set[int]:
    """The lines that some bytecode of `code` or its nested code sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """(first line, last header line) of every statement but docstrings;
    the header of a compound statement ends before its body."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        yield start, max(start, body[0].lineno - 1) if body else node.end_lineno


def unexecuted(path: Path) -> list[int]:
    """The first lines of the statements of `path` that never ran."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    ran = {line for name, line in executed if Path(os.path.realpath(name)) == path}
    missed = []
    for start, end in _statements(ast.parse(source)):
        lines = set(range(start, end + 1))
        if lines & code_lines and not lines & ran:
            missed.append(start)
    return sorted(set(missed))


if __name__ == "__main__":
    os.chdir(ROOT)
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(sys.argv[1:] or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit code {int(code)}; statements no test executed:")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        missed = unexecuted(path)
        print(f"\n{path.relative_to(ROOT)}: {len(missed)}")
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")
