#!/usr/bin/env python3
"""Which statements of ``src/germkit`` the CLI runs never execute.

Runs ``scripts/byte_check.py`` and ``scripts/degree_bound_survey.py``
in-process through ``runpy``, with ``sys.settrace`` recording the lines
executed in ``src/germkit``; the scripts' own output is discarded.  It
then reads each module's syntax tree and counts the statements in function
bodies (docstrings, ``global`` and ``nonlocal`` aside; a nested function's
statements are its own).  A statement has run when a line event fell on
its header: its lines up to its first nested statement, from its first
decorator on; a ``try`` has run when its first statement has.  It prints
the total, how many never ran, and for each function with such statements
their line numbers:

    statements in function bodies: <n>; never run: <m>
    <module file> <function>: <line> <line> ...

Most never-run statements are failure lines: the checks that no input of
those scripts trips, and the paths only the tests reach.  The report is
informational; it takes about 45 s on a 2-vCPU host with Python 3.11.

    python3 scripts/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "germkit"
SCRIPTS = ("byte_check.py", "degree_bound_survey.py")
sys.path.insert(0, str(ROOT / "src"))


def trace(scripts: list[pathlib.Path]) -> dict[str, set[int]]:
    """Lines executed in the package's files while the scripts run."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    argv = sys.argv
    for script in scripts:
        sys.argv = [str(script)]
        sys.settrace(on_call)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.settrace(None)
            sys.argv = argv
    return executed


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement up to its first nested statement."""
    start = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    nested = [
        child.lineno
        for field in ("body", "orelse", "finalbody")
        for child in getattr(stmt, field, ())
    ]
    return range(start, min(nested) if nested else stmt.end_lineno + 1)


def _statements(body: list[ast.stmt]):
    """The statements of a function body, nested blocks included; a nested
    function or class is one statement, its body not included."""
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for block in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
            yield from _statements(block.body)


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, function node) for every function in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def _has_run(stmt: ast.stmt, lines: set[int]) -> bool:
    if any(line in lines for line in _header(stmt)):
        return True
    return isinstance(stmt, ast.Try) and _has_run(stmt.body[0], lines)


def report(executed: dict[str, set[int]]) -> list[str]:
    total, rows = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executed.get(str(path), set())
        for name, function in _functions(ast.parse(path.read_text(), str(path))):
            body = function.body
            if ast.get_docstring(function) is not None:
                body = body[1:]
            statements = list(_statements(body))
            total += len(statements)
            missed = sorted(s.lineno for s in statements if not _has_run(s, lines))
            if missed:
                rows.append((f"{path.name} {name}", missed))
    never = sum(len(missed) for _, missed in rows)
    return [
        f"statements in function bodies: {total}; never run: {never}",
        *(f"{where}: {' '.join(map(str, missed))}" for where, missed in rows),
    ]


def main() -> None:
    print("\n".join(report(trace([ROOT / "scripts" / name for name in SCRIPTS]))))


if __name__ == "__main__":
    main()
