"""Which statements of lawcheck the user commands run: a line trace.

    PYTHONPATH=src python tests/line_trace.py

runs, in one process and through ``lawcheck.cli.main``, every command of
``COMMANDS``: each catalog scenario by name in the json, text and csv
formats, one catalog file by its path, ``list``, ``suite`` in the text and
json formats, and ``symbolic-check`` at n = 2 to 5 with ``--print phi`` and
with ``--print gamma``.  Their output is discarded.  Under
``sys.settrace`` it records the lines that run in the modules of
src/lawcheck, then prints, per module, its executable statements, how many
did not run and their line numbers, and last the functions none of whose
statements ran.  Only the standard library is used; pytest does not collect
this file (``tests/test_line_trace.py`` runs it on ``lawcheck list``).

Counting rule.  A statement is every ``ast.stmt`` inside the body of a
function or method, nested ones included, except a docstring (a string
constant as the first statement of a body) and ``global`` and ``nonlocal``
declarations, which run no code.  Statements at module or class level are
not counted: they run at import, whatever the command.  A statement ran if
a line event fired on one of its own lines: for a compound statement
(``if``, ``for``, ``while``, ``with``, ``try``, a nested ``def``) its
decorators and header, up to its first nested statement; for any other,
every line from its first to its last.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lawcheck"
CATALOG = sorted(p.stem for p in (SRC / "catalog").glob("*.json"))
COMMANDS = ([["run", "--scenario", name, "--format", fmt]
             for name in CATALOG for fmt in ("json", "text", "csv")]
            + [["run", "--scenario", str(SRC / "catalog" / f"{CATALOG[0]}.json")],
               ["list"], ["suite"], ["suite", "--format", "json"]]
            + [["symbolic-check", "--n", str(n), "--print", form]
               for n in range(2, 6) for form in ("phi", "gamma")])
_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(body, k):
    stmt = body[k]
    return (k == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _own_lines(stmt):
    """The lines that show ``stmt`` ran, by the counting rule."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    nested = [s for field in ("body", "orelse", "finalbody", "handlers")
              for s in getattr(stmt, field, ()) if isinstance(s, (ast.stmt, ast.excepthandler))]
    last = min(s.lineno for s in nested) - 1 if nested else stmt.end_lineno
    return range(first, max(first, last) + 1)


def statements(source):
    """{first line: (own lines, qualified name of the enclosing function)} of
    the statements that the counting rule counts in ``source``."""
    found = {}

    def visit(body, owner, in_function):
        for k, stmt in enumerate(body):
            if isinstance(stmt, ast.excepthandler):
                visit(stmt.body, owner, in_function)
                continue
            counted = in_function and not _is_docstring(body, k) and not isinstance(
                stmt, (ast.Global, ast.Nonlocal))
            if counted:
                found[stmt.lineno] = (_own_lines(stmt), owner)
            if isinstance(stmt, _FUNCTION):
                name = stmt.name if owner is None else f"{owner}.{stmt.name}"
                visit(stmt.body, name, True)
            elif isinstance(stmt, ast.ClassDef):
                name = stmt.name if owner is None else f"{owner}.{stmt.name}"
                visit(stmt.body, name, in_function)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(stmt, field, []), owner, in_function)

    visit(ast.parse(source).body, None, False)
    return found


def trace(commands):
    """Run ``commands`` (argument lists of ``lawcheck``) through
    ``cli.main`` under a line trace; returns their exit codes and
    {module file name: set of lines that ran}."""
    files = {str(p): p.name for p in SRC.glob("*.py")}
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    codes, previous = [], sys.gettrace()
    sys.settrace(start)
    try:
        from lawcheck import cli

        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.settrace(previous)
    return codes, ran


def report(ran):
    """The table of executable and unrun statements per module, then the
    functions with no statement run, as lines of text."""
    lines, total, unrun_total, idle = [], 0, 0, []
    for path in sorted(SRC.glob("*.py")):
        found = statements(path.read_text())
        hit = ran.get(path.name, set())
        unrun = {k for k, (own, _) in found.items() if hit.isdisjoint(own)}
        total, unrun_total = total + len(found), unrun_total + len(unrun)
        lines.append(f"{path.name:16s} {len(found):5d} statements {len(unrun):5d} unrun: "
                     + ", ".join(map(str, sorted(unrun))))
        owners = defaultdict(list)
        for k, (own, owner) in found.items():
            owners[owner].append(k in unrun)
        idle += [f"{path.name}:{owner}" for owner, flags in owners.items() if all(flags)]
    lines.append(f"{'total':16s} {total:5d} statements {unrun_total:5d} unrun")
    lines.append(f"functions with no statement run ({len(idle)}): " + ", ".join(idle))
    return lines


def main():
    codes, ran = trace(COMMANDS)
    print(f"{len(COMMANDS)} commands, exit codes {sorted(set(codes))}")
    print("\n".join(report(ran)))


if __name__ == "__main__":
    main()
