"""List every `raise` statement in src/slowtrack that no test executes.

`coverage` is not a dependency, so this is a line tracer: a pytest
plugin that installs `sys.settrace` (and `threading.settrace`) for the
session, records the lines run in src/slowtrack, and at the end lists
each `raise` none of whose lines ran, by module and function. Run it
like pytest, with pytest's own arguments:

    PYTHONPATH=src python scripts/raise_coverage.py -q
    PYTHONPATH=src python scripts/raise_coverage.py -q tests/test_net.py

Lines run in a subprocess (the CLI entry point, scripts/output_digest.py)
are not seen. Tracing makes the tests about three times slower, so
their wall-clock budgets have less room. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slowtrack"


def raise_sites() -> list[tuple[Path, int, int, str]]:
    """(file, first line, last line, enclosing function) of every
    `raise` in src/slowtrack, in file and line order."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        stack: list[str] = []

        def visit(node: ast.AST) -> None:
            scoped = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if scoped:
                stack.append(node.name)
            if isinstance(node, ast.Raise):
                name = ".".join(stack) or "<module>"
                sites.append((path, node.lineno, node.end_lineno or node.lineno, name))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if scoped:
                stack.pop()

        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return sites


class RaiseCoverage:
    """The pytest plugin: traces the session, then reports."""

    def __init__(self):
        self.files = {str(p) for p in SRC.glob("*.py")}
        self.lines: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.files else None

    def pytest_sessionstart(self, session) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def pytest_terminal_summary(self, terminalreporter) -> None:
        sites = raise_sites()
        missed = [
            (path, first, name)
            for path, first, last, name in sites
            if not any((str(path), line) in self.lines for line in range(first, last + 1))
        ]
        write = terminalreporter.write_line
        terminalreporter.section("raise coverage")
        write(f"{len(missed)} of {len(sites)} raise statements in {SRC} never ran")
        for path, line, name in missed:
            write(f"  {path.relative_to(SRC.parent.parent)}:{line}  {name}")


def main() -> int:
    return int(pytest.main(sys.argv[1:], plugins=[RaiseCoverage()]))


if __name__ == "__main__":
    sys.exit(main())
