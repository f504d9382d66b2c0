"""The per-file visitor pipeline driving every registered checker.

:func:`lint_source` parses one file with stdlib :mod:`ast`, builds a
:class:`FileContext` (recorded path + tree + pragma map) and hands it to
every per-file checker.  The engine owns pragma suppression so rules
stay small: ``# lint: allow-<name>(reason)`` on the offending line or
the line directly above it silences the rule whose ``pragma`` attribute
is ``<name>``.  The parenthesised reason is mandatory: a pragma without
one does not suppress anything.

:func:`lint_paths` lives in :mod:`repro.analysis.scan`: it owns the
file walk.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers

__all__ = ["FileContext", "lint_source", "PRAGMA_RE"]

PRAGMA_RE = re.compile(r"#\s*lint:\s*allow-([a-z0-9-]+)\(([^()]*)\)")


@dataclass
class FileContext:
    """Everything a checker needs about one parsed file."""

    path: str  # recorded (posix) path the rules scope on
    tree: ast.Module
    pragmas: dict[int, dict[str, str]] = field(default_factory=dict)

    def pragma_allows(self, lineno: int, name: str) -> bool:
        """Is rule-pragma ``name`` (with a non-empty reason) in scope here?"""
        for candidate in (lineno, lineno - 1):
            reason = self.pragmas.get(candidate, {}).get(name)
            if reason is not None and reason.strip():
                return True
        return False


def _parse_pragmas(lines: list[str]) -> dict[int, dict[str, str]]:
    pragmas: dict[int, dict[str, str]] = {}
    for i, line in enumerate(lines, start=1):
        for match in PRAGMA_RE.finditer(line):
            pragmas.setdefault(i, {})[match.group(1)] = match.group(2)
    return pragmas


def lint_source(
    source: str, path: str, checkers=None
) -> tuple[list[Finding], list[Finding]]:
    """Lint one in-memory source blob; returns (findings, suppressed).

    ``path`` is the recorded path rules scope on.  Parse failures come
    back as a single NES000 finding (never suppressible — a file the
    engine cannot read cannot be trusted at all).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    rule="NES000",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            [],
        )
    ctx = FileContext(
        path=path, tree=tree, pragmas=_parse_pragmas(source.splitlines())
    )
    if checkers is None:
        checkers = all_checkers()
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for checker in checkers:
        for finding in checker.check(ctx):
            if checker.pragma and ctx.pragma_allows(finding.line, checker.pragma):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept, suppressed
