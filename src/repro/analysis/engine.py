"""The per-file visitor pipeline driving every registered checker.

:func:`lint_source` parses one file with stdlib :mod:`ast`, builds a
:class:`FileContext` (recorded path + tree) and hands it to every
per-file checker.  :func:`lint_paths` lives in
:mod:`repro.analysis.scan`: it owns the file walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers

__all__ = ["FileContext", "lint_source"]


@dataclass
class FileContext:
    """Everything a checker needs about one parsed file."""

    path: str  # recorded (posix) path the rules scope on
    tree: ast.Module


def lint_source(source: str, path: str, checkers=None) -> list[Finding]:
    """Lint one in-memory source blob; returns its findings.

    ``path`` is the recorded path rules scope on.  Parse failures come
    back as a single NES000 finding: a file the engine cannot read
    cannot be trusted at all.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="NES000",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = FileContext(path=path, tree=tree)
    if checkers is None:
        checkers = all_checkers()
    return [finding for checker in checkers for finding in checker.check(ctx)]
