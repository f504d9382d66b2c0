"""Scan orchestration: the one path behind the tier-1 self-lint.

:func:`lint_paths` walks the scan arguments, lints each file with the
per-file rules, and returns the findings sorted by (path, line, col,
rule) — the same tree always yields the same list.  Each file is
recorded under the path it was walked at, in posix form; rules scope on
path fragments (``repro/selection/``), so any spelling of the scan
argument works.
"""

from __future__ import annotations

import os

from repro.analysis.engine import lint_source
from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers

__all__ = ["lint_paths"]

_SKIP_DIRS = {"__pycache__", "node_modules", "venv"}


def _iter_python_files(scan_arg: str):
    base = os.path.normpath(scan_arg)
    if os.path.isfile(base):
        yield base
        return
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(
            d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _discover(paths: list) -> list:
    """(file_path, recorded_path) for every python file, deduplicated."""
    files: list = []
    seen: set = set()
    for scan_arg in paths:
        if not os.path.exists(scan_arg):
            raise FileNotFoundError(f"path does not exist: {scan_arg}")
        for file_path in _iter_python_files(str(scan_arg)):
            real = os.path.realpath(file_path)
            if real in seen:
                continue
            seen.add(real)
            files.append((file_path, file_path.replace(os.sep, "/")))
    return files


def lint_paths(paths: list, select=None) -> list:
    """Lint every python file under ``paths``; returns the sorted findings.

    ``select`` keeps only the given rule ids (case-insensitive; NES000
    parse errors always survive).  An id no checker owns raises
    :class:`ValueError` naming the valid ones, so a typo cannot
    silently lint nothing.
    """
    checkers = all_checkers()
    if select is not None:
        select = {rule.strip().upper() for rule in select}
        known = {c.rule for c in checkers}
        unknown = sorted(select - known)
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(known))}"
            )
        checkers = [c for c in checkers if c.rule in select]
    findings: list = []
    for file_path, recorded in _discover(paths):
        with open(file_path, encoding="utf-8") as f:
            findings.extend(lint_source(f.read(), recorded, checkers=checkers))
    return sorted(findings, key=Finding.sort_key)
