"""Scan orchestration: the one path behind ``repro.cli lint``.

:func:`lint_paths` walks the scan arguments, lints each file with the
per-file rules, and returns the findings sorted by (path, line, col,
rule) — the same tree always yields the same list.
"""

from __future__ import annotations

import os

from repro.analysis.engine import _iter_python_files, _record_path, lint_source
from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers

__all__ = ["lint_paths"]


def _discover(paths: list) -> list:
    """(file_path, recorded_path) for every python file, deduplicated."""
    files: list = []
    seen: set = set()
    for scan_arg in paths:
        if not os.path.exists(scan_arg):
            raise FileNotFoundError(f"lint path does not exist: {scan_arg}")
        for file_path in _iter_python_files(scan_arg):
            real = os.path.realpath(file_path)
            if real in seen:
                continue
            seen.add(real)
            files.append((file_path, _record_path(file_path, scan_arg)))
    return files


def _rule_enabled(rule: str, select, ignore) -> bool:
    if rule == "NES000":
        return True
    if select is not None and rule not in select:
        return False
    if ignore is not None and rule in ignore:
        return False
    return True


def lint_paths(paths: list, select=None, ignore=None) -> tuple:
    """Lint every python file under ``paths``; returns (findings, suppressed).

    ``select``/``ignore`` filter by rule id (``select`` wins first,
    then ``ignore`` subtracts; NES000 parse errors always survive).
    """
    checkers = all_checkers()
    findings: list = []
    suppressed: list = []
    for file_path, recorded in _discover(paths):
        with open(file_path, encoding="utf-8") as f:
            source = f.read()
        kept, supp = lint_source(source, recorded, checkers=checkers)
        findings.extend(kept)
        suppressed.extend(supp)

    def enabled_sorted(found: list) -> list:
        return sorted(
            (f for f in found if _rule_enabled(f.rule, select, ignore)),
            key=Finding.sort_key,
        )

    return enabled_sorted(findings), enabled_sorted(suppressed)
