"""Scan orchestration: the one path behind ``repro.cli lint``.

:func:`lint_paths` walks the scan arguments, lints each file with the
per-file rules and indexes it, assembles the per-file indexes into a
:class:`~repro.analysis.project.ProjectIndex`, runs the project rule
(NES009) over it, and returns the findings sorted by
(path, line, col, rule) — the same tree always yields the same list.
"""

from __future__ import annotations

import os

from repro.analysis import findings as findings_mod
from repro.analysis.engine import (
    _iter_python_files,
    _parse_pragmas,
    _record_path,
    lint_source,
)
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectIndex, build_file_index
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


def _run_project_rules(checkers: list, file_indexes: list, sources: dict) -> tuple:
    """Project findings as (kept, suppressed); ``sources`` maps a
    recorded path to its text, for fingerprints and pragmas."""
    kept: list = []
    suppressed: list = []
    project_checkers = [c for c in checkers if c.project]
    if not project_checkers or not file_indexes:
        return kept, suppressed
    index = ProjectIndex(file_indexes)
    for checker in project_checkers:
        for finding in checker.check_project(index):
            lines = sources.get(finding.path, "").splitlines()
            line_text = (
                lines[finding.line - 1]
                if 1 <= finding.line <= len(lines)
                else ""
            )
            finding.fingerprint = findings_mod.fingerprint(
                finding.rule, finding.path, line_text
            )
            allowed = False
            if checker.pragma:
                pragmas = _parse_pragmas(lines)
                for candidate in (finding.line, finding.line - 1):
                    reason = pragmas.get(candidate, {}).get(checker.pragma)
                    if reason is not None and reason.strip():
                        allowed = True
                        break
            (suppressed if allowed else kept).append(finding)
    return kept, suppressed


def lint_paths(paths: list, select=None, ignore=None) -> tuple:
    """Lint every python file under ``paths``; returns (findings, suppressed).

    ``select``/``ignore`` filter by rule id (``select`` wins first,
    then ``ignore`` subtracts; NES000 parse errors always survive).
    """
    checkers = all_checkers()
    findings: list = []
    suppressed: list = []
    file_indexes: list = []
    sources: dict = {}
    for file_path, recorded in _discover(paths):
        with open(file_path, encoding="utf-8") as f:
            source = f.read()
        sources[recorded] = source
        kept, supp = lint_source(source, recorded, checkers=checkers)
        findings.extend(kept)
        suppressed.extend(supp)
        index = build_file_index(source, recorded)
        if index is not None:
            file_indexes.append(index)

    proj_kept, proj_supp = _run_project_rules(checkers, file_indexes, sources)
    findings.extend(proj_kept)
    suppressed.extend(proj_supp)

    def enabled_sorted(found: list) -> list:
        return sorted(
            (f for f in found if _rule_enabled(f.rule, select, ignore)),
            key=Finding.sort_key,
        )

    return enabled_sorted(findings), enabled_sorted(suppressed)
