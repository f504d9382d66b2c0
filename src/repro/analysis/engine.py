"""The per-file visitor pipeline driving every registered checker.

:func:`lint_source` parses one file with stdlib :mod:`ast`, builds a
:class:`FileContext` (tree + source lines + pragma map) and hands it to
every per-file checker.  The engine owns the cross-cutting mechanics so
rules stay small:

- **pragma suppression** — ``# lint: allow-<name>(reason)`` on the
  offending line or the line directly above it silences the rule whose
  ``pragma`` attribute is ``<name>``.  The parenthesised reason is
  mandatory: a pragma without one does not suppress anything.
- **fingerprints** — every surviving finding gets the line-content hash
  the baseline machinery matches on.
- **path recording** — file paths are recorded relative to the
  enclosing repo root (the nearest ancestor with a ``.git`` or
  ``pyproject.toml`` marker), so ``src/repro/...`` comes out identical
  no matter which directory the scan runs from.  Trees without a
  marker (test fixtures) fall back to scan-arg-relative recording.

:func:`lint_paths` lives in :mod:`repro.analysis.scan`: it owns the
file walk.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

from repro.analysis import findings as findings_mod
from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers

__all__ = ["FileContext", "lint_source", "PRAGMA_RE"]

PRAGMA_RE = re.compile(r"#\s*lint:\s*allow-([a-z0-9-]+)\(([^()]*)\)")

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules", ".venv", "venv"}


@dataclass
class FileContext:
    """Everything a checker needs about one parsed file."""

    path: str  # recorded (posix, scan-relative) path
    tree: ast.Module
    lines: list[str]
    pragmas: dict[int, dict[str, str]] = field(default_factory=dict)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

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


_ROOT_MARKERS = (".git", "pyproject.toml")
_repo_root_cache: dict[str, str | None] = {}


def _find_repo_root(start_dir: str) -> str | None:
    """Nearest ancestor of ``start_dir`` carrying a repo-root marker."""
    cur = os.path.realpath(start_dir)
    probed: list[str] = []
    root: str | None = None
    while True:
        if cur in _repo_root_cache:
            root = _repo_root_cache[cur]
            break
        probed.append(cur)
        if any(os.path.exists(os.path.join(cur, m)) for m in _ROOT_MARKERS):
            root = cur
            break
        parent = os.path.dirname(cur)
        if parent == cur:
            break
        cur = parent
    for p in probed:
        _repo_root_cache[p] = root
    return root


def _record_path(file_path: str, scan_arg: str) -> str:
    """Path as recorded in findings/baselines.

    Relative to the enclosing repo root when one exists — cwd-invariant,
    so the same ``src/repro/...`` strings (and therefore the same
    baseline fingerprints) come out of ``lint src`` run from the repo
    root, a subdirectory, or CI.  Trees without a root marker fall back
    to the historical scan-arg-relative scheme.  Baselines written by
    pre-hardening versions from a *non-root* working directory need one
    ``--write-baseline`` regeneration; root-run baselines are unchanged.
    """
    real = os.path.realpath(file_path)
    root = _find_repo_root(os.path.dirname(real) or ".")
    if root is not None:
        rel = os.path.relpath(real, root)
        if not rel.startswith(".."):
            return rel.replace(os.sep, "/")
    base = os.path.normpath(scan_arg)
    if os.path.isfile(base):
        rel = os.path.basename(base)
        base = os.path.dirname(base) or "."
    else:
        rel = os.path.relpath(file_path, base)
    name = os.path.basename(base)
    if name in ("", ".", ".."):
        return rel.replace(os.sep, "/")
    return os.path.join(name, rel).replace(os.sep, "/")


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


def lint_source(
    source: str, path: str, checkers=None
) -> tuple[list[Finding], list[Finding]]:
    """Lint one in-memory source blob; returns (findings, suppressed).

    ``path`` is the recorded path rules scope on.  Parse failures come
    back as a single NES000 finding (never suppressible or baselinable —
    a file the engine cannot read cannot be trusted at all).
    """
    lines = source.splitlines()
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
        path=path, tree=tree, lines=lines, pragmas=_parse_pragmas(lines)
    )
    if checkers is None:
        checkers = all_checkers()
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for checker in checkers:
        for finding in checker.check(ctx):
            finding.fingerprint = findings_mod.fingerprint(
                finding.rule, finding.path, ctx.source_line(finding.line)
            )
            if checker.pragma and ctx.pragma_allows(finding.line, checker.pragma):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept, suppressed
