"""Structured lint findings.

A :class:`Finding` is one rule violation at one source location.  The
``fingerprint`` identifies the finding for baseline matching: it hashes
the rule id, the file path and the *stripped source line text* (not the
line number), so findings survive unrelated edits that shift lines but
resurface the moment the offending line itself changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["Finding", "fingerprint"]


def fingerprint(rule: str, path: str, source_line: str) -> str:
    """Stable identity of a finding for baseline matching."""
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{rule}|{path}|{source_line.strip()}".encode())
    return h.hexdigest()


@dataclass
class Finding:
    """One rule violation.

    ``hint`` is the fix suggestion shown next to the message; ``severity``
    is ``"error"`` for invariant violations (everything current rules
    emit) and reserved ``"warning"`` for advisory rules.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    severity: str = "error"
    fingerprint: str = field(default="", compare=False)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        hint = f"  [{self.hint}]" if self.hint else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{hint}"
