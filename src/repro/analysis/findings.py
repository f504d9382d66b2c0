"""Structured lint findings.

A :class:`Finding` is one rule violation at one source location;
:meth:`Finding.render` is the line a lint run prints for it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass
class Finding:
    """One rule violation; ``hint`` is the fix suggestion shown after the message."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        hint = f"  [{self.hint}]" if self.hint else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{hint}"
