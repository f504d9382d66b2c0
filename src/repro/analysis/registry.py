"""Checker registry: one class per rule id, discovered by import.

Rules live in :mod:`repro.analysis.rules`; importing that package
registers every checker here.  Each checker declares a unique ``rule``
id (``NES001``…); ``check(ctx)`` yields
:class:`~repro.analysis.findings.Finding`s for one parsed file, and the
scan handles rule selection and ordering.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.analysis.findings import Finding

__all__ = ["Checker", "register", "all_checkers", "rule_ids"]

_CHECKERS: dict[str, type] = {}


class Checker:
    """Base class for one lint rule; ``check(ctx)`` runs once per parsed file."""

    rule: str = ""

    def check(self, ctx) -> Iterator[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, ctx, node, message: str, hint: str = "") -> Finding:
        """Convenience constructor anchored at an AST node."""
        return Finding(
            rule=self.rule,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=hint,
        )


def register(cls: type) -> type:
    """Class decorator adding a checker to the registry."""
    if not cls.rule:
        raise ValueError(f"checker {cls.__name__} has no rule id")
    if cls.rule in _CHECKERS:
        raise ValueError(f"duplicate rule id {cls.rule}")
    _CHECKERS[cls.rule] = cls
    return cls


def all_checkers() -> list[Checker]:
    """Instantiate every registered checker, ordered by rule id."""
    from repro.analysis import rules  # noqa: F401 - import registers rules

    return [cls() for _, cls in sorted(_CHECKERS.items())]


def rule_ids() -> Iterable[str]:
    from repro.analysis import rules  # noqa: F401

    return sorted(_CHECKERS)
