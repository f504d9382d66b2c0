"""NES003 — broad exception handlers that swallow errors silently.

``except Exception`` around a fallback is legitimate exactly when the
fallback is the *designed* behaviour for a whole class of failures (a
worker thread that must hand its error to the join point) — and those
sites must say so with ``# lint: allow-broad-except(reason)``.
Everywhere else a broad handler that neither re-raises nor logs turns
real bugs (a typo'd attribute, a shape mismatch) into silently-wrong
results — in a reproduction whose value is numerical trustworthiness,
that is an invariant violation, not a style nit.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import dotted_name

_BROAD = {"Exception", "BaseException"}
_LOG_ATTRS = {
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "log",
    "print_exc",
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in types:
        name = dotted_name(t)
        if name is not None and name.split(".")[-1] in _BROAD:
            return True
    return False


def _handles_error(handler: ast.ExceptHandler) -> bool:
    """Does the handler body re-raise or log?"""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _LOG_ATTRS:
                return True
            if isinstance(func, ast.Name) and func.id in ("warn",):
                return True
    return False


@register
class BroadExceptChecker(Checker):
    rule = "NES003"
    pragma = "broad-except"
    description = (
        "bare/broad `except Exception` that neither re-raises, logs, nor "
        "carries a `# lint: allow-broad-except(reason)` pragma"
    )

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _handles_error(node):
                continue
            what = "bare except:" if node.type is None else "except Exception"
            yield self.finding(
                ctx,
                node,
                f"{what} swallows errors without re-raising or logging",
                hint="narrow the exception type, log-and-reraise, or add "
                "# lint: allow-broad-except(reason) if the fallback is "
                "designed behaviour",
            )
