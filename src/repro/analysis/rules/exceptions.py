"""NES003 — broad exception handlers that swallow errors silently.

A broad handler that neither re-raises nor logs turns real bugs (a
typo'd attribute, a shape mismatch) into silently-wrong results — in a
reproduction whose value is numerical trustworthiness, that is an
invariant violation, not a style nit.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import dotted_name, numpy_aliases, own_nodes

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


def _handles_error(handler: ast.ExceptHandler, numeric: set[str]) -> bool:
    """Does the handler body itself re-raise or log?

    A ``raise`` inside a nested ``def`` or ``lambda`` does not run when
    the handler does, and ``np.log`` / ``math.log`` (roots in
    ``numeric``) compute a logarithm rather than log the error.
    """
    for node in own_nodes(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _LOG_ATTRS:
                receiver = dotted_name(func.value)
                if receiver is None or receiver.split(".")[0] not in numeric:
                    return True
            if isinstance(func, ast.Name) and func.id in ("warn",):
                return True
    return False


@register
class BroadExceptChecker(Checker):
    rule = "NES003"

    def check(self, ctx):
        numeric = numpy_aliases(ctx.tree) | {"math"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _handles_error(node, numeric):
                continue
            what = "bare except:" if node.type is None else "except Exception"
            yield self.finding(
                ctx,
                node,
                f"{what} swallows errors without re-raising or logging",
                hint="narrow the exception type, or log and re-raise",
            )
