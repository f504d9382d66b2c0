"""NES002 — implicit float64 creation in dtype-accounted hot paths.

``chunk_pairwise_bytes`` and the SmartSSD kernel byte model charge the
fp32 similarity tile: the bytes the cost model charges are derived from
a *declared* dtype.  An allocation like ``np.zeros(n)`` in those modules
silently materializes float64, so the arrays the code actually touches no longer match what
the accounting claims — and a float64 intermediate entering an fp32
pipeline also changes rounding, which can flip selection order.  Every
allocation in the accounted modules must name its dtype.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import (
    ALLOCATORS,
    dotted_name,
    in_module,
    numpy_aliases,
)

SCOPE = (
    "repro/selection/",
    "repro/parallel/",
    "repro/smartssd/kernel.py",
)


@register
class PrecisionChecker(Checker):
    rule = "NES002"

    def check(self, ctx):
        if not in_module(ctx.path, SCOPE):
            return
        np_names = numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) != 2 or parts[0] not in np_names:
                continue
            fn = parts[1]
            has_dtype_kw = any(kw.arg == "dtype" for kw in node.keywords)
            if fn in ALLOCATORS:
                if has_dtype_kw or len(node.args) > ALLOCATORS[fn]:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"np.{fn}(...) without dtype= materializes float64 here, "
                    "which the byte accounting does not model",
                    hint="pass dtype= matching the accounted dtype "
                    "(or np.float64 if 8-byte entries are intended and "
                    "accounted)",
                )
            elif fn == "array" and not has_dtype_kw and node.args:
                if self._has_bare_float_literal(node.args[0]):
                    yield self.finding(
                        ctx,
                        node,
                        "np.array over bare float literals defaults to "
                        "float64 — the accounted dtype must be explicit",
                        hint="pass dtype= matching the accounted dtype",
                    )

    @staticmethod
    def _has_bare_float_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Tuple)):
            return any(
                PrecisionChecker._has_bare_float_literal(e) for e in node.elts
            )
        return isinstance(node, ast.Constant) and isinstance(node.value, float)
