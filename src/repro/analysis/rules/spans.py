"""NES006 — trace spans are context managers: ``with obs.span(...)``.

A :class:`~repro.obs.tracer.Span`'s id is derived at creation from the
tracer's open-span stack, but its record is only emitted on
``__exit__``: a span created and never ``with``-managed silently
vanishes from the trace, and one entered late misattributes every span
opened in between as its child.  This check requires each
``span(...)`` / ``*.span(...)`` call to be the context expression of a
``with`` item.

Factory shapes are exempt: a span call in return position hands the
un-entered span to a caller who will ``with``-manage it (the
module-level :func:`repro.obs.span` helper is exactly that shape).
Spans timed outside the tracer cannot be ``with``-managed at all;
forward those through :meth:`~repro.obs.tracer.Tracer.add_completed`
instead.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import dotted_name


def _is_span_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        return False
    return name == "span" or name.endswith(".span")


@register
class SpanWithChecker(Checker):
    rule = "NES006"

    def check(self, ctx):
        managed: set[ast.Call] = set()
        returned: set[ast.Call] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _is_span_call(item.context_expr):
                        managed.add(item.context_expr)
            elif isinstance(node, ast.Return) and node.value is not None:
                # Only a *direct* return (possibly in a tuple/list)
                # transfers ownership; `return f(span(...))` both enters
                # nothing and leaks the id it already consumed.
                candidates = (
                    node.value.elts
                    if isinstance(node.value, (ast.Tuple, ast.List))
                    else [node.value]
                )
                for sub in candidates:
                    if _is_span_call(sub):
                        returned.add(sub)

        for node in ast.walk(ctx.tree):
            if not _is_span_call(node):
                continue
            if node in managed or node in returned:
                continue
            yield self.finding(
                ctx,
                node,
                "span created outside a `with` statement: its record is "
                "only emitted on __exit__, and children opened before "
                "entry are misattributed",
                hint="use `with obs.span(...) as sp:`; spans timed "
                "elsewhere go through Tracer.add_completed()",
            )
