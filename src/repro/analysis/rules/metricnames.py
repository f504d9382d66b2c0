"""NES011 — metric names are declared dotted-namespace string literals.

``repro.cli report`` prints a trace's metrics by name and ``obsdiff``
aligns two snapshots by name, so a call site that invents a name at
runtime (``f"selection.{mode}_hits"``) or records one
:data:`repro.obs.metrics.METRIC_TABLE` never declared makes a series
that no reader can anticipate.  This check requires the first argument
of every ``*.counter(...)`` / ``*.gauge(...)`` call to be a
dotted-namespace string *literal* present in the table, so the set of
metric names is knowable without running the code.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register

_METRIC_METHODS = ("counter", "gauge")


def _metric_table() -> dict:
    # Imported lazily: the analysis package must stay importable (and
    # its per-file workers cheap) without pulling the obs subsystem in
    # until a file actually records metrics.
    from repro.obs.metrics import METRIC_TABLE

    return METRIC_TABLE


@register
class MetricNameChecker(Checker):
    rule = "NES011"

    def check(self, ctx):
        table = None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in _METRIC_METHODS:
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                yield self.finding(
                    ctx,
                    node,
                    f".{func.attr}(...) metric name is not a string literal: "
                    "runtime-built names never reach METRIC_TABLE, so no "
                    "reader of the trace can anticipate them",
                    hint="pass a dotted literal declared in "
                    "repro.obs.metrics.METRIC_TABLE",
                )
                continue
            name = arg.value
            if "." not in name:
                yield self.finding(
                    ctx,
                    node,
                    f"metric name {name!r} is not dotted-namespace "
                    "(subsystem.metric)",
                    hint="name it <subsystem>.<metric> and declare it in "
                    "repro.obs.metrics.METRIC_TABLE",
                )
                continue
            if table is None:
                table = _metric_table()
            if name not in table:
                yield self.finding(
                    ctx,
                    node,
                    f"metric name {name!r} is not declared in "
                    "repro.obs.metrics.METRIC_TABLE",
                    hint="add a (type, help) entry to METRIC_TABLE",
                )
