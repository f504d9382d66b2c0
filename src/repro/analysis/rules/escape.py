"""NES010 — interprocedural float64 escape into the int8 scoring path.

NES002/NES008 are per-file: they see a float64 minted *inside* a
dtype-accounted module.  They cannot see ``compute_gradient_proxies``
(gradients.py) returning a float64 array that ``NeSSASelector.select``
(selector.py) then feeds to ``quantize_proxies`` (qscore.py).  This
rule closes that gap with the ProjectIndex's producer fixed point:

- a function is a *float64 producer* when its return value carries f64
  taint — an explicit ``.astype(np.float64)`` / ``np.float64(...)`` /
  ``dtype=np.float64`` marker, or (transitively) the result of calling
  another producer;
- a call site is *hot* when its resolved target lives in a ``qscore``
  module or is ``craig_select_class`` — the paths whose byte accounting
  and int8 exactness assume no float64 sneaks in;
- a finding is raised when a tainted value flows into a hot call from
  *outside* the qscore module itself (inside it, NES008 already rules).

Suppress with ``# lint: allow-f64-escape(reason)`` at the call site
when the hot path is the documented fp64 reference (CPU CRAIG) or the
value is quantized before the kernels.
"""

from __future__ import annotations

from repro.analysis.registry import ProjectChecker, register

__all__ = ["Float64Escape"]


def _is_hot(dotted: str) -> bool:
    parts = dotted.split(".")
    return "qscore" in parts[:-1] or parts[-1] == "craig_select_class"


class _HotCall:
    __slots__ = ("fn", "site", "dotted")

    def __init__(self, fn, site, dotted):
        self.fn = fn
        self.site = site
        self.dotted = dotted


@register
class Float64Escape(ProjectChecker):
    rule = "NES010"
    pragma = "f64-escape"
    description = (
        "float64-producing value flows into a selection/qscore or "
        "craig_select_class hot path"
    )

    def check_project(self, index):
        for fn in sorted(index.functions):
            summary = index.functions[fn]
            if _in_qscore_module(fn):
                continue
            for site in summary.calls:
                if site.kind != "call" or not site.target.startswith("q:"):
                    continue
                dotted = site.target[2:]
                if not _is_hot(dotted):
                    continue
                tainted = [o for o in site.origins if index.origin_tainted(o)]
                if not tainted:
                    continue
                witness = index.taint_witness(tainted[0])
                finding = self.project_finding(
                    path=summary.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"float64 value reaches hot path {dotted} "
                        f"(produced by {witness})"
                    ),
                    hint=(
                        "cast to float32 before the hot call, or pragma "
                        "allow-f64-escape(reason) if this is the fp64 "
                        "reference path"
                    ),
                )
                producer = index.functions.get(witness)
                if producer is not None:
                    finding.related = [{
                        "path": producer.path,
                        "line": producer.line,
                        "message": f"float64 produced by {witness}",
                    }]
                yield finding


def _in_qscore_module(qualname: str) -> bool:
    return "qscore" in qualname.split(".")[:-1]
