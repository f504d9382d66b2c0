"""NES009 — cross-thread shared-state writes without lock discipline.

The overlapped pipeline (PR 5) runs selection on a daemon thread while
the training thread keeps mutating trainer/selector state.  Any
attribute written both from worker-reachable code and from main-thread
code is a potential race unless the write is lock-guarded.

The rule flags the *worker-side unguarded write sites*: for every
``(owner, attr)`` pair written in at least one worker-reachable
function AND at least one main-reachable function, each worker-side
write not lexically inside a ``with <lock>:`` block is reported.  A
function reachable both ways (a synchronous round runs the selector on
the main thread) counts on both sides, not as a false positive.

Suppress with ``# lint: allow-shared-state(reason)`` when an external
happens-before edge (``Thread.join()`` before the main-thread access,
single-owner handoff) serialises the accesses; the reason should name
that edge.
"""

from __future__ import annotations

from repro.analysis.registry import ProjectChecker, register

__all__ = ["SharedStateRace"]

# writes inside constructors initialise a fresh object no other thread
# can reach yet; they count as evidence the attribute exists on the
# main side but are never flagged themselves
_CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}


def _is_constructor(qualname: str) -> bool:
    return qualname.rsplit(".", 1)[-1] in _CONSTRUCTORS


@register
class SharedStateRace(ProjectChecker):
    rule = "NES009"
    pragma = "shared-state"
    description = (
        "attribute written from both a worker-thread entry point and "
        "main-thread code without a lock"
    )

    def check_project(self, index):
        worker = index.worker_reachable()
        main = index.main_reachable()
        for (owner, attr), sites in sorted(index.attr_write_sites().items()):
            worker_sites = [(fn, w) for fn, w in sites if fn in worker]
            has_main_write = any(fn in main for fn, _ in sites)
            if not worker_sites or not has_main_write:
                continue
            kind, _, name = owner.partition(":")
            what = (
                f"module global {name}.{attr}"
                if kind == "g"
                else f"{name}.{attr}"
            )
            for fn, write in worker_sites:
                if write.locked or _is_constructor(fn):
                    continue
                summary = index.functions[fn]
                yield self.project_finding(
                    path=summary.path,
                    line=write.line,
                    col=write.col,
                    message=(
                        f"unlocked write to {what} in {fn}, which is "
                        f"worker-reachable ({worker[fn]}) while the same "
                        "attribute is also written from main-thread code"
                    ),
                    hint=(
                        "guard with a lock, or pragma "
                        "allow-shared-state(reason) naming the "
                        "happens-before edge"
                    ),
                )
