"""Selection work units: deterministic (class x chunk) planning and the
in-process executor that runs them.

See DESIGN.md §4 for the scheduler and the determinism contract.
"""

from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import WorkUnit, plan_selection_round, unit_rng

__all__ = [
    "SelectionExecutor",
    "WorkUnit",
    "plan_selection_round",
    "unit_rng",
]
