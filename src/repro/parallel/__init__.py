"""Selection work units: deterministic (class x chunk) planning, the
in-process executor that runs them, and the proxy-reuse cache.

See DESIGN.md §4 for the scheduler, the determinism contract and the
cache keying.
"""

from repro.parallel.cache import ProxyCache, model_weights_digest
from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import WorkUnit, plan_selection_round, unit_rng

__all__ = [
    "ProxyCache",
    "model_weights_digest",
    "SelectionExecutor",
    "WorkUnit",
    "plan_selection_round",
    "unit_rng",
]
