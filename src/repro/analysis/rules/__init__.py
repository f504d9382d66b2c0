"""Rule modules; importing this package registers every checker.

| rule   | pragma                 | invariant |
|--------|------------------------|-----------|
| NES001 | allow-determinism      | no global-state randomness in selection/parallel/nn |
| NES002 | allow-implicit-float64 | allocations in dtype-accounted modules name their dtype |
| NES003 | allow-broad-except     | broad handlers re-raise, log, or justify themselves |
| NES005 | allow-shape-contract   | public nn forwards carry composing shape contracts |
| NES006 | allow-span-with        | obs spans are with-managed at the call site |
| NES007 | allow-pool-lease       | buffer-pool leases released on all exit paths |
| NES008 | allow-upcast           | no float64 creation/upcast inside selection/qscore |
| NES009 | allow-shared-state     | no unlocked cross-thread attribute writes (project) |
| NES010 | allow-f64-escape       | no float64 flow into qscore/craig hot paths (project) |
| NES011 | allow-dynamic-metric   | metric names are declared dotted literals (METRIC_TABLE) |
| NES012 | allow-shape            | no provable shape error in selection/nn/parallel (project) |
| NES013 | allow-shape-conformance| forward bodies implement their @shape_contract (project) |
| NES014 | allow-dtype-drift      | no inferred float64 past declared precision into sinks (project) |

(NES000 is the engine's parse-failure pseudo-rule; it has no pragma and
cannot be baselined.  NES009/NES010 are whole-program rules driven by
:mod:`repro.analysis.project`; NES012–NES014 ride the abstract
interpreter in :mod:`repro.analysis.absint`.)
"""

from repro.analysis.rules import (  # noqa: F401 - imports register checkers
    absint_rules,
    determinism,
    escape,
    exceptions,
    metricnames,
    pool,
    precision,
    races,
    shape,
    spans,
    upcast,
)
