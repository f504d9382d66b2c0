"""Rule modules; importing this package registers every checker.

| rule   | pragma                 | invariant |
|--------|------------------------|-----------|
| NES001 | allow-determinism      | no global-state randomness in selection/parallel/nn |
| NES002 | allow-implicit-float64 | allocations in dtype-accounted modules name their dtype |
| NES003 | allow-broad-except     | broad handlers re-raise, log, or justify themselves |
| NES006 | allow-span-with        | obs spans are with-managed at the call site |
| NES007 | allow-pool-lease       | buffer-pool leases released on all exit paths |
| NES011 | allow-dynamic-metric   | metric names are declared dotted literals (METRIC_TABLE) |

(NES000 is the engine's parse-failure pseudo-rule; it has no pragma and
survives every ``--select``.  The gaps in the numbering are retired ids; they
are not reused.)
"""

from repro.analysis.rules import (  # noqa: F401 - imports register checkers
    determinism,
    exceptions,
    metricnames,
    pool,
    precision,
    spans,
)
