"""Rule modules; importing this package registers every checker.

| rule   | invariant |
|--------|-----------|
| NES001 | no global-state randomness in selection/parallel/nn |
| NES002 | allocations in dtype-accounted modules name their dtype |
| NES003 | broad handlers re-raise or log |
| NES006 | obs spans are with-managed at the call site |
| NES007 | buffer-pool leases released on all exit paths |
| NES011 | metric names are declared dotted literals (METRIC_TABLE) |

(NES000 is the engine's parse-failure pseudo-rule; it survives every
``select``.  The gaps in the numbering are retired ids; they are not
reused.)
"""

from repro.analysis.rules import (  # noqa: F401 - imports register checkers
    determinism,
    exceptions,
    metricnames,
    pool,
    precision,
    spans,
)
