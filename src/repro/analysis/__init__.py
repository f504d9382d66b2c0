"""``repro.analysis`` — the AST lint engine enforcing repo invariants.

The reproduction's trustworthiness rests on invariants no unit test
watches continuously: selection must be deterministic (seeded
generators only), allocated dtypes must match the
``similarity_precision`` byte accounting, errors must not be silently
swallowed, and nn forward shapes must compose.  This package
machine-checks them with a stdlib-``ast`` engine:

- :mod:`repro.analysis.engine` — per-file visitor pipeline + pragmas;
- :mod:`repro.analysis.scan` — the one scan path: walk, per-file
  rules, sorted findings;
- :mod:`repro.analysis.registry` — checker registry (one class per rule);
- :mod:`repro.analysis.rules` — the seven rule implementations
  (NES001–NES003, NES005–NES007, NES011);
- :mod:`repro.analysis.findings` — structured findings + fingerprints;
- :mod:`repro.analysis.baseline` — grandfathered-finding baseline file;
- :mod:`repro.analysis.explain` — ``--explain`` example pairs;
- :mod:`repro.analysis.sarif` — SARIF 2.1.0 export for CI annotation.

Entry point: ``python -m repro.cli lint`` (see ``--help``); inline
suppression: ``# lint: allow-<pragma>(reason)`` with a mandatory reason.
"""

from repro.analysis.baseline import (
    load_baseline,
    partition_findings,
    unjustified_entries,
    write_baseline,
)
from repro.analysis.engine import lint_source
from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers, rule_ids
from repro.analysis.sarif import build_sarif
from repro.analysis.scan import lint_paths

__all__ = [
    "Finding",
    "all_checkers",
    "rule_ids",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "write_baseline",
    "unjustified_entries",
    "partition_findings",
    "build_sarif",
]
