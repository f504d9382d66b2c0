"""``repro.analysis`` — the AST lint engine enforcing repo invariants.

The reproduction's trustworthiness rests on invariants no unit test
watches continuously: selection must be deterministic (seeded
generators only), allocated dtypes must match the similarity-tile
byte accounting, and errors must not be silently swallowed.  This
package machine-checks them with a stdlib-``ast`` engine:

- :mod:`repro.analysis.engine` — per-file visitor pipeline;
- :mod:`repro.analysis.scan` — the one scan path: walk, per-file
  rules, sorted findings;
- :mod:`repro.analysis.registry` — checker registry (one class per rule);
- :mod:`repro.analysis.rules` — the six rule implementations
  (NES001–NES003, NES006, NES007, NES011);
- :mod:`repro.analysis.findings` — structured findings.

The gate is the tier-1 test ``tests/analysis/test_selflint.py``: the
``src`` tree must lint clean; run it with ``python -m pytest
tests/analysis -q``.
"""

from repro.analysis.engine import lint_source
from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers, rule_ids
from repro.analysis.scan import lint_paths

__all__ = [
    "Finding",
    "all_checkers",
    "rule_ids",
    "lint_paths",
    "lint_source",
]
