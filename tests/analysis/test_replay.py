"""Replay of every defect the linter got fixed, against today's source.

Each historic fix is undone by a textual mutation of the current file
and must be caught by exactly the rule that found it.  A mutation whose
anchor text has gone fails the test: the replay must be re-pointed, not
silently skipped.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

ROOT = Path(__file__).resolve().parents[2]

# (rule, file, text as fixed, text as it was when the rule fired)
PER_FILE = [
    (
        "NES002", "src/repro/selection/dynamics.py",
        "np.empty(len(ids), dtype=np.float64)", "np.empty(len(ids))",
    ),
    (
        "NES003", "src/repro/selection/gradients.py",
        "except (TypeError, ValueError, AttributeError):",
        "except Exception:",
    ),
    (
        "NES003", "src/repro/parallel/cache.py",
        "except (TypeError, ValueError, AttributeError):",
        "except Exception:",
    ),
]

@pytest.mark.parametrize(
    "rule,path,fixed,broken", PER_FILE, ids=[f"{c[0]}-{c[1]}" for c in PER_FILE]
)
def test_per_file_defect_is_caught_by_its_rule(rule, path, fixed, broken):
    source = (ROOT / path).read_text()
    assert source.count(fixed) == 1, f"anchor gone from {path}: {fixed!r}"
    line = source[: source.index(fixed)].count("\n") + 1
    assert lint_source(source, path) == []

    (finding,) = lint_source(source.replace(fixed, broken), path)
    assert (finding.rule, finding.line) == (rule, line)

