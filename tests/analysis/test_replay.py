"""Replay of every defect the source checks got fixed, against today's source.

Each historic fix is undone by a textual mutation of the current file
and must be caught by exactly the rule that found it.  A mutation whose
anchor text has gone fails the test: the replay must be re-pointed, not
silently skipped.
"""

import ast
from pathlib import Path

import pytest

from tests.analysis.checks import check

ROOT = Path(__file__).resolve().parents[2]

# (rule, file, text as fixed, text as it was when the rule fired)
PER_FILE = [
    (
        "NES002", "src/repro/selection/dynamics.py",
        "np.zeros(num_ids, dtype=np.int64)", "np.zeros(num_ids)",
    ),
    (
        "NES003", "src/repro/selection/gradients.py",
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
    assert check(ast.parse(source), path) == []

    (finding,) = check(ast.parse(source.replace(fixed, broken)), path)
    assert (finding.rule, finding.line) == (rule, line)

