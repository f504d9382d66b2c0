"""Replay of every defect the linter got fixed, against today's source.

Each historic fix is undone by a textual mutation of the current file
and must be caught by exactly the rule that found it.  A mutation whose
anchor text has gone fails the test: the replay must be re-pointed, not
silently skipped.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    lint_paths,
    lint_source,
    load_baseline,
    partition_findings,
)

ROOT = Path(__file__).resolve().parents[2]

# (rule, file, text as fixed, text as it was when the rule fired)
PER_FILE = [
    (
        "NES002", "src/repro/selection/distributed.py",
        "np.zeros(n, dtype=pool_sim.dtype)", "np.zeros(n)",
    ),
    (
        "NES002", "src/repro/selection/dynamics.py",
        "np.empty(len(ids), dtype=np.float64)", "np.empty(len(ids))",
    ),
    (
        "NES003", "src/repro/selection/gradients.py",
        "except (ImportError, TypeError, ValueError, AttributeError):",
        "except Exception:",
    ),
    (
        "NES003", "src/repro/parallel/cache.py",
        "except (TypeError, ValueError, AttributeError):",
        "except Exception:",
    ),
]

# (file, anchor whose next ``with self._lock:`` is dropped, attrs left bare)
LOCKS = [
    ("obs/metrics.py", "class Counter:", ["Counter.value"]),
    (
        "parallel/cache.py", "    def get(self, key",
        ["ProxyCache.hits", "ProxyCache.misses"],
    ),
    (
        "parallel/engine.py", "    def _note_qscore(self",
        ["SelectionExecutor.last_qscore_stats"],
    ),
    (
        "selection/dynamics.py", "    def observe(self",
        [
            "ForgettingEventsSelector._ever_correct",
            "ForgettingEventsSelector._forget_counts",
            "ForgettingEventsSelector._last_correct",
        ],
    ),
]


@pytest.mark.parametrize(
    "rule,path,fixed,broken", PER_FILE, ids=[f"{c[0]}-{c[1]}" for c in PER_FILE]
)
def test_per_file_defect_is_caught_by_its_rule(rule, path, fixed, broken):
    source = (ROOT / path).read_text()
    assert source.count(fixed) == 1, f"anchor gone from {path}: {fixed!r}"
    line = source[: source.index(fixed)].count("\n") + 1
    assert lint_source(source, path)[0] == []

    (finding,) = lint_source(source.replace(fixed, broken), path)[0]
    assert (finding.rule, finding.line) == (rule, line)


def test_dropped_locks_are_caught_by_the_call_graph(tmp_path):
    shutil.copytree(
        ROOT / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for rel, anchor, _ in LOCKS:
        target = tmp_path / "src" / "repro" / rel
        source = target.read_text()
        assert source.count(anchor) == 1, f"anchor gone from {rel}: {anchor!r}"
        head, body = source.split(anchor)
        assert "with self._lock:" in body, f"no lock left in {rel}"
        target.write_text(
            head + anchor + body.replace("with self._lock:", "if True:", 1)
        )

    findings, _ = lint_paths([str(tmp_path / "src")])
    new, _ = partition_findings(
        findings, load_baseline(str(ROOT / "LINT_BASELINE.json"))
    )

    assert {f.rule for f in new} == {"NES009"}
    expected = [attr for _, _, attrs in LOCKS for attr in attrs]
    assert len(new) == len(expected) == 7
    for attr in expected:
        # "unlocked write to <module>.<Class>.<attr> in <fn>, ..."
        hits = [f for f in new if f".{attr} in " in f.message]
        assert len(hits) == 1, (attr, [f.message for f in new])
