"""Scan orchestration: one path, one answer for one tree."""

import textwrap

from repro.analysis import Finding, lint_paths

BAD_EXCEPT = "try:\n    work()\nexcept Exception:\n    pass\n"

THREADED_RACE = """
import threading

class Round:
    def __init__(self):
        self.count = 0
        self.total = 0

    def _run(self):
        self.count += 1
        self.total += 1  # lint: allow-shared-state(joined before reset)

    def reset(self):
        self.count = 0
        self.total = 0

    def launch(self):
        threading.Thread(target=self._run).start()
"""


def test_same_tree_same_sorted_findings_and_project_pragmas_suppress(tmp_path):
    for i in range(4):
        (tmp_path / f"bad_{i}.py").write_text(BAD_EXCEPT)
    (tmp_path / "race.py").write_text(textwrap.dedent(THREADED_RACE))

    first, first_supp = lint_paths([str(tmp_path)])
    second, second_supp = lint_paths([str(tmp_path)])

    assert [f.to_dict() for f in second] == [f.to_dict() for f in first]
    assert [f.to_dict() for f in second_supp] == [
        f.to_dict() for f in first_supp
    ]
    assert first == sorted(first, key=Finding.sort_key)
    # per-file and project findings arrive in one list; the pragma'd
    # project finding is suppressed, not dropped
    assert [f.rule for f in first] == ["NES003"] * 4 + ["NES009"]
    assert "Round.count" in first[-1].message
    assert [f.rule for f in first_supp] == ["NES009"]
    assert "Round.total" in first_supp[0].message
    assert all(f.fingerprint for f in first + first_supp)
