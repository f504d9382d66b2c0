"""Scan orchestration: one path, one answer for one tree."""

from repro.analysis import Finding, lint_paths

BAD_EXCEPT = "try:\n    work()\nexcept Exception:\n    pass\n"


def test_same_tree_same_sorted_findings(tmp_path):
    for i in range(4):
        (tmp_path / f"bad_{i}.py").write_text(BAD_EXCEPT)

    first = lint_paths([str(tmp_path)])
    second = lint_paths([str(tmp_path)])

    assert second == first
    assert first == sorted(first, key=Finding.sort_key)
    assert [f.rule for f in first] == ["NES003"] * 4
