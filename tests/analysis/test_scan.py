"""Scan orchestration: one path, one answer for one tree."""

from repro.analysis import Finding, lint_paths

BAD_EXCEPT = "try:\n    work()\nexcept Exception:\n    pass\n"

JUSTIFIED_EXCEPT = (
    "try:\n"
    "    work()\n"
    "except Exception:  # lint: allow-broad-except(best-effort cleanup)\n"
    "    pass\n"
)


def test_same_tree_same_sorted_findings_and_pragmas_suppress(tmp_path):
    for i in range(4):
        (tmp_path / f"bad_{i}.py").write_text(BAD_EXCEPT)
    (tmp_path / "justified.py").write_text(JUSTIFIED_EXCEPT)

    first, first_supp = lint_paths([str(tmp_path)])
    second, second_supp = lint_paths([str(tmp_path)])

    assert second == first
    assert second_supp == first_supp
    assert first == sorted(first, key=Finding.sort_key)
    assert [f.rule for f in first] == ["NES003"] * 4
    # the pragma'd finding is suppressed, not dropped
    assert [f.rule for f in first_supp] == ["NES003"]
    assert first_supp[0].path.endswith("/justified.py")
