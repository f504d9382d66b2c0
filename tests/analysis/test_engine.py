"""Engine mechanics: pragmas, parse failures, filters, path recording."""

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.engine import PRAGMA_RE
from repro.analysis.registry import all_checkers, rule_ids

BROKEN = "def broken(:\n"
BAD_EXCEPT = "try:\n    work()\nexcept Exception:\n    pass\n"


class TestPragmas:
    def test_grammar_extracts_name_and_reason(self):
        match = PRAGMA_RE.search("x = 1  # lint: allow-broad-except(designed fallback)")
        assert match.group(1) == "broad-except"
        assert match.group(2) == "designed fallback"

    def test_pragma_on_line_above_suppresses(self):
        source = (
            "try:\n    work()\n"
            "# lint: allow-broad-except(fallback by design)\n"
            "except Exception:\n    pass\n"
        )
        findings, suppressed = lint_source(source, "x.py")
        assert [f.rule for f in findings] == []
        assert [f.rule for f in suppressed] == ["NES003"]

    def test_pragma_two_lines_up_does_not_suppress(self):
        source = (
            "try:\n    work()\n"
            "# lint: allow-broad-except(too far away)\n"
            "# unrelated comment\n"
            "except Exception:\n    pass\n"
        )
        findings, _ = lint_source(source, "x.py")
        assert [f.rule for f in findings] == ["NES003"]

    def test_wrong_pragma_name_does_not_suppress(self):
        source = (
            "try:\n    work()\n"
            "# lint: allow-determinism(wrong rule)\n"
            "except Exception:\n    pass\n"
        )
        findings, _ = lint_source(source, "x.py")
        assert [f.rule for f in findings] == ["NES003"]


class TestParseFailures:
    def test_syntax_error_yields_nes000(self):
        findings, _ = lint_source(BROKEN, "x.py")
        assert [f.rule for f in findings] == ["NES000"]
        assert "does not parse" in findings[0].message

    def test_nes000_survives_select_filter(self, tmp_path):
        (tmp_path / "broken.py").write_text(BROKEN)
        findings, _ = lint_paths([str(tmp_path)], select={"NES003"})
        assert [f.rule for f in findings] == ["NES000"]


class TestFilters:
    def test_select(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        findings, _ = lint_paths([str(tmp_path)], select={"NES003"})
        assert [f.rule for f in findings] == ["NES003"]
        findings, _ = lint_paths([str(tmp_path)], select={"NES001"})
        assert findings == []

    def test_unknown_select_id_raises(self, tmp_path):
        with pytest.raises(ValueError, match="NES03"):
            lint_paths([str(tmp_path)], select={"NES03"})

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"])


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert rule_ids() == [
            "NES001", "NES002", "NES003", "NES006", "NES007", "NES011",
        ]

    def test_every_checker_has_pragma_and_description(self):
        for checker in all_checkers():
            assert checker.pragma
            assert checker.description


class TestPathRecording:
    def test_paths_recorded_as_walked(self, tmp_path, monkeypatch):
        pkg = tmp_path / "proj" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(BAD_EXCEPT)
        findings, _ = lint_paths([str(tmp_path / "proj")])
        assert [f.path for f in findings] == [(pkg / "bad.py").as_posix()]
        monkeypatch.chdir(tmp_path)
        findings, _ = lint_paths(["proj"])
        assert [f.path for f in findings] == ["proj/sub/bad.py"]
        findings, _ = lint_paths(["proj/sub/bad.py"])
        assert [f.path for f in findings] == ["proj/sub/bad.py"]

    def test_duplicate_scan_args_deduplicated(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        findings, _ = lint_paths([str(tmp_path), str(tmp_path)])
        assert len(findings) == 1

    def test_skip_dirs_ignored(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "bad.py").write_text(BAD_EXCEPT)
        findings, _ = lint_paths([str(tmp_path)])
        assert findings == []
