"""Engine mechanics: parse failures, filters, path recording."""

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.registry import rule_ids

BROKEN = "def broken(:\n"
BAD_EXCEPT = "try:\n    work()\nexcept Exception:\n    pass\n"


class TestParseFailures:
    def test_syntax_error_yields_nes000(self):
        findings = lint_source(BROKEN, "x.py")
        assert [f.rule for f in findings] == ["NES000"]
        assert "does not parse" in findings[0].message

    def test_nes000_survives_select_filter(self, tmp_path):
        (tmp_path / "broken.py").write_text(BROKEN)
        findings = lint_paths([str(tmp_path)], select={"NES003"})
        assert [f.rule for f in findings] == ["NES000"]


class TestFilters:
    def test_select(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        findings = lint_paths([str(tmp_path)], select={"NES003"})
        assert [f.rule for f in findings] == ["NES003"]
        findings = lint_paths([str(tmp_path)], select={"NES001"})
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


class TestPathRecording:
    def test_paths_recorded_as_walked(self, tmp_path, monkeypatch):
        pkg = tmp_path / "proj" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(BAD_EXCEPT)
        findings = lint_paths([str(tmp_path / "proj")])
        assert [f.path for f in findings] == [(pkg / "bad.py").as_posix()]
        monkeypatch.chdir(tmp_path)
        findings = lint_paths(["proj"])
        assert [f.path for f in findings] == ["proj/sub/bad.py"]
        findings = lint_paths(["proj/sub/bad.py"])
        assert [f.path for f in findings] == ["proj/sub/bad.py"]

    def test_duplicate_scan_args_deduplicated(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        findings = lint_paths([str(tmp_path), str(tmp_path)])
        assert len(findings) == 1

    def test_skip_dirs_ignored(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "bad.py").write_text(BAD_EXCEPT)
        findings = lint_paths([str(tmp_path)])
        assert findings == []
