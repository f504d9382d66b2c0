"""The walk itself: what it reads and which rules it runs."""

from pathlib import Path

import pytest

from tests.analysis.checks import RULES, lint_tree


class TestParseFailures:
    def test_syntax_error_yields_nes000(self, tmp_path):
        # An unparsable file fails the walk, naming its path.
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        with pytest.raises(SyntaxError) as exc:
            lint_tree(tmp_path)
        assert exc.value.filename == str(broken)


class TestFilters:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_tree(Path("no/such/dir"))


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert list(RULES) == [
            "NES001", "NES002", "NES003", "NES006", "NES007", "NES011",
        ]
