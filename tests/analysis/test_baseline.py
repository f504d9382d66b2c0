"""Baseline round-trip: snapshot, match, resurface-on-edit, multiplicity."""

import json

import pytest

from repro.analysis import (
    lint_paths,
    load_baseline,
    partition_findings,
    write_baseline,
)

BAD_EXCEPT = "try:\n    work()\nexcept Exception:\n    pass\n"


def _lint(tmp_path):
    findings, _ = lint_paths([str(tmp_path)])
    return findings


class TestRoundTrip:
    def test_snapshot_then_clean(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        findings = _lint(tmp_path)
        assert len(findings) == 1

        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), findings)
        new, matched = partition_findings(findings, load_baseline(str(baseline)))
        assert new == []
        assert matched == 1

    def test_writer_stamps_todo_justification(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), _lint(tmp_path))
        doc = json.loads(baseline.read_text())
        assert doc["version"] == 1
        assert all("justif" in e["justification"].lower() or "TODO" in e["justification"]
                   for e in doc["findings"])

    def test_edited_line_resurfaces(self, tmp_path):
        """Fingerprints hash line content, so an edit voids the entry."""
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), _lint(tmp_path))

        (tmp_path / "bad.py").write_text(
            "try:\n    work()\nexcept (Exception, OSError):\n    pass\n"
        )
        new, matched = partition_findings(
            _lint(tmp_path), load_baseline(str(baseline))
        )
        assert len(new) == 1
        assert matched == 0

    def test_moved_line_still_matches(self, tmp_path):
        """Same content at a new line number still matches (line-tolerant)."""
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), _lint(tmp_path))

        (tmp_path / "bad.py").write_text("# a new leading comment\n" + BAD_EXCEPT)
        new, matched = partition_findings(
            _lint(tmp_path), load_baseline(str(baseline))
        )
        assert new == []
        assert matched == 1

    def test_multiplicity_is_respected(self, tmp_path):
        """Two identical violations need two entries — one entry covers one."""
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), _lint(tmp_path))

        (tmp_path / "bad.py").write_text(BAD_EXCEPT + BAD_EXCEPT)
        new, matched = partition_findings(
            _lint(tmp_path), load_baseline(str(baseline))
        )
        assert len(new) == 1
        assert matched == 1

    def test_version_mismatch_rejected(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="baseline version"):
            load_baseline(str(baseline))


class TestJustificationGate:
    """`lint --check-baseline` refuses unjustified grandfathered findings."""

    def _write(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), _lint(tmp_path))
        return baseline

    def test_fresh_baseline_is_entirely_unjustified(self, tmp_path):
        from repro.analysis import unjustified_entries

        baseline = self._write(tmp_path)
        entries = unjustified_entries(str(baseline))
        assert len(entries) == 1
        assert entries[0]["rule"] == "NES003"

    def test_real_justification_passes(self, tmp_path):
        from repro.analysis import unjustified_entries

        baseline = self._write(tmp_path)
        doc = json.loads(baseline.read_text())
        doc["findings"][0]["justification"] = (
            "legacy handler; re-raise would break the retry loop (see #42)"
        )
        baseline.write_text(json.dumps(doc))
        assert unjustified_entries(str(baseline)) == []

    @pytest.mark.parametrize(
        "text", ["", "   ", "TODO: look into this", "todo", "UNJUSTIFIED: why"]
    )
    def test_placeholder_variants_all_fail(self, tmp_path, text):
        from repro.analysis import unjustified_entries

        baseline = self._write(tmp_path)
        doc = json.loads(baseline.read_text())
        doc["findings"][0]["justification"] = text
        baseline.write_text(json.dumps(doc))
        assert len(unjustified_entries(str(baseline))) == 1

    def test_missing_justification_key_fails(self, tmp_path):
        from repro.analysis import unjustified_entries

        baseline = self._write(tmp_path)
        doc = json.loads(baseline.read_text())
        del doc["findings"][0]["justification"]
        baseline.write_text(json.dumps(doc))
        assert len(unjustified_entries(str(baseline))) == 1

    def test_version_mismatch_rejected(self, tmp_path):
        from repro.analysis import unjustified_entries

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="baseline version"):
            unjustified_entries(str(baseline))

    def test_cli_check_baseline_gates(self, tmp_path, capsys):
        from repro.cli import main

        baseline = self._write(tmp_path)
        assert main(["lint", "--check-baseline", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "unjustified" in out.lower()

        doc = json.loads(baseline.read_text())
        doc["findings"][0]["justification"] = "argued for in review: retry loop"
        baseline.write_text(json.dumps(doc))
        assert main(["lint", "--check-baseline", "--baseline", str(baseline)]) == 0

    def test_cli_check_baseline_absent_file_is_clean(self, tmp_path):
        from repro.cli import main

        missing = tmp_path / "nowhere.json"
        assert main(["lint", "--check-baseline", "--baseline", str(missing)]) == 0


class TestMultiplicityEdges:
    """Same-fingerprint findings beyond the grandfathered count surface."""

    def test_excess_over_grandfathered_count_surfaces(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), _lint(tmp_path))

        # one entry grandfathered, three identical violations now: the
        # two excess occurrences must come back as new findings
        (tmp_path / "bad.py").write_text(BAD_EXCEPT * 3)
        new, matched = partition_findings(
            _lint(tmp_path), load_baseline(str(baseline))
        )
        assert len(new) == 2
        assert matched == 1

    def test_fewer_than_grandfathered_still_clean(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT * 3)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), _lint(tmp_path))

        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        new, matched = partition_findings(
            _lint(tmp_path), load_baseline(str(baseline))
        )
        assert new == []
        assert matched == 1


class TestWriteBaselineIdempotence:
    def test_two_writes_produce_identical_files(self, tmp_path):
        from repro.cli import main

        (tmp_path / "bad.py").write_text(BAD_EXCEPT + BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        args = [
            "lint", str(tmp_path),
            "--write-baseline", "--baseline", str(baseline),
        ]
        assert main(args) == 0
        first = baseline.read_text()
        assert main(args) == 0
        assert baseline.read_text() == first
        # both occurrences are snapshotted, not collapsed by fingerprint
        assert len(json.loads(first)["findings"]) == 2

    def test_rewrite_after_fix_drops_the_entry(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text(BAD_EXCEPT)
        baseline = tmp_path / "baseline.json"
        args = [
            "lint", str(tmp_path),
            "--write-baseline", "--baseline", str(baseline),
        ]
        assert main(args) == 0
        assert len(json.loads(baseline.read_text())["findings"]) == 1

        bad.write_text("try:\n    work()\nexcept ValueError:\n    pass\n")
        assert main(args) == 0
        assert json.loads(baseline.read_text())["findings"] == []
