"""SARIF 2.1.0 export: structure, rule metadata, CLI round-trip."""

import json

from repro.analysis import build_sarif, lint_source, rule_ids
from repro.analysis.sarif import SARIF_SCHEMA_URI, SARIF_VERSION
from repro.cli import main

BAD_EXCEPT = "try:\n    work()\nexcept Exception:\n    pass\n"


class TestStructure:
    def test_empty_log_is_schema_shaped(self):
        log = build_sarif([])
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA_URI
        (run,) = log["runs"]
        assert run["results"] == []
        assert run["tool"]["driver"]["name"] == "repro-lint"

    def test_every_rule_gets_a_descriptor(self):
        (run,) = build_sarif([])["runs"]
        described = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert described == set(rule_ids()) | {"NES000"}

    def test_result_carries_location_and_fingerprint(self):
        findings, _ = lint_source(BAD_EXCEPT, "pkg/mod.py")
        (result,) = build_sarif(findings)["runs"][0]["results"]
        assert result["ruleId"] == "NES003"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "pkg/mod.py"
        assert location["region"]["startLine"] == 3
        assert result["partialFingerprints"]["reproLintFingerprint/v1"]
        assert result["message"]["text"]

    def test_log_is_json_serializable(self):
        findings, _ = lint_source(BAD_EXCEPT, "pkg/mod.py")
        dumped = json.dumps(build_sarif(findings))
        assert json.loads(dumped)["version"] == "2.1.0"


class TestCliRoundTrip:
    def test_format_sarif_writes_a_loadable_log(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        out_file = tmp_path / "lint.sarif"
        code = main(
            [
                "lint", str(tmp_path),
                "--no-baseline",
                "--format", "sarif", "--output", str(out_file),
            ]
        )
        assert code == 1  # findings still drive the exit code
        log = json.loads(out_file.read_text())
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "NES003"

    def test_sarif_to_stdout(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_EXCEPT)
        main(["lint", str(tmp_path), "--no-baseline", "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
