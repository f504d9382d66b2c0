"""SARIF 2.1.0 export for CI annotation.

One run, one driver (``repro-lint``): every registered rule (plus the
NES000 parse-failure pseudo-rule) becomes a ``reportingDescriptor``,
every finding a ``result`` with a physical location and the engine's
baseline fingerprint under ``partialFingerprints`` so SARIF consumers
dedupe across runs exactly like ``LINT_BASELINE.json`` does.
"""

from __future__ import annotations

from repro.analysis.registry import all_checkers

__all__ = ["build_sarif", "SARIF_SCHEMA_URI", "SARIF_VERSION"]

SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"
_FINGERPRINT_KEY = "reproLintFingerprint/v1"
_LEVELS = {"error", "warning", "note"}


def _rule_descriptors() -> list:
    rules = [
        {
            "id": "NES000",
            "name": "ParseFailure",
            "shortDescription": {"text": "file does not parse"},
            "defaultConfiguration": {"level": "error"},
        }
    ]
    for checker in all_checkers():
        rules.append(
            {
                "id": checker.rule,
                "name": type(checker).__name__,
                "shortDescription": {"text": checker.description},
                "defaultConfiguration": {"level": "error"},
                "properties": {"pragma": f"lint: allow-{checker.pragma}(reason)"},
            }
        )
    return rules


def _result(finding) -> dict:
    text = finding.message
    if finding.hint:
        text = f"{text} [{finding.hint}]"
    result = {
        "ruleId": finding.rule,
        "level": finding.severity if finding.severity in _LEVELS else "warning",
        "message": {"text": text},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": max(1, finding.col),
                    },
                }
            }
        ],
    }
    if finding.fingerprint:
        result["partialFingerprints"] = {_FINGERPRINT_KEY: finding.fingerprint}
    return result


def build_sarif(findings: list) -> dict:
    """A complete SARIF 2.1.0 log object for one lint run."""
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/nessa-repro/lint"
                        ),
                        "rules": _rule_descriptors(),
                    }
                },
                "results": [_result(f) for f in findings],
                "columnKind": "unicodeCodePoints",
            }
        ],
    }
