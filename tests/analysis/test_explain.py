"""``--explain`` examples are live: every pair must lint as shown.

Each rule's violating snippet must trigger exactly that rule and its
clean twin must not, linted at the example's recorded path through the
full scan pipeline — so the help text can never drift from the
checkers.
"""

import textwrap

import pytest

from repro.analysis import all_checkers, lint_paths
from repro.analysis.explain import EXAMPLES, explain_rule
from repro.analysis.__main__ import main


def _lint_example(tmp_path, example, snippet):
    target = tmp_path / example.path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(snippet))
    findings, _ = lint_paths([str(tmp_path)])
    return findings


class TestExamplesAreLive:
    @pytest.mark.parametrize("rule", sorted(EXAMPLES))
    def test_bad_example_triggers_its_rule(self, tmp_path, rule):
        findings = _lint_example(tmp_path, EXAMPLES[rule], EXAMPLES[rule].bad)
        assert any(f.rule == rule for f in findings), (
            f"{rule} violating example did not trigger: "
            f"{[f.rule for f in findings]}"
        )

    @pytest.mark.parametrize("rule", sorted(EXAMPLES))
    def test_clean_example_does_not_trigger(self, tmp_path, rule):
        findings = _lint_example(tmp_path, EXAMPLES[rule], EXAMPLES[rule].good)
        assert not any(f.rule == rule for f in findings), (
            f"{rule} clean example still triggers"
        )

    def test_every_registered_rule_has_an_example(self):
        assert sorted(EXAMPLES) == [c.rule for c in all_checkers()]


class TestRendering:
    def test_explain_mentions_description_pragma_and_examples(self):
        text = explain_rule("NES006")
        assert "NES006" in text
        assert "allow-span-with(reason)" in text
        assert "required" in text
        assert "violates" in text and "clean:" in text

    def test_unknown_rule_returns_none(self):
        assert explain_rule("NES999") is None

    def test_lowercase_rule_id_accepted(self):
        assert explain_rule("nes006") is not None


class TestCli:
    def test_cli_explain_prints_rule(self, capsys):
        assert main(["--explain", "NES007"]) == 0
        out = capsys.readouterr().out
        assert "NES007" in out
        assert "allow-pool-lease(reason)" in out

    def test_cli_explain_unknown_rule_exits_2(self, capsys):
        assert main(["--explain", "NES999"]) == 2
        assert "unknown rule" in capsys.readouterr().out
