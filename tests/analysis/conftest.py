"""Helpers shared by the analysis-engine tests.

Rules scope on recorded path substrings (``repro/selection/`` etc.), so
fixtures lint in-memory snippets under fake recorded paths — no real
files needed except for the filesystem-walking tests.
"""

import textwrap

import pytest

from repro.analysis import lint_source


@pytest.fixture
def run_rule():
    """Lint a snippet at a fake path; return findings for one rule."""

    def run(source, path, rule):
        findings = lint_source(textwrap.dedent(source), path)
        return [f for f in findings if f.rule == rule]

    return run
