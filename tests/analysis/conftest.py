"""Helpers shared by the source-invariant tests.

Rules scope on recorded path substrings (``repro/selection/`` etc.), so
fixtures check in-memory snippets under fake recorded paths — no real
files needed except for the filesystem-walking tests.
"""

import ast
import textwrap

import pytest

from tests.analysis.checks import check


@pytest.fixture
def run_rule():
    """Check a snippet at a fake path; return findings for one rule."""

    def run(source, path, rule):
        findings = check(ast.parse(textwrap.dedent(source)), path)
        return [f for f in findings if f.rule == rule]

    return run
