"""The committed reference trace is the regression gate for the trace.

A fresh 2-epoch NeSSA run must diff ``ok`` against
``TRACE_REFERENCE.jsonl`` with timing ignored: the same span tree, and
byte attributes and counters that match the reference exactly.
"""

from pathlib import Path

from repro.cli import main

REFERENCE = Path(__file__).resolve().parents[2] / "TRACE_REFERENCE.jsonl"


def test_fresh_trace_matches_the_committed_reference(tmp_path, capsys):
    fresh = tmp_path / "run-trace.jsonl"
    assert main(["train", "--method", "nessa", "--epochs", "2",
                 "--scale", "0.02", "--trace", str(fresh)]) == 0
    capsys.readouterr()
    status = main(["obsdiff", str(REFERENCE), str(fresh),
                   "--tolerance", "inf", "--fail-on", "regressed"])
    assert status == 0, capsys.readouterr().out
