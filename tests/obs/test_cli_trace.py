"""CLI surface: --trace flags produce traces repro.cli report can read."""

import json
from pathlib import Path

import pytest

from repro.cli import main


class TestSystemTrace:
    def test_system_trace_then_report_with_chrome_export(self, tmp_path, capsys):
        trace_path = tmp_path / "system.jsonl"
        assert main(["system", "--dataset", "cifar10",
                     "--trace", str(trace_path)]) == 0
        assert trace_path.exists()
        capsys.readouterr()

        chrome_path = tmp_path / "system.chrome.json"
        assert main(["report", str(trace_path),
                     "--chrome", str(chrome_path)]) == 0
        out = capsys.readouterr().out
        assert "strategy_price" in out
        assert "run: system-cifar10" in out

        doc = json.loads(chrome_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "strategy_price" in names
        ids = {
            e["args"]["id"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"strategy_price@full", "strategy_price@nessa"} <= ids

    def test_trace_flag_restores_globals_after_run(self, tmp_path):
        from repro import obs

        assert main(["system", "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert obs.get_tracer() is None
        assert not obs.enabled()

    def test_report_flame_writes_folded_stacks(self, tmp_path, capsys):
        trace_path = tmp_path / "system.jsonl"
        flame_path = tmp_path / "system.folded"
        assert main(["system", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace_path),
                     "--flame", str(flame_path)]) == 0
        assert "folded stacks (wall)" in capsys.readouterr().out
        folded = flame_path.read_text()
        assert "strategy_price" in folded
        for line in folded.splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) > 0


class TestReportErrors:
    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "report:" in capsys.readouterr().out

    def test_non_trace_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "wat"}\n')
        assert main(["report", str(bad)]) == 2

    def test_empty_trace_reports_gracefully(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"kind": "meta", "schema": 1, "run": "idle"}\n')
        assert main(["report", str(empty)]) == 0
        assert "no spans" in capsys.readouterr().out


_META = '{"kind": "meta", "schema": 2, "run": "x"}'
_GOOD_SPAN = ('{"kind": "span", "id": "epoch#0", "name": "epoch", '
              '"parent": null, "start_s": 0.0, "dur_s": 1.0, "attrs": {}}')


class TestMalformedTraces:
    """An unreadable trace exits 2 with a message, never a traceback
    (for obsdiff, exit 1 would read as a regression)."""

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        _GOOD_SPAN.replace('"dur_s": 1.0, ', ""),
        _GOOD_SPAN.replace('"id": "epoch#0", ', ""),
    ], ids=["non-object-line", "span-without-dur_s", "span-without-id"])
    @pytest.mark.parametrize("command", ["report", "obsdiff"])
    def test_exits_2_naming_the_line(self, tmp_path, capsys, command, line):
        good = tmp_path / "good.jsonl"
        good.write_text(f"{_META}\n{_GOOD_SPAN}\n")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{_META}\n{line}\n")
        argv = [command, str(bad)] if command == "report" else \
            [command, str(good), str(bad)]
        assert main(argv) == 2
        assert f"{command}: line 2:" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_dur", [
        lambda dur: float("nan"), lambda dur: -10 * dur, lambda dur: str(dur),
    ], ids=["nan", "negative", "string"])
    def test_reference_with_bad_durations_exits_2(self, tmp_path, capsys, bad_dur):
        reference = Path(__file__).resolve().parents[2] / "TRACE_REFERENCE.jsonl"
        lines = []
        for line in reference.read_text().splitlines():
            doc = json.loads(line)
            if doc["kind"] == "span":
                doc["dur_s"] = bad_dur(doc["dur_s"])
            lines.append(json.dumps(doc))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["obsdiff", str(reference), str(bad)]) == 2
        assert "obsdiff: line 2: span dur_s" in capsys.readouterr().out
