"""The repo must pass its own linter — and seeded violations must fail it."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]

# One known-bad snippet per rule, each placed in a scoped mirror path.
VIOLATIONS = {
    "NES001": (
        "repro/selection/bad.py",
        "import numpy as np\nx = np.random.rand(3)\n",
    ),
    "NES002": (
        "repro/selection/bad.py",
        "import numpy as np\nx = np.zeros(5)\n",
    ),
    "NES003": (
        "repro/anywhere/bad.py",
        "try:\n    work()\nexcept Exception:\n    pass\n",
    ),
    "NES005": (
        "repro/nn/bad.py",
        "class Layer:\n    def forward(self, x):\n        return x\n",
    ),
    "NES006": (
        "repro/anywhere/bad.py",
        textwrap.dedent(
            """
            from repro import obs

            def f():
                sp = obs.span("epoch")
                sp.set(x=1)
            """
        ),
    ),
    "NES011": (
        "repro/anywhere/bad.py",
        textwrap.dedent(
            """
            from repro import obs

            def record(mode):
                obs.metrics().counter("selection." + mode).inc()
            """
        ),
    ),
}


class TestSelfLint:
    def test_repo_tree_is_clean_under_committed_baseline(self, capsys):
        code = main(
            [
                "lint",
                str(ROOT / "src"),
                "--baseline",
                str(ROOT / "LINT_BASELINE.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, f"self-lint failed:\n{out}"
        assert "0 new finding(s)" in out

    def test_repo_tree_without_baseline_reports_only_grandfathered(self, capsys):
        code = main(["lint", str(ROOT / "src"), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        # The single grandfathered finding: facility.py's documented
        # entropy-seeded API default.
        assert out.count("NES001") == 1
        assert "facility.py" in out

    def test_list_rules_prints_table(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "NES001", "NES002", "NES003", "NES005", "NES006", "NES007",
            "NES011",
        ):
            assert rule in out
        assert "NES008" not in out

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "no/such/path"]) == 2

    def test_source_starts_no_threads_or_processes(self):
        # Nothing in src/repro spawns a thread or a process; that is why
        # the tree needs no cross-thread race rule and no per-thread
        # tracing mute.  Locks (threading.Lock) stay allowed.
        def banned(name):
            return name == "threading.Thread" or any(
                name == mod or name.startswith(mod + ".")
                for mod in ("concurrent.futures", "multiprocessing", "_thread")
            )

        offenders = []
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [ast.unparse(node)]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                    for name in names
                    if banned(name)
                ]
        assert offenders == []


class TestSeededViolations:
    @pytest.mark.parametrize("rule", sorted(VIOLATIONS))
    def test_each_rule_fails_lint(self, rule, tmp_path, capsys):
        relpath, source = VIOLATIONS[rule]
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(source)
        code = main(
            ["lint", str(tmp_path), "--no-baseline", "--select", rule, "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert rule in out

    def test_json_output_shape(self, tmp_path, capsys):
        import json

        relpath, source = VIOLATIONS["NES003"]
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(source)
        main(["lint", str(tmp_path), "--no-baseline", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"findings", "baseline_matched", "suppressed"}
        (finding,) = doc["findings"]
        assert finding["rule"] == "NES003"
        assert finding["line"] == 3
        assert finding["fingerprint"]
