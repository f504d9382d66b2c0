"""The repo must pass its own linter — and seeded violations must fail it.

This is the lint gate: tier-1 fails on any finding in ``src``.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.__main__ import main

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
    "NES007": (
        "repro/nn/bad.py",
        "def f(pool):\n    lease = pool.lease((4, 4))\n    return lease.array.sum()\n",
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
    def test_repo_tree_is_clean(self):
        findings, _ = lint_paths([ROOT / "src"])
        assert findings == [], "self-lint failed:\n" + "\n".join(
            f.render() for f in findings
        )

    def test_cli_on_repo_tree_exits_0(self, capsys):
        assert main([str(ROOT / "src")]) == 0
        assert "lint: 0 finding(s)" in capsys.readouterr().out

    def test_list_rules_prints_table(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "NES001", "NES002", "NES003", "NES006", "NES007", "NES011",
        ):
            assert rule in out
        assert "NES008" not in out

    def test_missing_path_exits_2(self, capsys):
        assert main(["no/such/path"]) == 2

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


def _seed(tmp_path, rule):
    relpath, source = VIOLATIONS[rule]
    target = tmp_path / relpath
    target.parent.mkdir(parents=True)
    target.write_text(source)
    return target


class TestSeededViolations:
    @pytest.mark.parametrize("rule", sorted(VIOLATIONS))
    def test_each_rule_fails_lint(self, rule, tmp_path, capsys):
        target = _seed(tmp_path, rule)
        code = main([str(tmp_path), "--select", rule])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{target.as_posix()}:" in out
        assert f" {rule} " in out

    def test_violation_in_a_copied_selection_module_is_named(self, tmp_path):
        # The self-lint failure message names file, line and rule.
        target = tmp_path / "src/repro/selection/facility.py"
        target.parent.mkdir(parents=True)
        source = (ROOT / "src/repro/selection/facility.py").read_text()
        target.write_text(source + "x = np.random.rand(3)\n")
        (finding,) = lint_paths([tmp_path / "src"])[0]
        line = source.count("\n") + 1
        assert finding.render().startswith(f"{target.as_posix()}:{line}:5: NES001 ")

    @pytest.mark.parametrize("select", ["nes003", "NES001, nes003"])
    def test_select_ids_are_case_insensitive(self, select, tmp_path, capsys):
        _seed(tmp_path, "NES003")
        assert main([str(tmp_path), "--select", select]) == 1
        assert " NES003 " in capsys.readouterr().out

    def test_unknown_select_id_exits_2_naming_valid_ids(self, tmp_path, capsys):
        _seed(tmp_path, "NES003")
        assert main([str(tmp_path), "--select", "NES03"]) == 2
        out = capsys.readouterr().out
        assert "NES03" in out
        assert "valid: NES001, NES002, NES003" in out
