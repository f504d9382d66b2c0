"""The repo must pass its own linter — and seeded violations must fail it.

This is the lint gate: tier-1 fails on any finding in ``src``.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths

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
        findings = lint_paths([ROOT / "src"])
        assert findings == [], "self-lint failed:\n" + "\n".join(
            f.render() for f in findings
        )

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
    def test_each_rule_fails_lint(self, rule, tmp_path):
        target = _seed(tmp_path, rule)
        findings = lint_paths([str(tmp_path)], select=[rule])
        assert [(f.path, f.rule) for f in findings] == [(target.as_posix(), rule)]

    def test_violation_in_a_copied_selection_module_is_named(self, tmp_path):
        # The self-lint failure message names file, line and rule.
        target = tmp_path / "src/repro/selection/facility.py"
        target.parent.mkdir(parents=True)
        source = (ROOT / "src/repro/selection/facility.py").read_text()
        target.write_text(source + "x = np.random.rand(3)\n")
        (finding,) = lint_paths([tmp_path / "src"])
        line = source.count("\n") + 1
        assert finding.render().startswith(f"{target.as_posix()}:{line}:5: NES001 ")

    @pytest.mark.parametrize("select", ["nes003", "NES001, nes003"])
    def test_select_ids_are_case_insensitive(self, select, tmp_path):
        _seed(tmp_path, "NES003")
        findings = lint_paths([str(tmp_path)], select=select.split(","))
        assert [f.rule for f in findings] == ["NES003"]

    def test_unknown_select_id_exits_2_naming_valid_ids(self, tmp_path):
        _seed(tmp_path, "NES003")
        with pytest.raises(ValueError, match="NES03; valid: NES001, NES002, NES003"):
            lint_paths([str(tmp_path)], select=["NES03"])
