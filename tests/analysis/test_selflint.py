"""``src/repro`` must pass its source checks — and seeded violations must fail them.

This is the gate: tier-1 fails on any finding in ``src/repro``.
"""

import ast
import re
import textwrap

import pytest

from tests.analysis.checks import lint_tree
from tests.layering import SRC, parsed

ROOT = SRC.parents[1]

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


# Modules whose every name is banned from src/repro, ``threading`` included.
THREAD_MODULES = ("threading", "_thread", "concurrent.futures", "multiprocessing")


def thread_offenders(root=SRC):
    """``path:line: name`` for every import or attribute under ``root``
    that names one of :data:`THREAD_MODULES` or anything inside one."""

    def banned(name):
        return any(name == mod or name.startswith(mod + ".") for mod in THREAD_MODULES)

    offenders = []
    for path, tree in parsed(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            offenders += [
                f"{path.relative_to(root).as_posix()}:{node.lineno}: {name}"
                for name in names
                if banned(name)
            ]
    return offenders


class TestSelfLint:
    def test_repo_tree_is_clean(self):
        findings = lint_tree()
        assert findings == [], "self-lint failed:\n" + "\n".join(findings)

    def test_source_starts_no_threads_or_processes(self):
        # Nothing in src/repro spawns a thread or a process; that is why
        # the tree needs no cross-thread race rule, no per-thread tracing
        # mute and no locks.
        assert thread_offenders() == []


class TestThreadScan:
    @pytest.mark.parametrize(
        "source",
        [
            "import threading\n",
            "from threading import Lock\n",
            "class Registry:\n    def __init__(self):\n        self._lock = threading.Lock()\n",
            "threading.Thread(target=print).start()\n",
            "import concurrent.futures\n",
            "from concurrent.futures import ThreadPoolExecutor\n",
            "import multiprocessing\n",
            "from multiprocessing import Pool\n",
            "import _thread\n",
        ],
        ids=[
            "import-threading", "from-threading-import-lock", "threading-lock-attribute",
            "threading-thread", "import-concurrent-futures", "from-concurrent-futures",
            "import-multiprocessing", "from-multiprocessing", "import-_thread",
        ],
    )
    def test_seeded_thread_use_is_flagged(self, source, tmp_path):
        (tmp_path / "bad.py").write_text(source)
        offenders = thread_offenders(tmp_path)
        assert offenders and all(o.startswith("bad.py:") for o in offenders)

    def test_lookalike_names_pass(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            "import threadingx\nfrom repro.obs import threading_free\nx = spec.threading\n"
        )
        assert thread_offenders(tmp_path) == []


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
        findings = lint_tree(tmp_path)
        assert [
            re.match(r"(.+):\d+:\d+: (NES\d{3}) ", f).groups() for f in findings
        ] == [(target.as_posix(), rule)]

    def test_violation_in_a_copied_selection_module_is_named(self, tmp_path):
        # The self-lint failure message names file, line and rule.
        target = tmp_path / "src/repro/selection/facility.py"
        target.parent.mkdir(parents=True)
        source = (ROOT / "src/repro/selection/facility.py").read_text()
        target.write_text(source + "x = np.random.rand(3)\n")
        (finding,) = lint_tree(tmp_path / "src")
        line = source.count("\n") + 1
        assert finding.startswith(f"{target.as_posix()}:{line}:5: NES001 ")
