"""The surface ``benchmarks/e2e`` pins, checked in tier-1.

The benchmark's span shims patch ``vars(owner)[attr]``, so every entry
point they wrap must stay defined on the class or module that owns it
today: installing the shims raises ``KeyError`` as soon as one moves
(e.g. a trainer inheriting ``train`` instead of defining it).  Without
this test only the benchmark driver notices.

Two modules exist only for the harness: ``repro.nn.scratch`` and
``repro.parallel.cache`` hold the zero counts it reads, and nothing in
``repro`` may come to depend on them again.
"""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.e2e.shims import Shims  # noqa: E402
from tests.layering import SRC, imported_names, parsed  # noqa: E402

HARNESS_ONLY = ("repro.nn.scratch", "repro.parallel.cache")


def _module(path: Path) -> str:
    """Dotted module name of a file under ``src`` (a package's ``__init__`` is the package)."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _all(tree: ast.Module) -> set[str]:
    """The literal ``__all__`` a module tree assigns (empty if none)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_shims_install_and_restore_cleanly():
    with Shims() as shims:
        patched = list(shims._saved)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_traced_twins_pass_the_drivers_checks(tmp_path, monkeypatch):
    """What the driver runs, at smoke size: no failed job, traced or untraced.

    A traced twin executes ``selection_failures`` and ``layer_metrics``
    (which index span attributes by name) and must reproduce its
    untraced twin's accuracy curve and ``bytes_moved`` exactly.
    """
    from benchmarks.e2e import harness

    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)  # traces and records.jsonl
    names = ["full-c10", "nessa-c10", "craig-c10", "nessa-c100-f10"]
    result = harness.measure(
        names, seed=1, runs=1, jobs=dict.fromkeys(names, 1), traced_jobs=1, size="smoke"
    )
    for name in names:
        workload = result["workloads"][name]
        assert workload["attempted"] == 2
        assert workload["failed"] == 0
        assert workload["failures"] == []


def test_harness_only_modules_stay_outside_the_package_surface():
    trees = {_module(path): tree for path, tree in parsed()}
    importers = [
        (_module(path), line)
        for path, tree in parsed()
        for line, name in imported_names(tree, ".".join(path.parent.relative_to(SRC.parent).parts))
        if any(name == stub or name.startswith(stub + ".") for stub in HARNESS_ONLY)
    ]
    assert importers == []
    for stub in HARNESS_ONLY:
        package = stub.rsplit(".", 1)[0]
        assert _all(trees[package]) & _all(trees[stub]) == set(), package
