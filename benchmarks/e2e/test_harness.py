"""Harness self-tests: ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.

Not part of tier-1 (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from benchmarks.e2e import cli, compare, metrics, spans, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_SECONDS = 10  # one or two jobs per workload, plus one traced twin


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# -- BENCHMARK.json agrees with the code -------------------------------------


def test_benchmark_json_matches_declared_metrics(declared):
    assert [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ] == declared["end_to_end"]
    assert [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ] == declared["per_layer"]
    assert [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ] == declared["workloads"]


def test_benchmark_json_meets_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in declared["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert len(declared["per_layer"]) <= 128
    # 4 + 22 runs per workload must fit the driver's 3420 s
    per_run = declared["run_seconds"] + 5
    assert (4 + 22 * len(declared["workloads"])) * per_run < 3420


# -- smoke run end to end ----------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("smoke") / "result.json"
    status = cli.main(["--size", "smoke", "--repeats", "1", "--seconds", str(SMOKE_SECONDS), "--out", str(out)])
    with open(out, encoding="utf-8") as f:
        result = json.load(f)
    assert status == 0, [s["failures"] for s in result["workloads"].values()]
    return result


def test_smoke_emits_exactly_the_declared_names(smoke, declared):
    assert list(smoke["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, summary in smoke["workloads"].items():
        assert list(summary["end_to_end"]) == [m["name"] for m in declared["end_to_end"]]
        assert list(summary["per_layer"]) == [m["name"] for m in declared["per_layer"]]
        assert summary["failed"] == 0
        assert summary["attempted"] == workloads.jobs_for(workloads.WORKLOADS[name], SMOKE_SECONDS) + 1


def test_smoke_layers_match_the_workloads(smoke):
    full, nessa, craig = (smoke["workloads"][n]["per_layer"] for n in ("full-c10", "nessa-c10", "craig-c10"))
    for name in ("core.select_s", "core.bytes_moved", "selection.proxy_s", "parallel.units", "core.feedback_s"):
        assert full[name]["median"] == 0
        assert nessa[name]["median"] > 0
    assert craig["selection.pairwise_s"]["median"] > 0
    assert craig["parallel.units"]["median"] == 0 and craig["core.feedback_s"]["median"] == 0
    for summary in smoke["workloads"].values():
        layer = summary["per_layer"]
        assert layer["core.coverage_frac"]["median"] >= 0.95
        assert layer["selection.weight_sum_err"]["median"] == 0
        assert layer["nn.steps"]["median"] == layer["data.batches"]["median"] > 0


def test_smoke_compares_clean_against_itself(smoke):
    lines, status = compare.compare(smoke, smoke)
    assert status == 0
    assert not any(line.endswith(("regressed", "changed")) for line in lines)


def test_traced_run_leaves_a_trace_the_program_can_read(smoke):
    from repro.obs import read_trace

    trace = read_trace(HERE / "out" / "nessa-c10.trace.jsonl")
    names = {span["name"] for span in trace["spans"]}
    assert {"epoch", "selection_round", "core.train", "nn.forward", "nn.backward", "data.load"} <= names


# -- driver entry ------------------------------------------------------------


def test_driver_entry_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "full-c10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- span arithmetic ---------------------------------------------------------


@dataclass
class FakeSpan:
    id: str
    parent_id: str | None
    start_s: float
    dur_s: float
    name: str = "x"
    attrs: dict = field(default_factory=dict)


def test_self_time_is_duration_minus_the_union_of_children():
    tree = [
        FakeSpan("r", None, 0.0, 10.0),
        FakeSpan("r/a", "r", 1.0, 2.0),       # [1, 3]
        FakeSpan("r/b", "r", 2.0, 3.0),       # [2, 5] overlaps a: union [1, 5]
        FakeSpan("r/c", "r", 8.0, 5.0),       # [8, 13] clipped to [8, 10]
        FakeSpan("r/a/x", "r/a", 1.5, 0.5),
    ]
    own = spans.self_times(tree)
    assert own["r"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own["r/a"] == pytest.approx(1.5)
    assert own["r/b"] == pytest.approx(3.0)
    assert own["r/a/x"] == pytest.approx(0.5)


def test_percentile_interpolates():
    assert spans.percentile([], 0.5) == 0.0
    assert spans.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
    assert spans.percentile(list(range(11)), 0.9) == pytest.approx(9.0)


# -- shims -------------------------------------------------------------------


@pytest.mark.parametrize("fail", [False, True])
def test_shims_are_fully_removed(fail):
    from benchmarks.e2e.shims import MODULE_CLASSES, Shims
    from repro.nn.loss import CrossEntropyLoss

    try:
        with Shims() as shims:
            saved = list(shims._saved)
            assert all(vars(owner)[attr] is not original for owner, attr, original in saved)
            if fail:
                raise RuntimeError("run died")
    except RuntimeError:
        assert fail
    assert all(vars(owner)[attr] is original for owner, attr, original in saved)
    patched = {(owner, attr) for owner, attr, _ in saved}
    assert {(cls, "forward") for cls in MODULE_CLASSES if "forward" in vars(cls)} <= patched
    assert (CrossEntropyLoss, "__call__") in patched and len(patched) == len(saved)


# -- time to target ----------------------------------------------------------


def test_time_to_target_interpolates_within_the_crossing_epoch():
    ttt = metrics.time_to_target
    assert ttt([1.0, 2.0, 3.0], [0.5, 0.7, 0.9], 0.1, 0.8) == pytest.approx(2.5)
    assert ttt([2.0, 4.0], [0.5, 0.9], 0.1, 0.3) == pytest.approx(1.0)   # inside the first epoch
    assert ttt([1.0, 2.0], [0.5, 0.9], 0.1, 0.5) == pytest.approx(1.0)   # exactly at a point
    assert ttt([1.0, 2.0, 3.0], [0.9, 0.4, 0.95], 0.1, 0.9) == pytest.approx(1.0)  # first crossing wins
    assert ttt([1.0, 2.0], [0.5, 0.6], 0.1, 0.7) is None                 # never reached


def test_job_failures():
    workload = workloads.WORKLOADS["full-c10"]
    record = {"size": "full", "classes": 10, "curve": [0.5, 0.9, 0.9], "losses": [1.0, 0.5, 0.4],
              "final_acc": 0.9}
    assert metrics.job_failures(workload, record) == []
    assert metrics.job_failures(workload, {"error": "exit 1: boom"}) == ["exit 1: boom"]
    assert any("below floor" in p for p in metrics.job_failures(workload, {**record, "final_acc": 0.5}))
    assert metrics.job_failures(workload, {**record, "size": "smoke", "final_acc": 0.5}) == []
    record["losses"][1] = float("nan")
    assert metrics.job_failures(workload, record) == ["non-finite epoch loss"]
    record["selection_failures"] = ["epoch#0: positions not unique and in range"]
    assert len(metrics.job_failures(workload, record)) == 2


def test_layer_values_put_time_to_target_on_the_untraced_clock():
    untraced = {"wall_s": 4.5, "epoch_wall_s": [1.0, 1.0, 1.0, 1.0], "classes": 10,
                "curve": [0.5, 0.9, 0.9, 0.9]}
    traced = {"wall_s": 4.95, "layer": {"nn.steps": 7}}
    layer = metrics.layer_values(untraced, traced)
    # target 0.81 is crossed 0.775 of the way through epoch 2; the clock starts 0.5 s before epoch 1
    assert layer["core.epochs_to_target"] == pytest.approx(1.775)
    assert layer["core.time_to_target_s"] == pytest.approx(0.5 + 1.775)
    assert layer["obs.trace_overhead_frac"] == pytest.approx(0.1)
    assert layer["nn.steps"] == 7 and layer["core.rounds"] == 0.0
    assert list(layer) == [m.name for m in metrics.PER_LAYER]


# -- compare -----------------------------------------------------------------


def _stat(lo, mid, hi):
    return {"median": mid, "min": lo, "max": hi, "runs": 3}


def test_verdicts():
    wall = next(m for m in metrics.END_TO_END if m.name == "wall_s")
    acc = next(m for m in metrics.END_TO_END if m.name == "final_acc")
    tight = _stat(9.9, 10.0, 10.1)
    assert compare.verdict(wall, tight, _stat(10.2, 10.3, 10.4)) == "ok"
    assert compare.verdict(wall, tight, _stat(12.9, 13.0, 13.1)) == "regressed"
    assert compare.verdict(wall, _stat(8.0, 10.0, 12.0), _stat(9.0, 10.5, 12.5)) == "unresolved"
    assert compare.verdict(wall, _stat(8.0, 10.0, 12.0), _stat(5.0, 6.0, 7.0)) == "ok"
    assert compare.verdict(wall, _stat(8.0, 10.0, 12.0), _stat(13.0, 15.0, 17.0)) == "regressed"
    assert compare.verdict(acc, _stat(0.95, 0.96, 0.97), _stat(0.65, 0.66, 0.67)) == "regressed"
    assert compare.verdict(acc, _stat(0.95, 0.96, 0.97), _stat(0.97, 0.98, 0.99)) == "ok"


def test_compare_refuses_differing_fingerprints(smoke):
    other = json.loads(json.dumps(smoke))
    other["machine"]["cores"] = smoke["machine"]["cores"] + 1
    lines, status = compare.compare(smoke, other)
    assert status == 2 and "cores" in lines[0]
    other = json.loads(json.dumps(smoke))
    other["machine"]["commit"] = "another"
    assert compare.compare(smoke, other)[1] == 0
