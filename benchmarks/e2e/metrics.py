"""The benchmark's declared metrics and how run records turn into them.

``END_TO_END`` and ``PER_LAYER`` are the source of truth that
``BENCHMARK.json`` repeats (``test_harness.py`` checks they agree).
Stdlib-only.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import accumulate

from .workloads import SIZES, TARGET_FRAC, Workload

__all__ = [
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "time_to_target",
    "job_failures",
    "twin_failures",
    "end_to_end_values",
    "layer_values",
    "summarise",
]


@dataclass(frozen=True)
class Metric:
    """One declared metric.

    ``bound`` (end-to-end only) is the share of the parent's median by
    which the metric may worsen before a change counts as a regression.
    README.md says which end-to-end metric each per-layer metric should
    move, on which workload.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("final_acc", "frac", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    # repro.data
    Metric("data.load_s", "s", "lower"),
    Metric("data.batches", "count", "lower"),
    Metric("data.bytes_gathered", "B", "lower"),
    Metric("data.gen_s", "s", "lower"),
    # repro.nn phases (train-step calls at depth 0; eval separately)
    Metric("nn.forward_s", "s", "lower"),
    Metric("nn.backward_s", "s", "lower"),
    Metric("nn.loss_s", "s", "lower"),
    Metric("nn.optim_s", "s", "lower"),
    Metric("nn.eval_s", "s", "lower"),
    Metric("nn.steps", "count", "lower"),
    Metric("nn.step_s_p50", "s", "lower"),
    Metric("nn.step_s_p90", "s", "lower"),
    # repro.nn module classes: self time over train + eval + proxy forward
    Metric("nn.conv_fwd_s", "s", "lower"),
    Metric("nn.conv_bwd_s", "s", "lower"),
    Metric("nn.bn_fwd_s", "s", "lower"),
    Metric("nn.bn_bwd_s", "s", "lower"),
    Metric("nn.linear_s", "s", "lower"),
    Metric("nn.relu_s", "s", "lower"),
    Metric("nn.pool_s", "s", "lower"),
    Metric("nn.glue_s", "s", "lower"),
    Metric("nn.scratch_reuse_frac", "frac", "higher"),
    # repro.selection
    Metric("selection.proxy_s", "s", "lower"),
    Metric("selection.proxy_samples", "count", "lower"),
    Metric("selection.pairwise_s", "s", "lower"),
    Metric("selection.greedy_s", "s", "lower"),
    Metric("selection.weights_s", "s", "lower"),
    Metric("selection.pairwise_bytes_max", "B", "lower"),
    Metric("selection.biasing_s", "s", "lower"),
    Metric("selection.dropped", "count", "higher"),
    Metric("selection.weight_sum_err", "count", "lower"),
    # repro.parallel
    Metric("parallel.plan_s", "s", "lower"),
    Metric("parallel.run_units_s", "s", "lower"),
    Metric("parallel.units", "count", "lower"),
    Metric("parallel.proxy_cache_hit_frac", "frac", "higher"),
    Metric("parallel.proxy_cache_lookups", "count", "lower"),
    Metric("parallel.fallbacks", "count", "lower"),
    # repro.core
    Metric("core.select_s", "s", "lower"),
    Metric("core.bytes_moved", "B", "lower"),
    Metric("core.rounds", "count", "lower"),
    Metric("core.select_round_s_p50", "s", "lower"),
    Metric("core.select_round_s_max", "s", "lower"),
    Metric("core.feedback_s", "s", "lower"),
    Metric("core.feedback_bytes", "B", "lower"),
    Metric("core.epoch_s_p50", "s", "lower"),
    Metric("core.epoch_s_max", "s", "lower"),
    Metric("core.time_to_target_s", "s", "lower"),
    Metric("core.epochs_to_target", "epochs", "lower"),
    Metric("core.glue_s", "s", "lower"),
    Metric("core.coverage_frac", "frac", "higher"),
    # repro.obs
    Metric("obs.trace_overhead_frac", "frac", "lower"),
    Metric("obs.spans", "count", "lower"),
)


def time_to_target(times, accuracies, start_acc: float, target: float) -> float | None:
    """When the accuracy curve first reaches ``target``, or ``None``.

    The curve is piecewise linear through ``(0, start_acc)`` and the
    ``(times[i], accuracies[i])`` points, so a one-epoch flip moves the
    result by a fraction of an epoch, not a whole one.
    """
    t0, a0 = 0.0, start_acc
    for t1, a1 in zip(times, accuracies):
        if a1 >= target:
            if a0 >= target:
                return t0
            return t0 + (t1 - t0) * (target - a0) / (a1 - a0)
        t0, a0 = t1, a1
    return None


def _to_target(times, record: dict) -> float:
    """Where ``record``'s accuracy curve, laid over ``times``, reaches its target.

    The target is ``TARGET_FRAC`` of the curve's own plateau (its last
    three epochs), which the curve reaches by construction.
    """
    curve = record["curve"]
    target = TARGET_FRAC * statistics.fmean(curve[-3:])
    return time_to_target(times, curve, 1.0 / record["classes"], target)


def job_failures(workload: Workload, record: dict) -> list[str]:
    """Why one job counts as failed (empty when it passed)."""
    if "error" in record:
        return [record["error"]]
    problems = list(record.get("selection_failures", ()))
    if not all(math.isfinite(loss) for loss in record["losses"]):
        problems.append("non-finite epoch loss")
    floor = SIZES[record["size"]].get("acc_floor", workload.acc_floor)
    if record["final_acc"] < floor:
        problems.append(f"final_acc {record['final_acc']:.4f} below floor {floor}")
    return problems


def twin_failures(untraced: dict, traced: dict) -> list[str]:
    """The shims must not perturb the run: same seed, same arithmetic."""
    problems = []
    if untraced["curve"] != traced["curve"]:
        problems.append("traced and untraced accuracy curves differ")
    if untraced["bytes_moved"] != traced["bytes_moved"]:
        problems.append("traced and untraced bytes_moved differ")
    return problems


def end_to_end_values(records: list[dict]) -> dict[str, float]:
    """One run's end-to-end metrics: the median over its untraced jobs."""
    return {m.name: statistics.median(r[m.name] for r in records) for m in END_TO_END}


def layer_values(untraced: dict, traced: dict) -> dict[str, float]:
    """One traced twin's per-layer metrics, every declared name present.

    Time-to-target is read off the untraced twin's clock: same curve,
    no tracing overhead.
    """
    layer = dict(traced["layer"])
    layer["obs.trace_overhead_frac"] = (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"]
    layer["core.epochs_to_target"] = _to_target(range(1, len(untraced["curve"]) + 1), untraced)
    # epoch wall times exclude the trainer and model build and NeSSA's
    # initial feedback sync; start the clock where wall_s starts
    start = untraced["wall_s"] - sum(untraced["epoch_wall_s"])
    times = list(accumulate(untraced["epoch_wall_s"], initial=start))[1:]
    layer["core.time_to_target_s"] = _to_target(times, untraced)
    return {m.name: layer.get(m.name, 0.0) for m in PER_LAYER}


def summarise(workload: Workload, runs: list[dict]) -> dict:
    """One workload's result from its runs.

    Each run is ``{"untraced": [...], "traced": [...]}`` job records;
    ``traced[i]`` is the traced twin of ``untraced[i]`` (same seed).  A
    run's end-to-end values are medians over its passing untraced jobs;
    the summary gives median / min / max over runs, and over traced
    twins for the per-layer metrics.
    """
    failures, attempted, failed = [], 0, 0
    end_to_end, layers, samples = [], [], []
    for n, run in enumerate(runs):
        attempted += len(run["untraced"]) + len(run["traced"])
        passing = []
        for i, record in enumerate(run["untraced"]):
            problems = job_failures(workload, record)
            if not problems:
                passing.append(record)
                samples.append(record["samples_trained"])
            failed += bool(problems)
            failures += [f"run {n} job {i}: {p}" for p in problems]
        for i, record in enumerate(run["traced"]):
            twin = run["untraced"][i]
            problems = job_failures(workload, record)
            if not problems and "error" not in twin:
                problems = twin_failures(twin, record)
                if not problems:
                    layers.append(layer_values(twin, record))
            failed += bool(problems)
            failures += [f"run {n} traced job {i}: {p}" for p in problems]
        if passing:
            end_to_end.append(end_to_end_values(passing))
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples_trained": statistics.median(samples) if samples else None,
        "end_to_end": {m.name: _spread([v[m.name] for v in end_to_end]) for m in END_TO_END if end_to_end},
        "per_layer": {m.name: _spread([v[m.name] for v in layers]) for m in PER_LAYER if layers},
    }


def _spread(values: list) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "runs": len(values),
    }
