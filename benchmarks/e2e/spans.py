"""Span-tree arithmetic: self times and the per-layer metrics of one traced run.

Works on any sequence of span records with ``id``, ``name``,
``parent_id``, ``start_s``, ``dur_s`` and ``attrs`` — the
``repro.obs.tracer.SpanRecord`` shape.  Stdlib-only.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

__all__ = ["self_times", "percentile", "layer_metrics", "selection_failures"]

# Spans the trainers and the NeSSA selector own: their self time is
# core's glue, everything beneath them is attributed to a layer.
_CORE_SPANS = frozenset(
    {"core.train", "epoch", "selection_round", "run_setup", "feedback_quantize", "core.select"}
)
_SELECT_SPANS = ("core.select", "selection.select")


def self_times(spans) -> dict[str, float]:
    """Self time per span id: duration minus the part its children cover.

    Children may overlap each other (the engine forwards a completed
    ``unit`` span next to the shim spans of the same interval) and are
    clipped to the parent, so the covered part is the union of their
    intervals inside the parent's.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent_id is not None:
            children[sp.parent_id].append((sp.start_s, sp.start_s + sp.dur_s))
    out = {}
    for sp in spans:
        lo, hi = sp.start_s, sp.start_s + sp.dur_s
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(sp.id, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[sp.id] = sp.dur_s - covered
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _contexts(spans) -> dict[str, str]:
    """Which phase each span runs in: ``eval``, ``proxy`` or ``train``."""
    by_id = {sp.id: sp for sp in spans}
    ctx: dict[str, str] = {}

    def resolve(sp) -> str:
        if sp.id not in ctx:
            if sp.name == "nn.eval":
                ctx[sp.id] = "eval"
            elif sp.name == "proxy_compute":
                ctx[sp.id] = "proxy"
            elif sp.parent_id in by_id:
                ctx[sp.id] = resolve(by_id[sp.parent_id])
            else:
                ctx[sp.id] = "train"
        return ctx[sp.id]

    for sp in spans:
        resolve(sp)
    return ctx


def _select_pools(spans) -> dict[str, int]:
    """Candidate-pool size of each ``select`` call, read off its proxy span."""
    by_id = {sp.id: sp for sp in spans}
    pools = {}
    for sp in spans:
        if sp.name != "proxy_compute":
            continue
        parent = by_id.get(sp.parent_id)
        while parent is not None and parent.name not in _SELECT_SPANS:
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            pools[parent.id] = int(sp.attrs["candidates"])
    return pools


def selection_failures(spans) -> list[str]:
    """Violated ``SelectionResult`` invariants, one message per round."""
    pools = _select_pools(spans)
    problems = []
    for sp in spans:
        if sp.name not in _SELECT_SPANS:
            continue
        a = sp.attrs
        pool = pools.get(sp.id, a["n"])
        expected = min(max(1, int(round(a["fraction"] * a["n"]))), pool)
        if a["unique"] != a["selected"] or not a["in_range"]:
            problems.append(f"{sp.id}: positions not unique and in range")
        # The budget is split over classes in proportion to their pool
        # share and rounded per class, so after biasing drops unbalance
        # the pool the total may be off by up to half a sample per class.
        if abs(a["selected"] - expected) > a["classes"] / 2:
            problems.append(f"{sp.id}: selected {a['selected']}, expected {expected}")
        if abs(a["weight_sum"] - pool) > 1e-6:
            problems.append(f"{sp.id}: weights sum to {a['weight_sum']}, pool is {pool}")
    return problems


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric that one traced run's spans determine.

    The rest (``core.select_s``, ``core.bytes_moved``, time and epochs
    to target, ``nn.scratch_reuse_frac``, ``obs.trace_overhead_frac``)
    come from the run records and are added by the callers.
    """
    own = self_times(spans)
    ctx = _contexts(spans)
    pools = _select_pools(spans)

    total = defaultdict(float)  # inclusive seconds per span name
    durs = defaultdict(list)
    m = defaultdict(float)
    step_s: list[float] = []
    step_start = None
    weight_err = 0.0
    pairwise_max = 0
    for sp in sorted(spans, key=lambda s: s.start_s):
        total[sp.name] += sp.dur_s
        durs[sp.name].append(sp.dur_s)
        a = sp.attrs
        if sp.name in ("nn.forward", "nn.backward"):
            # the outermost module call of a pass; its attributes are the
            # per-class self times of every module call beneath it
            for metric, seconds in a.items():
                m[metric] += seconds
            if ctx[sp.id] == "train":
                m[f"{sp.name}_s"] += sp.dur_s
                if sp.name == "nn.forward":
                    step_start = sp.start_s
        elif sp.name == "nn.loss":
            if ctx[sp.id] == "train":
                m["nn.loss_s"] += sp.dur_s
        elif sp.name == "nn.optim":
            if a["op"] == "step" and step_start is not None:
                step_s.append(sp.start_s + sp.dur_s - step_start)
                step_start = None
        elif sp.name == "data.load":
            if "bytes" in a:
                m["data.batches"] += 1
                m["data.bytes_gathered"] += a["bytes"]
        elif sp.name == "proxy_compute":
            if not a["cache_hit"]:
                m["selection.proxy_samples"] += a["candidates"]
        elif sp.name == "selection_round":
            pairwise_max = max(pairwise_max, a["pairwise_bytes"])
        elif sp.name == "epoch":
            m["selection.dropped"] += a.get("dropped_samples", 0)
        elif sp.name in _SELECT_SPANS:
            weight_err = max(weight_err, abs(a["weight_sum"] - pools.get(sp.id, a["n"])))
        elif sp.name == "parallel.run_units":
            m["parallel.units"] += a["units"]
            m["parallel.fallbacks"] += a["fallback"]
        elif sp.name == "parallel.proxy_cache":
            m["parallel.proxy_cache_lookups"] += 1
            m["parallel.proxy_cache_hit_frac"] += a["hit"]  # a count until divided below
        elif sp.name == "core.feedback":
            m["core.feedback_bytes"] += a["bytes"]

    if m["parallel.proxy_cache_lookups"]:
        m["parallel.proxy_cache_hit_frac"] /= m["parallel.proxy_cache_lookups"]
    glue = sum(own[sp.id] for sp in spans if sp.name in _CORE_SPANS)
    train_wall = total["core.train"]
    m.update(
        {
            "data.load_s": total["data.load"],
            "data.gen_s": total["data.gen"],
            "nn.optim_s": total["nn.optim"],
            "nn.eval_s": total["nn.eval"],
            "nn.steps": len(step_s),
            "nn.step_s_p50": percentile(step_s, 0.5),
            "nn.step_s_p90": percentile(step_s, 0.9),
            "selection.proxy_s": total["proxy_compute"],
            "selection.pairwise_s": total["selection.pairwise"],
            "selection.greedy_s": total["selection.greedy"],
            "selection.weights_s": total["selection.weights"],
            "selection.biasing_s": total["selection.biasing"],
            "selection.pairwise_bytes_max": pairwise_max,
            "selection.weight_sum_err": weight_err,
            "parallel.plan_s": total["parallel.plan"],
            "parallel.run_units_s": total["parallel.run_units"],
            "core.rounds": len(durs["selection_round"]),
            "core.select_round_s_p50": percentile(durs["selection_round"], 0.5),
            "core.select_round_s_max": max(durs["selection_round"], default=0.0),
            "core.feedback_s": total["core.feedback"],
            "core.epoch_s_p50": statistics.median(durs["epoch"]),
            "core.epoch_s_max": max(durs["epoch"]),
            "core.glue_s": glue,
            "core.coverage_frac": 1.0 - glue / train_wall,
            "obs.spans": len(spans),
        }
    )
    return dict(m)
