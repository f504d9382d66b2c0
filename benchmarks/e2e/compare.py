"""Compare two result sets (``--out`` files): parent A against change B."""

from __future__ import annotations

from .metrics import END_TO_END, PER_LAYER, Metric

__all__ = ["compare", "verdict"]

# Units whose per-layer values are counts made by the program: for one
# seed they must repeat exactly, so they are compared for equality.
_COUNT_UNITS = ("count", "B")


def verdict(metric: Metric, a: dict, b: dict) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one (workload, metric).

    ``regressed``: B's median is worse than A's by more than the bound.
    Where the run-to-run spread (either side's min..max over A's
    median) is wider than the bound the row is ``unresolved``, not
    unchanged — unless the two sides' runs do not overlap at all, in
    which case the direction is clear whatever the spread.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worse_by = sign * (b["median"] - a["median"]) / base
    spread = max(a["max"] - a["min"], b["max"] - b["min"]) / base
    if metric.better == "lower":
        b_all_better, b_all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        b_all_better, b_all_worse = b["min"] > a["max"], b["max"] < a["min"]
    if worse_by > metric.bound:
        return "regressed" if b_all_worse or spread <= metric.bound else "unresolved"
    return "ok" if b_all_better or spread <= metric.bound else "unresolved"


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """Rows for every shared (workload, metric); exit status 1 on a regression.

    Refuses (status 2) to compare result sets whose machine
    fingerprints differ in anything but the commit.
    """
    differing = sorted(
        key for key in set(a["machine"]) | set(b["machine"])
        if key != "commit" and a["machine"].get(key) != b["machine"].get(key)
    )
    if differing or a["size"] != b["size"]:
        what = ", ".join(f"{k}: {a['machine'].get(k)!r} vs {b['machine'].get(k)!r}" for k in differing)
        return [f"refusing to compare: fingerprints differ ({what or 'size'})"], 2

    lines = [f"A = {a['machine'].get('commit')}  B = {b['machine'].get('commit')}"]
    lines.append(f"{'workload':16s} {'metric':30s} {'A median':>12s} {'B median':>12s}  B/A     verdict")
    status = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for side, summary in (("A", wa), ("B", wb)):
            if summary["failed"]:
                lines.append(f"{name:16s} {side}: runs_failed = {summary['failed']}/{summary['attempted']}")
                status = 1
        for group, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric in declared:
                sa, sb = wa[group].get(metric.name), wb[group].get(metric.name)
                if sa is None or sb is None:
                    continue
                if group == "end_to_end":
                    word = verdict(metric, sa, sb)
                elif metric.unit in _COUNT_UNITS:
                    word = "same" if sa["median"] == sb["median"] else "changed"
                else:
                    word = "-"  # single traced run: attribution, not gating
                status = max(status, word == "regressed")
                ratio = f"{sb['median'] / sa['median']:.3f}x" if sa["median"] else "n/a"
                lines.append(
                    f"{name:16s} {metric.name:30s} {sa['median']:12.6g} {sb['median']:12.6g}"
                    f"  {ratio:7s} {word}"
                )
    return lines, status
