"""Trace analysis: aggregate one run-trace into the paper's headline table.

NeSSA's claims are where-did-the-time-and-bytes-go claims (3.47x less
data over the host link, 5.37x end-to-end, paper §4.2-4.4); this module
answers them from a recorded trace:

- **time per phase** — wall seconds per span name, with the share of
  total ``epoch`` time;
- **bytes over the link vs. total data moved** — the byte attributes
  spans carry use a fixed convention: ``link_bytes`` counts bytes that
  crossed the host interconnect (quantized-weight feedback),
  ``pairwise_bytes`` the similarity state a selection round touched
  (the FPGA on-chip budget), ``sim_bytes`` the per-unit share of the
  same (reported per phase but *excluded* from the data-moved total so
  unit spans never double-count their round);
- **selection overhead** — total ``selection_round`` time as a
  percentage of total ``epoch`` time, the number the data-selection
  literature (CRAIG, SAGE) reports to justify selection cost against
  training savings.

The data-moved total reconciles *exactly* with
:class:`repro.core.metrics.TrainingHistory`'s data-movement counters
(``data_movement_bytes``): both sum the identical per-epoch
``feedback_bytes`` + ``selection_pairwise_bytes`` ledger —
``tests/obs/test_report.py`` asserts the equality on a real run.
"""

from __future__ import annotations

__all__ = ["aggregate_trace", "render_report"]

# Attribute keys summed into the data-moved total.  sim_bytes is the
# per-unit decomposition of its round's pairwise_bytes and must not be
# double-counted; any other *_bytes attr is phase-local detail.
_DATA_MOVED_ATTRS = ("link_bytes", "pairwise_bytes")


def aggregate_trace(spans: list[dict]) -> dict:
    """Roll a span list up into per-phase and headline aggregates.

    Returns::

        {
          "phases": {name: {"count", "total_s", "mean_s", "bytes": {attr: sum}}},
          "epoch_time_s":       total wall of `epoch` spans,
          "selection_time_s":   total wall of `selection_round` spans,
          "selection_overhead": selection/epoch fraction (None without epochs),
          "link_bytes":         sum of every span's link_bytes,
          "pairwise_bytes":     sum of every span's pairwise_bytes,
          "data_moved_bytes":   link_bytes + pairwise_bytes,
        }

    Phases are ordered by first appearance in the trace, which follows
    completion order and therefore diffs cleanly between runs.
    """
    phases: dict[str, dict] = {}
    totals = {attr: 0 for attr in _DATA_MOVED_ATTRS}
    for span in spans:
        phase = phases.get(span["name"])
        if phase is None:
            phase = phases[span["name"]] = {
                "count": 0,
                "total_s": 0.0,
                "bytes": {},
            }
        phase["count"] += 1
        phase["total_s"] += span["dur_s"]
        for key, value in (span.get("attrs") or {}).items():
            if not key.endswith("_bytes") or isinstance(value, bool):
                continue
            try:
                value = int(value)
            except (TypeError, ValueError):
                continue
            phase["bytes"][key] = phase["bytes"].get(key, 0) + value
            if key in totals:
                totals[key] += value

    for phase in phases.values():
        phase["mean_s"] = phase["total_s"] / phase["count"]

    epoch_s = phases.get("epoch", {}).get("total_s", 0.0)
    selection_s = phases.get("selection_round", {}).get("total_s", 0.0)
    return {
        "phases": phases,
        "epoch_time_s": epoch_s,
        "selection_time_s": selection_s,
        "selection_overhead": (selection_s / epoch_s) if epoch_s > 0 else None,
        "link_bytes": totals["link_bytes"],
        "pairwise_bytes": totals["pairwise_bytes"],
        "data_moved_bytes": sum(totals.values()),
    }


def render_report(trace: dict) -> str:
    """The ``repro.cli report`` table for one loaded trace."""
    meta = trace["meta"]
    agg = aggregate_trace(trace["spans"])
    epoch_s = agg["epoch_time_s"]

    lines = [
        f"run: {meta.get('run', '?')}   spans: {len(trace['spans'])}",
        "",
        f"{'phase':22s} {'count':>6s} {'total_s':>10s} {'mean_s':>10s} "
        f"{'%epoch':>7s} {'bytes':>14s}",
    ]
    for name, phase in agg["phases"].items():
        share = f"{100 * phase['total_s'] / epoch_s:6.1f}%" if epoch_s > 0 else "      -"
        nbytes = sum(phase["bytes"].values())
        byte_col = f"{nbytes:>14,d}" if nbytes else f"{'-':>14s}"
        lines.append(
            f"{name:22s} {phase['count']:>6d} {phase['total_s']:>10.4f} "
            f"{phase['mean_s']:>10.5f} {share} {byte_col}"
        )

    lines.append("")
    lines.append(f"link bytes (host interconnect): {agg['link_bytes']:>14,d}")
    lines.append(f"selection pairwise bytes:       {agg['pairwise_bytes']:>14,d}")
    lines.append(f"data moved total:               {agg['data_moved_bytes']:>14,d}")
    if agg["selection_overhead"] is not None:
        lines.append(
            f"selection overhead:             {100 * agg['selection_overhead']:13.1f}% "
            "of epoch time"
        )

    metrics = trace.get("metrics")
    if metrics and metrics.get("counters"):
        lines.append("")
        lines.append("counters:")
        for name, value in metrics["counters"].items():
            lines.append(f"  {name:30s} {value:>14,d}")
    if metrics and metrics.get("gauges"):
        lines.append("")
        lines.append("gauges:")
        for name, value in metrics["gauges"].items():
            lines.append(f"  {name:30s} {value:>14.4f}")
    return "\n".join(lines)
