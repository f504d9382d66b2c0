"""``python -m benchmarks.e2e``: run every workload, print every metric, check.

Exits non-zero when any run fails a correctness check.  ``--compare
A.json B.json`` compares two result sets written with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compare import compare
from .harness import measure
from .metrics import END_TO_END, PER_LAYER
from .workloads import SIZES, WORKLOADS, jobs_for

__all__ = ["main", "derived_lines", "render"]


def derived_lines(workloads: dict) -> list[str]:
    """Ratios a reader wants next to the absolute numbers.

    Printed, never gated: a pure nn speed-up would "worsen" a
    NeSSA-vs-full ratio while improving every absolute number.
    """
    lines = []

    def median(name, metric, group="end_to_end"):
        return workloads.get(name, {}).get(group, {}).get(metric, {}).get("median")

    for metric, group in (("wall_s", "end_to_end"), ("core.time_to_target_s", "per_layer")):
        full, nessa = median("full-c10", metric, group), median("nessa-c10", metric, group)
        if full and nessa:
            lines.append(
                f"full-c10.{metric} / nessa-c10.{metric} = {full:.3f} / {nessa:.3f} = {full / nessa:.2f}x"
            )
    for name in workloads:
        wall, select = median(name, "wall_s"), median(name, "core.select_s", "per_layer")
        if wall and select is not None:
            lines.append(f"{name}: selection overhead = {select:.3f} / {wall:.3f} s = {select / wall:.1%} of wall")
        trained = workloads[name].get("samples_trained")
        if wall and trained:
            lines.append(f"{name}: {trained:.0f} samples / {wall:.3f} s = {trained / wall:.0f} samples/s trained")
    return lines


def render(result: dict) -> list[str]:
    """Every metric by name with its unit, then derived lines and failures."""
    lines = [f"machine: {json.dumps(result['machine'])}", f"size: {result['size']}  seed: {result['seed']}"]
    for name, summary in result["workloads"].items():
        lines.append(f"\n== {name}: {summary['failed']} failed of {summary['attempted']} jobs")
        for group, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric in declared:
                stat = summary[group].get(metric.name)
                if stat is None:
                    continue
                bound = f"  bound {metric.bound:.0%}" if metric.bound is not None else ""
                lines.append(
                    f"{metric.name:34s} {stat['median']:14.6g} {metric.unit:6s} "
                    f"[{stat['min']:.6g} .. {stat['max']:.6g}] R={stat['runs']}{bound}"
                )
        lines += [f"FAILED {failure}" for failure in summary["failures"]]
    lines.append("\n== derived (not metrics)")
    lines += result["derived"]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of: " + ", ".join(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per workload; a run pools several jobs on derived seeds")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of one full-size run; sets its job count")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced per-layer job")
    parser.add_argument("--out", metavar="PATH", help="write the result set as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result sets instead of running")
    args = parser.parse_args(argv)

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as f:
                sets.append(json.load(f))
        lines, status = compare(*sets)
        print("\n".join(lines))
        return status

    names = args.workloads.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or args.repeats < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--repeats must be >= 1")
    result = measure(
        names, args.seed, runs=args.repeats,
        jobs={name: jobs_for(WORKLOADS[name], args.seconds) for name in names},
        traced_jobs=0 if args.no_trace else 1, size=args.size,
        log=lambda line: print(line, file=sys.stderr),
    )
    result["derived"] = derived_lines(result["workloads"])
    result["claim"] = None  # this benchmark records numbers; gains are claimed by later changes
    print("\n".join(render(result)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 1 if any(s["failed"] for s in result["workloads"].values()) else 0
