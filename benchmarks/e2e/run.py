"""Benchmark-driver entry: one workload per invocation.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str]) -> int:
    # The script's directory holds modules, not packages: import through
    # the checkout root.
    sys.path[0] = str(ROOT)
    from benchmarks.e2e.harness import measure
    from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
    from benchmarks.e2e.workloads import WORKLOADS, jobs_for

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    # A traced job is an untraced job plus its traced twin.
    jobs = jobs_for(workload, args.seconds, twins=bool(args.trace))
    result = measure(
        [workload.name], args.seed, runs=1, jobs={workload.name: jobs},
        traced_jobs=jobs * args.trace, size="full",
        log=lambda line: print(line, file=sys.stderr),
    )["workloads"][workload.name]

    declared, measured = (PER_LAYER, result["per_layer"]) if args.trace else (END_TO_END, result["end_to_end"])
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not measured:
        print("every run failed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": measured[m.name]["median"], "unit": m.unit} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
