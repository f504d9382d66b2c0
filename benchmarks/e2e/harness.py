"""Parent side: run jobs in fresh child processes and collect their records.

Closed loop, one child at a time.  A fresh process per job makes peak
RSS and set-up cost per-job, and gives one set-up sample per job.
The parent never imports numpy or ``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from .metrics import summarise
from .workloads import WORKLOADS, job_seed

__all__ = ["OUT_DIR", "run_child", "measure", "fingerprint"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 170

# The GEMMs are tiny and accuracy curves are bit-identical across thread
# counts, so one BLAS thread only removes scheduler noise.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(workload: str, seed: int, size: str, traced: bool) -> dict:
    """One job in a fresh process; an ``{"error": ...}`` record if it died."""
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env.setdefault(var, "1")
    spec = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "traced": traced,
        "trace_path": str(OUT_DIR / f"{workload}.trace.jsonl") if traced else None,
        "spawned_unix": time.time(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child by now
        error = f"timed out after {CHILD_TIMEOUT_S}s"
    else:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        error = f"exit {proc.returncode}: {tail[0]}"
    return {"workload": workload, "seed": seed, "traced": traced, "error": error}


def measure(
    names: list[str], seed: int, runs: int, jobs: dict[str, int], traced_jobs: int,
    size: str, log=lambda line: None,
) -> dict:
    """``runs`` runs of every workload, round-robin; return the result set.

    A run of a workload is ``jobs[name]`` jobs on seeds derived from
    ``seed + run``; its first ``traced_jobs`` jobs are each followed by
    a traced twin on the same seed.  Run ``n`` of every
    workload finishes before run ``n + 1`` of any, so machine drift
    hits all workloads equally.
    """
    OUT_DIR.mkdir(exist_ok=True)
    records = {name: [] for name in names}
    for n in range(runs):
        for name in names:
            run = {"untraced": [], "traced": []}
            for j in range(jobs[name]):
                kinds = ("untraced", "traced") if j < traced_jobs else ("untraced",)
                for kind in kinds:
                    record = run_child(name, job_seed(seed + n, j), size, traced=kind == "traced")
                    run[kind].append(record)
                    log(f"{name} run {n} job {j} {kind}: "
                        + (record.get("error") or f"wall {record['wall_s']:.2f}s"))
            records[name].append(run)
    with open(OUT_DIR / "records.jsonl", "w", encoding="utf-8") as f:
        for name in names:
            for run in records[name]:
                for record in run["untraced"] + run["traced"]:
                    f.write(json.dumps(record) + "\n")
    machine = next(
        (r["machine"] for name in names for run in records[name] for r in run["untraced"]
         if "machine" in r),
        {},
    )
    return {
        "schema": 1,
        "size": size,
        "seed": seed,
        "machine": fingerprint(machine),
        "workloads": {name: summarise(WORKLOADS[name], records[name]) for name in names},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint(child_machine: dict) -> dict:
    """What must match before two result sets may be compared."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **child_machine,
        "commit": commit,
    }
