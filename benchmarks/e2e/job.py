"""One benchmark job, run in a fresh process: ``python job.py '<json spec>'``.

Prints one JSON record as the last line of stdout.  An untraced job
touches nothing but ``repro``'s public API; a traced job installs a
``repro.obs.Tracer`` plus the span shims around the same calls.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def run_job(spec: dict) -> dict:
    """Set up and train ``spec["workload"]`` once; return the run record."""
    import numpy as np

    from repro import NeSSAConfig, obs
    from repro.nn.scratch import scratch_pool
    from repro.pipeline.experiment import make_data, run_method, scaled_recipe

    from benchmarks.e2e.workloads import SIZES, WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    size = SIZES[spec["size"]]
    seed = spec["seed"]
    epochs = size["epochs"] or workload.epochs
    traced = spec["traced"]

    with ExitStack() as stack:
        tracer = None
        if traced:
            from benchmarks.e2e.shims import Shims
            from benchmarks.e2e.spans import layer_metrics, selection_failures

            tracer = obs.Tracer(run=f"e2e-{workload.name}", meta={"seed": seed, "size": spec["size"]})
            stack.callback(obs.set_tracer, obs.set_tracer(tracer))
            stack.enter_context(Shims())

        with obs.span("data.gen"):
            train_set, test_set = make_data(workload.dataset, scale=size["scale"], seed=seed)
        recipe = replace(scaled_recipe(epochs, batch_size=64), lr=0.03, clip_grad_norm=5.0)
        config = NeSSAConfig(
            subset_fraction=workload.fraction,
            seed=seed,
            biasing_drop_period=max(3, epochs // 3),
        )
        setup_s = time.time() - spec["spawned_unix"]

        wall0, cpu0 = time.perf_counter(), time.process_time()
        history = run_method(
            workload.dataset, workload.method, train_set, test_set, recipe,
            subset_fraction=workload.fraction, nessa_config=config, seed=seed,
        ).history
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0

    record = {
        "workload": workload.name,
        "size": spec["size"],
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "select_s": history.total_selection_time_s,
        "bytes_moved": history.data_movement_bytes,
        "final_acc": history.stable_accuracy(3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "classes": train_set.num_classes,
        "samples_trained": history.total_samples_trained,
        "curve": history.accuracy_curve().tolist(),
        "losses": history.loss_curve().tolist(),
        "epoch_wall_s": [r.wall_time_s for r in history.records],
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if traced:
        pool = scratch_pool().stats
        layer = layer_metrics(tracer.records)
        layer["core.select_s"] = record["select_s"]
        layer["core.bytes_moved"] = record["bytes_moved"]
        layer["nn.scratch_reuse_frac"] = pool["reuses"] / max(1, pool["reuses"] + pool["allocations"])
        record["layer"] = layer
        record["selection_failures"] = selection_failures(tracer.records)
        if spec.get("trace_path"):
            obs.write_jsonl(spec["trace_path"], tracer)
    return record


def main(argv: list[str]) -> int:
    # The script's directory holds modules, not packages: import through
    # the checkout root, and repro from the checkout's own src/.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    print(json.dumps(run_job(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
