#!/usr/bin/env python
"""I/O trace study: what NeSSA's access patterns cost on flash.

Packs a synthetic dataset into the on-flash binary format, runs a real
selection round, and replays the resulting I/O traces against the NAND +
link models:

1. the sequential embedding scan the selection phase streams;
2. the scattered gather of the *actually selected* subset — on the
   default shuffled layout and on a class-clustered layout;
3. the same comparison at ImageNet-100 image sizes, showing the
   crossover behind the paper's §4.4 claim that storage-assisted
   training gets more effective as images grow.

Usage:
    python examples/io_trace_study.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.data import SyntheticConfig, make_train_test
from repro.data.storage_format import save_dataset_bin
from repro.nn.resnet import resnet20
from repro.selection import CraigSelector
from repro.smartssd.trace import generate_selection_trace, generate_subset_gather_trace, replay


def trace_report(label, cost):
    print(f"  {label:28s} {1e3 * cost.total_time:9.2f} ms  "
          f"{cost.effective_throughput / 1e9:6.2f} GB/s  "
          f"({cost.random_requests} random / "
          f"{cost.sequential_requests} sequential requests)")


def main():
    config = SyntheticConfig(num_classes=10, num_samples=2000, seed=0)
    train_set, _ = make_train_test(config)
    model = resnet20(num_classes=10, width=6, seed=1)

    print("selecting a 28% subset with CRAIG ...")
    result = CraigSelector().select(train_set, 0.28, model)
    selected_ids = train_set.ids[result.positions]
    print(f"  {len(selected_ids)} of {len(train_set)} samples selected\n")

    workdir = Path(tempfile.mkdtemp(prefix="nessa-traces-"))
    shuffled = save_dataset_bin(train_set, workdir / "shuffled.bin", layout="shuffled")
    clustered = save_dataset_bin(
        train_set, workdir / "clustered.bin", layout="class_clustered"
    )

    print("replaying traces at the dataset's real on-flash geometry:")
    emb_scan = replay(generate_selection_trace(len(train_set), 512, 4096))
    trace_report("embedding scan (selection)", emb_scan)
    trace_report("subset gather, shuffled", replay(shuffled.gather_trace(selected_ids)))
    # A per-class scan (what per-class selection reads) shows the layout
    # effect: on the clustered layout it is one contiguous run.
    class0_ids = train_set.ids[train_set.y == 0]
    trace_report("class-0 read, shuffled", replay(shuffled.gather_trace(class0_ids)))
    trace_report("class-0 read, clustered", replay(clustered.gather_trace(class0_ids)))

    print("\npaper-scale extrapolation (batch 128, 28% subsets):")
    rng = np.random.default_rng(0)
    for name, n, bytes_per_image in [
        ("cifar10 (3 KB images)", 50_000, 3_000),
        ("imagenet100 (126 KB)", 130_000, 126_000),
    ]:
        picked = np.sort(rng.choice(n, size=int(0.28 * n), replace=False))
        scan = replay(generate_selection_trace(n, bytes_per_image, 4096))
        gather = replay(generate_subset_gather_trace(picked, bytes_per_image))
        winner = "gather (28%)" if gather.total_time < scan.total_time else "full scan"
        print(f"  {name:24s} full scan {scan.total_time:7.2f}s vs "
              f"subset gather {gather.total_time:7.2f}s -> {winner} wins")
    print("\nthe crossover is the paper's §4.4 point: storage-assisted "
          "training pays off more as image sizes grow.")


if __name__ == "__main__":
    main()
