"""Extension bench: storage access patterns of NeSSA training.

Replays the access patterns one NeSSA epoch generates against the
NAND+link models: the sequential candidate scan (selection phase) and the
scattered subset gather (training phase).  The headline finding is the
image-size crossover behind the paper's §4.4 observation that
storage-assisted training "becomes more effective and necessary" as
images grow: sub-page images make scattered gathers latency-bound, while
multi-page images amortize the seeks.
"""

import numpy as np
import pytest

from repro.data.registry import DATASETS
from repro.smartssd.access import (
    selection_scan_pattern,
    subset_gather_pattern,
    replay,
)

from benchmarks._shared import write_table


def epoch_traces():
    rng = np.random.default_rng(0)
    out = {}
    for name, info in DATASETS.items():
        n = info.train_size
        k = int(info.subset_fraction * n)
        picked = np.sort(rng.choice(n, size=k, replace=False))
        scan = replay(selection_scan_pattern(n, 512, chunk_records=4096))
        gather = replay(subset_gather_pattern(picked, info.bytes_per_image))
        full_scan = replay(selection_scan_pattern(n, info.bytes_per_image, 4096))
        out[name] = (scan, gather, full_scan)
    return out


def test_ext_io_trace_replay(benchmark):
    traces = benchmark.pedantic(epoch_traces, rounds=1, iterations=1)

    lines = ["I/O trace replay per NeSSA epoch (embedding scan + subset gather)"]
    lines.append(
        f"{'dataset':13s} {'emb scan':>9s} {'gather':>9s} {'full scan':>10s} "
        f"{'gather GB/s':>12s}"
    )
    for name, (scan, gather, full_scan) in traces.items():
        lines.append(
            f"{name:13s} {scan.total_time:9.3f} {gather.total_time:9.3f} "
            f"{full_scan.total_time:10.3f} {gather.effective_throughput / 1e9:12.2f}"
        )
    write_table("ext_io_traces", lines)

    for name, (scan, gather, full_scan) in traces.items():
        info = DATASETS[name]
        # The embedding scan is cheap — far cheaper than re-reading images.
        assert scan.total_time < full_scan.total_time, name
        # Gather throughput rises with image size (Fig. 6's driver).
        if info.bytes_per_image >= 100_000:
            assert gather.effective_throughput > 1.5e9, name

    # The crossover: gather beats the full image scan only for large images.
    small = traces["cifar10"]
    large = traces["imagenet100"]
    assert small[1].total_time > small[2].total_time * 0.2  # gather not free
    assert large[1].total_time < large[2].total_time  # gather wins outright


def test_ext_defragmented_layout_ablation(benchmark):
    """If the device relaid the subset contiguously (a future-work idea),
    small-image gathers would approach streaming speed."""

    def compare():
        rng = np.random.default_rng(1)
        n, bpi = 50_000, 3_000
        k = int(0.28 * n)
        scattered = np.sort(rng.choice(n, size=k, replace=False))
        contiguous = np.arange(k)
        return (
            replay(subset_gather_pattern(scattered, bpi)),
            replay(subset_gather_pattern(contiguous, bpi)),
        )

    scattered, contiguous = benchmark(compare)
    assert contiguous.total_time < scattered.total_time / 2
    assert contiguous.effective_throughput > 1.2e9
