"""Figure 2: share of epoch time spent on data movement (V100).

Paper anchors (Section 1): MNIST spends 5.4% of training time on data
movement; ImageNet-100 spends 40.4%.  The bars between (CIFAR-10/100)
depend on each dataset's Table 1 model.
"""

import pytest

from repro.data.registry import DATASETS
from repro.perf.gpus import v100
from repro.perf.timemodel import epoch_time_breakdown
from repro.pipeline.system import SystemModel

from benchmarks._shared import write_table

# MNIST has no Table 1 network, so its row is literal:
# (name, images, bytes/image, pixels, forward FLOPs (2/MAC), compressed).
MNIST_ROW = ("mnist", 60_000, 500, 784, 8.4e6, False)
TABLE1_NAMES = ("cifar10", "cifar100", "imagenet100")


def fig2_rows():
    rows = [MNIST_ROW]
    for name in TABLE1_NAMES:
        info, model = DATASETS[name], SystemModel(name)
        rows.append((name, info.train_size, info.bytes_per_image, model.pixels_per_image,
                     model.forward_flops, model.compressed))
    return rows


PAPER_SHARES = {"mnist": 5.4, "imagenet100": 40.4}


def compute_breakdowns():
    gpu = v100()
    return {
        name: epoch_time_breakdown(n, b, px, f, gpu, compressed=comp)
        for name, n, b, px, f, comp in fig2_rows()
    }


def test_fig2_movement_shares():
    breakdowns = compute_breakdowns()

    lines = ["Figure 2: time distribution of training (V100)"]
    lines.append(f"{'dataset':12s} {'ingest(s)':>10s} {'compute(s)':>11s} {'movement%':>10s} {'paper%':>7s}")
    for name, bd in breakdowns.items():
        paper = PAPER_SHARES.get(name)
        paper_str = f"{paper:.1f}" if paper else "-"
        lines.append(
            f"{name:12s} {bd.ingest_time:10.2f} {bd.compute_time:11.2f} "
            f"{100 * bd.movement_fraction:10.1f} {paper_str:>7s}"
        )
    write_table("fig2_time_distribution", lines)

    shares = {k: 100 * v.movement_fraction for k, v in breakdowns.items()}
    # Published anchors.
    assert shares["mnist"] == pytest.approx(5.4, abs=2.5)
    assert shares["imagenet100"] == pytest.approx(40.4, abs=5.0)
    # ImageNet-100 is the movement-dominated extreme.
    assert shares["imagenet100"] == max(shares.values())
    # The paper's headline trend: movement grows from 5.4% to 40.4%.
    assert shares["imagenet100"] > 5 * shares["mnist"]


def test_fig2_movement_grows_with_image_bytes_same_model():
    """Controlled version of the trend: fix the model, grow the images."""

    def shares_for_sizes():
        gpu = v100()
        flops = SystemModel("cifar10").forward_flops
        out = []
        for bytes_per_image, pixels in [(500, 784), (3_000, 3_072), (12_000, 12_288)]:
            bd = epoch_time_breakdown(50_000, bytes_per_image, pixels, flops, gpu)
            out.append(bd.movement_fraction)
        return out

    fractions = shares_for_sizes()
    assert fractions[0] < fractions[1] < fractions[2]
