"""Figure 6: effective SSD↔FPGA data-transfer throughput per dataset.

The paper profiles the on-board P2P link with batch-size-128 transfers:
CIFAR-10's 384 KB batches achieve 1.46 GB/s; ImageNet-100's ~16 MB
batches achieve 2.28 GB/s — larger transfers saturate the 3 GB/s link
better, which is the figure's message ("as the dataset size increases,
storage-assisted training becomes more effective").
"""

import pytest

from repro.data.registry import DATASETS
from repro.smartssd.device import SmartSSD

from benchmarks._shared import write_table

BATCH = 128
PAPER_POINTS = {"cifar10": 1.46, "imagenet100": 2.28}


def throughputs():
    ssd = SmartSSD()
    out = {}
    for name, info in DATASETS.items():
        batch_bytes = BATCH * info.bytes_per_image
        out[name] = ssd.effective_p2p_throughput(batch_bytes) / 1e9
    return out


def test_fig6_throughput():
    eff = throughputs()

    lines = ["Figure 6: SSD<->FPGA effective throughput (batch size 128)"]
    lines.append(f"{'dataset':13s} {'batch MB':>9s} {'GB/s(ours)':>11s} {'GB/s(paper)':>12s}")
    for name, info in DATASETS.items():
        paper = PAPER_POINTS.get(name)
        paper_str = f"{paper:.2f}" if paper else "-"
        lines.append(
            f"{name:13s} {BATCH * info.bytes_per_image / 1e6:9.2f} "
            f"{eff[name]:11.2f} {paper_str:>12s}"
        )
    write_table("fig6_throughput", lines)

    # Published anchor points.
    assert eff["cifar10"] == pytest.approx(1.46, abs=0.08)
    assert eff["imagenet100"] == pytest.approx(2.28, abs=0.12)

    # Throughput rises with image size (the figure's monotone trend).
    assert eff["cifar10"] <= eff["tinyimagenet"] <= eff["imagenet100"]

    # Everything stays under the 3 GB/s theoretical ceiling.
    assert all(v < 3.0 for v in eff.values())


def test_fig6_saturation_curve():
    """Dense sweep of the transfer-size -> throughput curve."""

    def sweep():
        ssd = SmartSSD()
        sizes = [2**i * 1024 for i in range(6, 26)]  # 64 KB .. 32 GB
        return [(s, ssd.effective_p2p_throughput(s)) for s in sizes]

    curve = sweep()
    effs = [e for _, e in curve]
    # Monotone non-decreasing and asymptotically approaching sustained bw.
    assert all(b >= a - 1e-6 for a, b in zip(effs, effs[1:]))
    assert effs[-1] == pytest.approx(2.35e9, rel=0.01)
