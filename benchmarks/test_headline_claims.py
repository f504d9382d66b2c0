"""Section 1 / 4.3 / 4.4 headline numbers, cross-dataset.

- 3.47x average reduction in data movement;
- 5.37x average end-to-end training speed-up vs full-data training;
- 4.3x vs CRAIG [20] and 8.1x vs K-Centers [17];
- 2.14x faster transfers over the on-board P2P path vs the host path.

We reproduce the metrics from the calibrated system model and assert the
*shape*: NeSSA wins everywhere, the movement reduction matches closely
(it is byte arithmetic), and the speed-ups land in the paper's ballpark.
Plain function calls, no pytest-benchmark: the model prices NeSSA at
``NeSSAConfig.refresh_period``, the embedding refresh period the
selector runs, and these tests guard the headline that period sets.
"""

import pytest

from repro.data.registry import DATASETS
from repro.pipeline.system import SystemModel, average_speedups, data_movement_summary

from benchmarks._shared import write_table

PAPER = {
    "movement_reduction": 3.47,
    "speedup_full": 5.37,
    "speedup_craig": 4.3,
    "speedup_kcenters": 8.1,
    "p2p_advantage": 2.14,
}


def test_headline_data_movement_reduction():
    summary = data_movement_summary()

    lines = ["Data-movement reduction over the host interconnect (full / NeSSA)"]
    for name in DATASETS:
        lines.append(f"{name:13s} {summary[name]:6.2f}x")
    lines.append(f"{'average':13s} {summary['average']:6.2f}x   (paper: 3.47x)")
    write_table("headline_movement", lines)

    assert summary["average"] == pytest.approx(PAPER["movement_reduction"], abs=0.8)
    assert all(summary[name] > 1.5 for name in DATASETS)


def test_headline_speedups():
    speedups = average_speedups()

    lines = ["Average end-to-end per-epoch speed-up of NeSSA (modelled)"]
    lines.append(f"vs full      {speedups['full']:5.2f}x   (paper: 5.37x)")
    lines.append(f"vs CRAIG     {speedups['craig']:5.2f}x   (paper: 4.3x)")
    lines.append(f"vs K-Centers {speedups['kcenters']:5.2f}x   (paper: 8.1x)")
    write_table("headline_speedups", lines)

    # Same ballpark as the paper; exact multiples are testbed properties.
    assert 3.0 <= speedups["full"] <= 7.5
    assert speedups["craig"] > 1.5
    assert speedups["kcenters"] > speedups["craig"]


def test_headline_nessa_wins_every_dataset():
    for name in DATASETS:
        s = SystemModel(name).speedup("full")
        assert s > 1.5, f"{name}: NeSSA speedup only {s:.2f}x"


def test_headline_p2p_advantage():
    m = SystemModel("cifar10")
    ratio = m.ssd.p2p.peak_bytes_per_s / m.ssd.host_path.sustained_bytes_per_s
    assert ratio == pytest.approx(PAPER["p2p_advantage"], abs=0.01)


def test_headline_energy_story():
    """Section 2.2: selection on the 7.5 W FPGA vs 45 W K1200 / 250 W A100."""
    from repro.perf.gpus import a100, k1200
    from repro.smartssd.fpga import KU15P

    fpga_w, k1200_w, a100_w = KU15P().power_watts, k1200().power_watts, a100().power_watts
    assert fpga_w * 5 < k1200_w * 1.0
    assert fpga_w * 30 < a100_w * 1.0
