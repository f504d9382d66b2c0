"""Figure 1: training time per epoch for a decade of ImageNet classifiers.

The paper's motivation figure: per-epoch training time on ImageNet-1k
(1.28M images) with an NVIDIA A100 rises steeply from AlexNet (2012) to
the ViT era.  We regenerate the series from published per-image FLOP
counts and the A100 throughput model.
"""

import pytest

from repro.perf.flops import MODEL_ZOO
from repro.perf.gpus import a100
from repro.perf.timemodel import GPUComputeModel

from benchmarks._shared import write_table

IMAGENET_1K_IMAGES = 1_281_167


def epoch_times():
    gpu = GPUComputeModel(a100())
    out = []
    for model in sorted(MODEL_ZOO, key=lambda m: (m.year, m.gflops_per_image)):
        # Zoo counts are MAC-convention; the repo convention is 2 FLOPs/MAC.
        fwd = 2.0 * model.gflops_per_image * 1e9
        seconds = gpu.epoch_compute_time(
            IMAGENET_1K_IMAGES, fwd, mixed_precision=model.mixed_precision
        )
        out.append((model, seconds))
    return out


def test_fig1_epoch_time_grows_across_the_decade():
    rows = epoch_times()

    lines = ["Figure 1: ImageNet-1k epoch time on A100 (model, year, minutes)"]
    for model, seconds in rows:
        lines.append(f"{model.name:18s} {model.year}  {seconds / 60:8.1f} min")
    write_table("fig1_epoch_time", lines)

    by_year = {}
    for model, seconds in rows:
        by_year.setdefault(model.year, []).append(seconds)

    # The paper's claim is a steep (exponential-looking) rise: the newest
    # models cost more than an order of magnitude over AlexNet.
    alexnet = next(s for m, s in rows if m.name == "alexnet")
    newest = max(s for m, s in rows if m.year >= 2020)
    assert newest > 10 * alexnet

    # Epoch times are broadly increasing with year (per-year minima rise
    # from first to last era).
    years = sorted(by_year)
    assert min(by_year[years[-1]]) > min(by_year[years[0]])


def test_fig1_absolute_scale_plausible():
    """AlexNet epochs are minutes, ViT-H epochs are hours — not seconds/days."""
    rows = epoch_times()
    times = {m.name: s for m, s in rows}
    assert 60 < times["alexnet"] < 3600
    assert 600 < times["vit_h14"] < 86400
