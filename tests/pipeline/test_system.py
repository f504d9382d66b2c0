"""Tests for the end-to-end system model (Figure 4 / headline claims)."""

from dataclasses import replace

import pytest

from repro.core.feedback import FeedbackLoop
from repro.data.registry import DATASETS
from repro.nn import resnet
from repro.nn.quantize import quantized_state_bytes
from repro.perf.flops import MODEL_ZOO, model_forward_flops
from repro.pipeline.system import (
    SystemModel,
    _network_costs,
    average_speedups,
    data_movement_summary,
)


class TestEpochTable:
    def test_all_strategies_priced(self):
        table = SystemModel("cifar10").epoch_table()
        assert set(table) == {"full", "craig", "kcenters", "nessa"}
        assert all(t.total > 0 for t in table.values())

    def test_figure4_ordering_on_cifar10(self):
        """Figure 4 (CIFAR-10/ResNet-20): NeSSA < CRAIG < full < K-Centers."""
        t = SystemModel("cifar10").epoch_table()
        assert t["nessa"].total < t["craig"].total
        assert t["craig"].total < t["full"].total
        assert t["full"].total < t["kcenters"].total

    def test_nessa_fastest_on_every_dataset(self):
        for name in DATASETS:
            t = SystemModel(name).epoch_table()
            others = [t[k].total for k in ("full", "craig", "kcenters")]
            assert t["nessa"].total < min(others), name

    def test_full_epoch_movement_is_dataset_bytes(self):
        m = SystemModel("cifar10")
        full = m.full_epoch()
        assert full.movement.over_host_interconnect == pytest.approx(150e6)

    def test_nessa_movement_is_subset_plus_feedback(self):
        m = SystemModel("cifar10")
        nessa = m.nessa_epoch()
        subset_bytes = int(0.28 * 50_000) * 3_000
        assert nessa.movement.host_to_gpu == pytest.approx(subset_bytes, rel=0.01)
        assert nessa.movement.host_to_fpga > 0
        # Candidates reach the FPGA over P2P; none are read to the host.
        assert nessa.movement.ssd_to_host == 0
        assert nessa.movement.ssd_to_fpga > 0

    def test_every_strategy_prices_the_subset_budget(self):
        """k = round(f·N): at N = 50,002 and f = 0.28 that is 14,001, not 14,000."""
        m = SystemModel(replace(DATASETS["cifar10"], train_size=50_002))
        assert m.nessa_epoch().movement.host_to_gpu == 14_001 * 3_000
        assert m.craig_epoch().compute_time == m._train_time(14_001)
        assert m.kcenters_epoch().compute_time == m._train_time(14_001)

    def test_selection_overlap_caps_critical_path(self):
        """NeSSA's selection shows up only as its non-overlapped excess."""
        m = SystemModel("cifar10")
        nessa = m.nessa_epoch()
        assert nessa.selection_time < nessa.compute_time + 1.0

    @pytest.mark.parametrize("method", ["craig_epoch", "kcenters_epoch", "nessa_epoch"])
    @pytest.mark.parametrize("fraction", [0.0, 1.5])
    def test_subset_fraction_outside_unit_interval_raises(self, method, fraction):
        """0.0 is not "the default" and 1.5 is not 1.5x the train set."""
        with pytest.raises(ValueError, match="subset_fraction"):
            getattr(SystemModel("cifar10"), method)(subset_fraction=fraction)

    def test_subset_never_exceeds_the_pool_it_is_drawn_from(self):
        """At pool_fraction 0.1 the CIFAR-10 pool is 5,000 images, fewer
        than the 14,000 the subset budget asks for: the pool caps both the
        images trained and the images moved host→GPU."""
        m = SystemModel("cifar10")
        capped = m.nessa_epoch(pool_fraction=0.1)
        assert capped.compute_time == m._train_time(5_000)
        assert capped.movement.host_to_gpu == 5_000 * 3_000
        assert capped.total < m.nessa_epoch(pool_fraction=1.0).total

    def test_a_tiny_pool_still_trains_one_image(self):
        """The pool goes through the one budget rule, so a pool under one
        image's share holds one image rather than pricing an empty epoch."""
        m = SystemModel("cifar10")
        tiny = m.nessa_epoch(pool_fraction=1e-5)
        assert tiny.compute_time == m._train_time(1) > 0.0
        assert tiny.movement.host_to_gpu == 3_000

    def test_pool_fraction_validated(self):
        with pytest.raises(ValueError):
            SystemModel("cifar10").nessa_epoch(pool_fraction=0.0)

    def test_unknown_baseline_raises(self):
        with pytest.raises(KeyError):
            SystemModel("cifar10").speedup("bogus")


class TestNetworkCosts:
    """Each per-network number is counted on the network the code builds."""

    def test_feedback_bytes_are_what_the_feedback_loop_charges(self):
        charged = FeedbackLoop(lambda: resnet.resnet20(10)).sync(resnet.resnet20(10))
        assert charged == 282_094
        assert SystemModel("cifar10").nessa_epoch().movement.host_to_fpga == charged

    def test_counts_from_narrow_builds_equal_a_default_width_build(self):
        """Widths 1, 2 and 3 fix every count at the default width 16 exactly."""
        net = resnet.resnet20(10)
        assert _network_costs("resnet20", 10, (3, 32, 32)) == (
            model_forward_flops(net, (3, 32, 32)), net.embedding_dim, quantized_state_bytes(net)
        )

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_forward_flops_and_embedding_width_follow_the_builder(self, name):
        m = SystemModel(name)
        info = m.dataset
        net = getattr(resnet, info.model)(info.num_classes)
        assert m.embedding_dim == net.embedding_dim
        if info.image_shape[1] <= 64:
            assert m.forward_flops == model_forward_flops(net, info.image_shape)
        else:
            # The code's resnet50 has the CIFAR stem; 224-px ImageNet-100
            # prices the published ResNet-50 (2 FLOPs per MAC).
            published = next(zoo for zoo in MODEL_ZOO if zoo.name == "resnet50")
            assert m.forward_flops == 2e9 * published.gflops_per_image


class TestHeadlineClaims:
    """Paper Section 1 / 4.3 / 4.4 headline numbers, shape-checked."""

    def test_movement_reduction_near_3_47x(self):
        """'an average data movement reduction of 3.47x across datasets'."""
        summary = data_movement_summary()
        assert summary["average"] == pytest.approx(3.47, abs=0.8)

    def test_movement_reduction_positive_everywhere(self):
        summary = data_movement_summary()
        for name in DATASETS:
            assert summary[name] > 1.5, name

    def test_speedup_vs_full_in_paper_ballpark(self):
        """Paper: 5.37x average end-to-end vs full-data training."""
        speedups = average_speedups()
        assert 3.0 <= speedups["full"] <= 7.0

    def test_speedup_orderings(self):
        """NeSSA beats every baseline; CRAIG is the strongest baseline."""
        speedups = average_speedups()
        assert all(v > 1.0 for v in speedups.values())
        assert speedups["kcenters"] > speedups["craig"]

    def test_biasing_pool_shrink_helps(self):
        m = SystemModel("svhn")
        slow = m.nessa_epoch(pool_fraction=1.0).total
        fast = m.nessa_epoch(pool_fraction=0.5).total
        assert fast <= slow

    def test_p2p_advantage_2_14x(self):
        m = SystemModel("cifar10")
        ratio = m.ssd.p2p.peak_bytes_per_s / m.ssd.host_path.sustained_bytes_per_s
        assert ratio == pytest.approx(2.14, abs=0.01)


class TestSelectionResolution:
    def test_large_images_scored_at_thumbnail(self):
        inet = SystemModel("imagenet100")
        assert inet.selection_flops < inet.forward_flops

    def test_small_images_scored_at_full_resolution(self):
        cifar = SystemModel("cifar10")
        assert cifar.selection_flops == cifar.forward_flops


class TestStrategyKnobs:
    def test_custom_subset_fraction_scales_compute(self):
        m = SystemModel("cifar10")
        small = m.craig_epoch(subset_fraction=0.1)
        large = m.craig_epoch(subset_fraction=0.5)
        assert small.compute_time < large.compute_time

    def test_refresh_period_trades_selection_time(self):
        m = SystemModel("svhn")
        frequent = m.nessa_epoch(refresh_period=2)
        rare = m.nessa_epoch(refresh_period=20)
        assert rare.total <= frequent.total + 1e-9
        with pytest.raises(ValueError):
            m.nessa_epoch(refresh_period=0)

    def test_feedback_bytes_override(self):
        m = SystemModel("cifar10")
        tiny = m.nessa_epoch(feedback_bytes=1_000)
        huge = m.nessa_epoch(feedback_bytes=1e9)
        assert huge.feedback_time > tiny.feedback_time
        assert huge.movement.host_to_fpga == pytest.approx(1e9)

    def test_energy_scales_with_epoch_time(self):
        m = SystemModel("cifar10")
        full = m.full_epoch()
        nessa = m.nessa_epoch()
        assert m.epoch_energy(full) > m.epoch_energy(nessa)

    def test_imagenet_thumbnail_bytes_reduce_refresh_stream(self):
        """224px images refresh from 64px thumbnails: ~12x fewer bytes."""
        m = SystemModel("imagenet100")
        t = m.nessa_epoch(refresh_period=1)
        full_bytes = m.dataset.total_bytes
        # ssd_to_fpga = embeddings + thumbnail refresh; far below full images.
        assert t.movement.ssd_to_fpga < 0.2 * full_bytes
