"""Cross-module property-based tests on system invariants.

These run the real components end-to-end under randomized configurations
and check the properties the design relies on, rather than specific
values.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import NeSSAConfig
from repro.core.selector import NeSSASelector
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.nn.quantize import dequantize_tensor, quantize_tensor
from repro.nn.resnet import resnet20
from repro.selection.facility import (
    facility_location_value,
    lazy_greedy,
    medoid_weights,
    similarity_from_distances,
)

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def selection_problems(draw):
    classes = draw(st.integers(2, 5))
    per_class = draw(st.integers(12, 30))
    fraction = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]))
    seed = draw(st.integers(0, 50))
    config = SyntheticConfig(
        num_classes=classes,
        num_samples=classes * per_class,
        image_shape=(3, 8, 8),
        clusters_per_class=2,
        seed=seed,
    )
    return SyntheticImageDataset(config), fraction, seed


class TestSelectionInvariants:
    @given(problem=selection_problems(), use_pa=st.booleans(), use_sb=st.booleans())
    @settings(**SETTINGS)
    def test_nessa_selection_contract(self, problem, use_pa, use_sb):
        """For any config: unique positions, class coverage, weight mass."""
        dataset, fraction, seed = problem
        config = NeSSAConfig(
            subset_fraction=fraction,
            use_partitioning=use_pa,
            use_biasing=use_sb,
            seed=seed,
        )
        selector = NeSSASelector(config, chunk_select=16)
        model = resnet20(num_classes=dataset.num_classes, width=4, seed=seed)
        result = selector.select(dataset, fraction, model)

        positions = result.positions
        assert len(np.unique(positions)) == len(positions)
        assert positions.min() >= 0 and positions.max() < len(dataset)
        assert set(dataset.y[positions]) == set(range(dataset.num_classes))
        # CRAIG weights account for every candidate exactly once.
        assert result.weights.sum() == pytest.approx(len(dataset), rel=0.02)
        assert (result.weights >= 0).all()

    @given(problem=selection_problems())
    @settings(**SETTINGS)
    def test_dropped_samples_never_selected(self, problem):
        dataset, fraction, seed = problem
        config = NeSSAConfig(subset_fraction=fraction, biasing_drop_period=1, seed=seed)
        selector = NeSSASelector(config, chunk_select=16)
        model = resnet20(num_classes=dataset.num_classes, width=4, seed=seed)

        rng = np.random.default_rng(seed)
        losses = rng.uniform(0, 3, size=len(dataset))
        selector.snapshot_candidates(dataset)  # sizes the per-sample arrays
        for _ in range(5):
            selector.record_epoch_losses(dataset.ids, losses)
        selector.maybe_drop_learned(dataset, epoch=1)
        dropped = set(np.flatnonzero(selector.loss_history.dropped))
        if not dropped:
            return
        result = selector.select(dataset, fraction, model)
        chosen_ids = {int(i) for i in dataset.ids[result.positions]}
        assert not chosen_ids & dropped


class TestFacilityInvariants:
    @given(
        n=st.integers(8, 40),
        d=st.integers(2, 6),
        k=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(**SETTINGS)
    def test_greedy_never_decreases_and_weights_conserve(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, d))
        dist = np.linalg.norm(v[:, None] - v[None, :], axis=2)
        sim = similarity_from_distances(dist)
        k = min(k, n - 1)
        sel = lazy_greedy(sim, k)
        values = [facility_location_value(sim, sel[: i + 1]) for i in range(len(sel))]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert medoid_weights(sim, sel).sum() == pytest.approx(n)

    @given(
        n=st.integers(8, 30),
        k=st.integers(2, 6),
        seed=st.integers(0, 100),
    )
    @settings(**SETTINGS)
    def test_greedy_approximation_guarantee(self, n, k, seed):
        """Greedy is (1 - 1/e)-optimal: no set of size k (random sets are
        lower bounds on OPT) can beat it by more than that factor."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, 4))
        dist = np.linalg.norm(v[:, None] - v[None, :], axis=2)
        sim = similarity_from_distances(dist)
        k = min(k, n - 1)
        greedy_val = facility_location_value(sim, lazy_greedy(sim, k))
        bound = 1.0 - 1.0 / np.e
        for _ in range(5):
            random_set = rng.choice(n, size=k, replace=False)
            random_val = facility_location_value(sim, random_set)
            assert greedy_val >= bound * random_val - 1e-9


class TestQuantizationInvariants:
    @given(
        shape=st.sampled_from([(16,), (8, 12), (4, 3, 3, 3)]),
        bits=st.sampled_from([4, 8, 16]),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 100),
    )
    @settings(**SETTINGS)
    def test_roundtrip_error_bounded(self, shape, bits, scale, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=shape) * scale).astype(np.float32)
        q, s = quantize_tensor(x, bits=bits)
        restored = dequantize_tensor(q, s)
        # Per-channel or per-tensor: error bounded by half a step of the
        # largest channel scale, plus one float32 ulp at the tensor's
        # magnitude (bits=16 steps are fine enough that fp32 rounding of
        # restored values is visible at scales in the hundreds).
        max_scale = float(np.max(s)) if np.ndim(s) else float(s)
        ulp = float(np.spacing(np.float32(np.abs(x).max())))
        assert np.abs(restored - x).max() <= max_scale / 2 + ulp + 1e-6

    @given(bits=st.sampled_from([4, 8, 16]), seed=st.integers(0, 50))
    @settings(**SETTINGS)
    def test_idempotent(self, bits, seed):
        """Quantizing an already-quantized tensor is lossless."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 5)).astype(np.float32)
        q1, s1 = quantize_tensor(x, bits=bits)
        once = dequantize_tensor(q1, s1)
        q2, s2 = quantize_tensor(once, bits=bits)
        twice = dequantize_tensor(q2, s2)
        assert np.allclose(once, twice, atol=1e-6)


class TestDataInvariants:
    @given(
        classes=st.integers(2, 6),
        per_class=st.integers(10, 25),
        noise=st.floats(0.1, 1.2),
        seed=st.integers(0, 100),
    )
    @settings(**SETTINGS)
    def test_generator_is_pure_function_of_config(self, classes, per_class, noise, seed):
        config = SyntheticConfig(
            num_classes=classes,
            num_samples=classes * per_class,
            within_cluster_noise=noise,
            seed=seed,
        )
        a = SyntheticImageDataset(config)
        b = SyntheticImageDataset(config)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.cluster_ids, b.cluster_ids)
        assert np.isfinite(a.x).all()
