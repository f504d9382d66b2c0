"""The fused eval-mode forward against the module forward it replaces."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.metrics import evaluate_accuracy
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.inference import InferencePlan, _RowConv, eval_forward
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Parameter,
    Sequential,
)
from repro.nn.quantize import QuantizedModel
from repro.nn.resnet import resnet20
from repro.perf.flops import model_forward_flops
from repro.pipeline.experiment import build_model
from repro.selection.craig import CraigSelector
from repro.selection.gradients import compute_gradient_proxies

# One registry dataset per Table 1 architecture, as build_model makes them:
# resnet20(w6), resnet18(w6), resnet50(w4).
ARCH_DATASETS = ("cifar10", "cifar100", "imagenet100")
REL_TOL = 1e-5
# Whole registry networks against a float64 reference: over 10 000 drawn
# cases both float32 engines have a median error of at most 3.8e-7
# relative and a 99th percentile of at most 2.9e-6, but 4 draws, all
# ResNet-50, reach 1.0e-5…1.5e-5 (the plan on 3, the module path on 1).
# The two pinned below are such draws and get a looser bound of their
# own; every other draw is held to REL_TOL.
ILL_CONDITIONED = {
    ("imagenet100", 7, 16, 185),  # plan 1.14e-5, module path 4.4e-6
    ("imagenet100", 8, 3, 521),  # plan 4.8e-6, module path 1.83e-5
}
ILL_CONDITIONED_REL_TOL = 3e-5


def randomise_bn(model, rng):
    """A trained-looking BN state, including the awkward corners."""
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            c = module.num_features
            module.running_mean[:] = rng.normal(0.0, 0.5, c)
            module.running_var[:] = rng.uniform(1e-3, 4.0, c)
            gamma = rng.normal(0.0, 1.0, c)  # negative scales included
            gamma[rng.integers(c)] = 0.0
            module.weight.data[:] = gamma
            module.bias.data[:] = rng.normal(0.0, 0.5, c)


def assert_close(got, want, tol=REL_TOL):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def snapshot(model):
    """Everything a forward pass could disturb, by value or by identity."""
    return {
        "params": {k: p.data.tobytes() for k, p in model.named_parameters()},
        "buffers": {k: v.tobytes() for k, v in model.named_buffers()},
        "training": [m.training for m in model.modules()],
        "caches": [id(getattr(m, "_cache", None)) for m in model.modules()],
    }


class Opaque:
    """Hides a ResNet's type, so ``eval_forward`` takes the module path."""

    def __init__(self, inner):
        self._inner = inner

    def __call__(self, x):
        return self._inner(x)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestEquivalence:
    """Both float32 engines against the module forward run on a float64 input.

    Comparing the plan with the float32 module path directly would charge
    the plan for the module path's rounding too (1.5e-5 between them on
    the seed-521 draw below).  The draws are derandomized: with 24 fresh
    random draws per run, about one run in a hundred would hit that tail.
    """

    @given(
        dataset=st.sampled_from(ARCH_DATASETS),
        size=st.sampled_from([5, 7, 8]),
        batch=st.sampled_from([1, 3, 16]),
        seed=st.integers(0, 2**16),
    )
    @example(dataset="imagenet100", size=5, batch=16, seed=231)
    @example(dataset="imagenet100", size=7, batch=16, seed=185)
    @example(dataset="imagenet100", size=8, batch=3, seed=521)
    @settings(max_examples=24, deadline=None, derandomize=True)
    def test_logits_and_features_match_module_eval(self, dataset, size, batch, seed):
        ill = (dataset, size, batch, seed) in ILL_CONDITIONED
        tol = ILL_CONDITIONED_REL_TOL if ill else REL_TOL
        rng = np.random.default_rng(seed)
        model = build_model(dataset, num_classes=7, seed=seed).eval()
        randomise_bn(model, rng)
        x = rng.normal(size=(batch, 3, size, size)).astype(np.float32)
        x64 = x.astype(np.float64)
        plan = InferencePlan(model, x.shape[1:])
        assert_close(plan(x), model(x64), tol=tol)
        assert_close(plan.features(x), model.features(x64), tol=tol)
        assert_close(model(x), model(x64), tol=tol)

    @pytest.mark.parametrize("dataset", ARCH_DATASETS)
    def test_non_square_input(self, dataset, rng):
        model = build_model(dataset, num_classes=5, seed=4).eval()
        randomise_bn(model, rng)
        x = rng.normal(size=(3, 3, 5, 8)).astype(np.float32)
        got = InferencePlan(model, x.shape[1:])(x)
        assert_close(got, model(x.astype(np.float64)))

    def test_plan_rejects_other_image_shapes(self, tiny_model, rng):
        plan = InferencePlan(tiny_model, (3, 8, 8))
        with pytest.raises(ValueError, match="plan built for"):
            plan(rng.normal(size=(2, 3, 8, 7)).astype(np.float32))

    def test_conv_bias_is_folded(self, rng):
        model = resnet20(num_classes=4, width=4, seed=1).eval()
        randomise_bn(model, rng)
        conv = model.stages[1][0].shortcut[0]
        conv.bias = Parameter(rng.normal(size=conv.out_channels), name="conv.bias")
        model.stem_conv.bias = Parameter(rng.normal(size=4), name="conv.bias")
        x = rng.normal(size=(5, 3, 8, 8)).astype(np.float32)
        got = InferencePlan(model, x.shape[1:])(x)
        assert_close(got, model(x.astype(np.float64)))

    def test_output_is_float32_and_contiguous(self, tiny_model, rng):
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        plan = InferencePlan(tiny_model, x.shape[1:])
        for out in (plan(x), plan.features(x)):
            assert out.dtype == np.float32 and out.flags.c_contiguous


class TestRowOperator:
    @given(
        k=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]),
        pad=st.sampled_from([0, 1]),
        conv_bias=st.booleans(),
        h=st.sampled_from([1, 2, 3, 5, 8]),
        w=st.sampled_from([1, 2, 3, 5, 8]),
        batch=st.sampled_from([1, 3, 16]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_folded_conv_matches_module_conv_bn(
        self, k, stride, pad, conv_bias, h, w, batch, seed
    ):
        assume(h + 2 * pad >= k and w + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        c_in, c_out = (int(c) for c in rng.integers(1, 7, size=2))
        conv = Conv2d(c_in, c_out, k, stride=stride, padding=pad, bias=conv_bias, rng=rng)
        if conv_bias:
            conv.bias.data[:] = rng.normal(size=c_out)
        bn = BatchNorm2d(c_out)
        randomise_bn(bn, rng)
        x = rng.normal(size=(batch, c_in, h, w)).astype(np.float32)
        want = bn.eval()(conv.eval()(x.astype(np.float64)))

        rows = np.zeros((h + 2, c_in, w, batch), dtype=np.float32)  # the plan's layout
        rows[1:-1] = x.transpose(2, 1, 3, 0)
        out = _RowConv(conv, bn, x.shape[1:])(rows, relu=False)
        assert out.dtype == np.float32
        assert not out[0].any() and not out[-1].any()  # the next conv's padding
        assert_close(out[1:-1].transpose(3, 1, 0, 2), want)


class TestNoSideEffects:
    @pytest.mark.parametrize("training", [True, False])
    def test_model_is_untouched(self, tiny_model, rng, training):
        model = tiny_model.train() if training else tiny_model.eval()
        x = rng.normal(size=(6, 3, 8, 8)).astype(np.float32)
        if training:
            model(x)  # fill the backward caches
        before = snapshot(model)
        InferencePlan(model, x.shape[1:])(x)
        evaluate_accuracy(model, Dataset(x, np.zeros(6, dtype=np.int64)))
        compute_gradient_proxies(model, x, np.zeros(6, dtype=np.int64))
        assert snapshot(model) == before

    def test_interleaved_plan_call_leaves_grads_alone(self, rng):
        x = rng.normal(size=(8, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 8)

        def grads(interleave):
            model, loss = resnet20(num_classes=4, width=4, seed=3), CrossEntropyLoss()
            loss(model(x), y)
            if interleave:
                InferencePlan(model, x.shape[1:])(x[:3])
            model.backward(loss.backward())
            return [p.grad.copy() for p in model.parameters()]

        for with_plan, without in zip(grads(True), grads(False)):
            assert np.array_equal(with_plan, without)

    def test_plan_reads_weights_at_construction(self, tiny_model, rng):
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        source = resnet20(num_classes=4, width=4, seed=9)
        replica = QuantizedModel(tiny_model, bits=8)
        before = InferencePlan(replica.model, x.shape[1:])(x)
        replica.sync_from(source)  # what feedback does between rounds
        after = InferencePlan(replica.model, x.shape[1:])(x)
        assert not np.array_equal(before, after)
        assert_close(after, replica(x))


class TestEvalForward:
    def test_resnet_and_fp32_replica_are_fused(self, tiny_model):
        for model in (tiny_model, QuantizedModel(tiny_model, bits=8)):
            with eval_forward(model, (3, 8, 8)) as (forward, engine):
                assert engine == "fused" and isinstance(forward, InferencePlan)

    def test_fallback_toggles_eval_and_counts(self, rng):
        mlp = Sequential(GlobalAvgPool2d(), Linear(3, 3, rng=rng)).train()
        registry = obs.MetricsRegistry()
        previous = obs.set_metrics(registry)
        try:
            with eval_forward(mlp, (3, 2, 2)) as (forward, engine):
                assert engine == "module" and forward is mlp and not mlp.training
            with pytest.raises(RuntimeError), eval_forward(mlp, (3, 2, 2)):
                raise RuntimeError("mid-pass failure")
        finally:
            obs.set_metrics(previous)
        assert mlp.training and all(m.training for m in mlp.modules())
        assert registry.snapshot()["counters"]["nn.inference.module_fallbacks"] == 2

    def test_evaluate_accuracy_matches_module_path(self, train_test_split, tiny_model, rng):
        _, test_set = train_test_split
        randomise_bn(tiny_model, rng)
        assert evaluate_accuracy(tiny_model, test_set, batch_size=50) == evaluate_accuracy(
            Opaque(tiny_model), test_set, batch_size=50
        )


class TestProxies:
    def test_same_proxies_as_module_path(self, small_dataset, tiny_model, rng):
        randomise_bn(tiny_model, rng)
        x, y = small_dataset.x[:70], small_dataset.y[:70]
        # 70 = 2 * 32 + 6: the tail batch is short
        fused = compute_gradient_proxies(tiny_model, x, y, batch_size=32)
        module = compute_gradient_proxies(Opaque(tiny_model), x, y, batch_size=32)
        assert fused.vectors.dtype == fused.losses.dtype == np.float64
        assert fused.flops == model_forward_flops(tiny_model, x.shape[1:]) * 70
        assert_close(fused.vectors, module.vectors)
        assert_close(fused.losses, module.losses)

    def test_span_names_the_engine(self, small_dataset, tiny_model):
        x, y = small_dataset.x[:8], small_dataset.y[:8]
        tracer = obs.Tracer(run="engine")
        previous = obs.set_tracer(tracer)
        try:
            compute_gradient_proxies(tiny_model, x, y)
            compute_gradient_proxies(Opaque(tiny_model), x, y)
        finally:
            obs.set_tracer(previous)
        spans = [sp for sp in tracer.records if sp.name == "proxy_compute"]
        assert [sp.attrs["engine"] for sp in spans] == ["fused", "module"]
        assert all(sp.attrs["cache_hit"] is False and sp.attrs["candidates"] == 8 for sp in spans)

    def test_golden_seed_selection_is_unchanged(self):
        """The golden-history problem: fused and module proxies pick the same subset."""
        train_set, _ = make_train_test(
            SyntheticConfig(num_classes=4, num_samples=240, image_shape=(3, 8, 8), seed=21)
        )
        model = resnet20(num_classes=4, width=4, seed=13)
        fused = CraigSelector().select(train_set, 0.4, model)
        module = CraigSelector().select(train_set, 0.4, Opaque(model))
        assert np.array_equal(fused.positions, module.positions)
        assert np.array_equal(fused.weights, module.weights)
