"""Tests for quantization and the feedback loop's quantized replica."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import FeedbackLoop
from repro.nn.inference import InferencePlan
from repro.nn.quantize import dequantize_tensor, quantize_tensor, quantized_state_bytes
from repro.nn.resnet import resnet20


class TestQuantizeTensor:
    def test_roundtrip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64,)).astype(np.float32)
        q, scale = quantize_tensor(x, bits=8)
        err = np.abs(dequantize_tensor(q, scale) - x)
        assert err.max() <= scale / 2 + 1e-7

    def test_int8_range_respected(self):
        x = np.linspace(-10, 10, 100).astype(np.float32)
        q, _ = quantize_tensor(x, bits=8)
        assert q.max() <= 127 and q.min() >= -127

    def test_zero_tensor_safe(self):
        q, scale = quantize_tensor(np.zeros(5, dtype=np.float32))
        assert np.all(q == 0)
        assert scale == 1.0

    def test_32bit_is_identity(self):
        x = np.array([0.1, -0.2, 0.3], dtype=np.float32)
        q, scale = quantize_tensor(x, bits=32)
        assert scale == 1.0
        assert np.array_equal(q, x)

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(256,)).astype(np.float32)
        errors = []
        for bits in (4, 8, 16):
            q, s = quantize_tensor(x, bits=bits)
            errors.append(np.abs(dequantize_tensor(q, s) - x).max())
        assert errors[0] > errors[1] > errors[2]

    def test_rejects_bad_bit_width(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.zeros(2), bits=1)
        with pytest.raises(ValueError):
            quantize_tensor(np.zeros(2), bits=33)

    @given(bits=st.sampled_from([4, 8, 16]), scale=st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_property(self, bits, scale):
        """Quantizing -x gives -quantize(x) (symmetric scheme)."""
        rng = np.random.default_rng(int(scale * 100) + bits)
        x = (rng.normal(size=32) * scale).astype(np.float32)
        q1, s1 = quantize_tensor(x, bits)
        q2, s2 = quantize_tensor(-x, bits)
        assert s1 == pytest.approx(s2)
        assert np.array_equal(q1, -q2)


class TestQuantizedModel:
    """The quantized model is :class:`FeedbackLoop`'s replica, a plain ResNet."""

    def test_sync_copies_weights_with_quantization_error(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(lambda: resnet20(num_classes=4, width=4, seed=2), bits=8)
        loop.sync(src)
        src_w = dict(src.named_parameters())["fc.weight"].data
        dst_w = dict(loop.replica.named_parameters())["fc.weight"].data
        assert not np.array_equal(src_w, dst_w)  # rounding happened
        assert np.abs(src_w - dst_w).max() < np.abs(src_w).max() / 50  # but small

    def test_fp32_sync_is_exact(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(lambda: resnet20(num_classes=4, width=4, seed=2), bits=32)
        loop.sync(src)
        for (_, ps), (_, pd) in zip(src.named_parameters(), loop.replica.named_parameters()):
            assert np.array_equal(ps.data, pd.data)

    def test_sync_copies_bn_running_stats(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        src.stem_bn.running_mean[:] = 3.0
        loop = FeedbackLoop(lambda: resnet20(num_classes=4, width=4, seed=2), bits=8)
        loop.sync(src)
        assert np.allclose(loop.replica.stem_bn.running_mean, 3.0)

    def test_outputs_close_to_source(self):
        rng = np.random.default_rng(2)
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(lambda: resnet20(num_classes=4, width=4, seed=3), bits=8)
        loop.sync(src)
        x = rng.normal(size=(8, 3, 8, 8)).astype(np.float32)
        ref = src.eval()(x)
        out = InferencePlan(loop.replica, x.shape[1:])(x)
        assert np.abs(ref - out).max() < 0.35 * np.abs(ref).max()

    def test_architecture_mismatch_raises(self):
        src = resnet20(num_classes=4, width=4)
        loop = FeedbackLoop(lambda: resnet20(num_classes=5, width=4, seed=2))
        before = [p.data.copy() for p in loop.replica.parameters()]
        with pytest.raises(ValueError, match="architectures differ"):
            loop.sync(src)
        assert loop.syncs == 0 and loop.bytes_transferred == 0
        # the mismatch is the last layer; no earlier one was overwritten
        assert all(np.array_equal(b, p.data) for b, p in zip(before, loop.replica.parameters()))

    def test_payload_bytes_scale_with_bits(self):
        model = resnet20(num_classes=4, width=4)
        b8 = quantized_state_bytes(model, 8)
        b4 = quantized_state_bytes(model, 4)
        b32 = quantized_state_bytes(model, 32)
        assert b4 < b8 < b32
        # int8 payload is roughly 1 byte per parameter plus buffers.
        assert b8 >= model.num_parameters()
        # ... and it is what one sync charges.
        assert FeedbackLoop(lambda: resnet20(num_classes=4, width=4, seed=2)).sync(model) == b8


class TestDegenerateScales:
    """Edge cases of the scale computation: empty, constant, subnormal."""

    def test_empty_tensor_roundtrips(self):
        q, scale = quantize_tensor(np.zeros((0, 4)), bits=8)
        assert q.shape == (0, 4) and scale == 1.0
        assert dequantize_tensor(q, scale).shape == (0, 4)

    def test_all_zero_tensor_identity_scale(self):
        for shape in ((5,), (3, 5)):  # one scale, then one per channel
            q, scale = quantize_tensor(np.zeros(shape), bits=8)
            assert not q.any()
            assert np.all(np.asarray(scale) == 1.0)
            assert not dequantize_tensor(q, scale).any()

    def test_single_value_tensor_exact(self):
        x = np.full(1, -0.73)
        q, scale = quantize_tensor(x, bits=8)
        assert q[0] == -127  # the max-abs element always hits the rail
        assert dequantize_tensor(q, scale)[0] == pytest.approx(
            -0.73, rel=1e-6
        )

    def test_subnormal_max_abs_never_yields_zero_scale(self):
        tiny = float(np.finfo(np.float32).tiny)
        for x in (np.full(4, tiny / 4), np.full((2, 2), tiny / 4)):
            q, scale = quantize_tensor(x, bits=8)
            scale32 = np.asarray(scale, dtype=np.float32)
            assert np.all(scale32 > 0.0)  # never flushed to zero
            rebuilt = dequantize_tensor(q, scale)
            assert np.all(np.isfinite(rebuilt))

    def test_mixed_zero_and_live_channels(self):
        x = np.stack([np.zeros(4), np.array([1.0, -2.0, 0.5, 2.0])])
        q, scale = quantize_tensor(x, bits=8)
        assert not q[0].any() and scale[0] == 1.0
        assert np.abs(q[1]).max() == 127
