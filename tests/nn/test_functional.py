"""Unit tests for the low-level numpy kernels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.modules import Conv2d
from repro.pipeline.experiment import build_model
from tests.nn.oracles import col2im_loop, im2col_loop


class TestSeedOracles:
    """The two seed oracles agree with each other."""

    @given(
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
    )
    @settings(max_examples=40, deadline=None)
    def test_col2im_loop_is_adjoint_of_im2col_loop(self, kernel, stride, pad, h, w):
        """<im2col_loop(x), y> == <x, col2im_loop(y)> — the defining adjoint identity."""
        assume(min(h, w) + 2 * pad >= kernel)
        rng = np.random.default_rng(kernel * 1000 + stride * 100 + pad * 10 + h * w)
        x = rng.normal(size=(2, 3, h, w))
        cols = im2col_loop(x, kernel, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im_loop(y, x.shape, kernel, stride, pad)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestConv2d:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        out, _ = F.conv2d(x, w, stride=1, pad=1)
        # Direct reference at one spatial position.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = (padded[0, :, 2:5, 3:6] * w[1]).sum()
        assert out[0, 1, 2, 3] == pytest.approx(ref, rel=1e-5)

    def test_output_shape_strided(self):
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        out, _ = F.conv2d(x, w, stride=2, pad=1)
        assert out.shape == (2, 4, 4, 4)

    def test_bias_added_per_channel(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w = np.zeros((2, 1, 1, 1), dtype=np.float32)
        b = np.array([1.5, -2.0], dtype=np.float32)
        out, _ = F.conv2d(x, w, bias=b)
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    def test_backward_gradcheck(self):
        """Finite-difference check of conv2d_backward in float64."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d(x, w, stride=1, pad=1)
        g = rng.normal(size=out.shape)
        grad_x, grad_w, _ = F.conv2d_backward(g, cols, x.shape, w, 1, 1)

        eps = 1e-6
        idx = (1, 0, 2, 3)
        x2 = x.copy()
        x2[idx] += eps
        out2, _ = F.conv2d(x2, w, stride=1, pad=1)
        num = ((out2 - out) * g).sum() / eps
        assert grad_x[idx] == pytest.approx(num, rel=1e-4)

        widx = (2, 1, 0, 1)
        w2 = w.copy()
        w2[widx] += eps
        out2, _ = F.conv2d(x, w2, stride=1, pad=1)
        num = ((out2 - out) * g).sum() / eps
        assert grad_w[widx] == pytest.approx(num, rel=1e-4)


class TestBlockedConvEquivalence:
    """The row-operator conv matches the seed im2col-GEMM formulation."""

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_forward_matches_seed_gemm(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        out, _ = F.conv2d(x, w, stride=stride, pad=pad)
        cols = im2col_loop(x, 3, stride, pad)
        oh = (9 + 2 * pad - 3) // stride + 1
        ref = (cols @ w.reshape(4, -1).T).reshape(2, oh, oh, 4).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_backward_matches_seed_path(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        out, cols = F.conv2d(x, w, stride=1, pad=1)
        g = rng.normal(size=out.shape)
        grad_x, grad_w, grad_b = F.conv2d_backward(g, cols, x.shape, w, 1, 1,
                                                   with_bias=True)

        seed_cols = im2col_loop(x, 3, 1, 1)
        g_flat = g.transpose(0, 2, 3, 1).reshape(-1, 4)
        ref_w = (g_flat.T @ seed_cols).reshape(4, 3, 3, 3)
        ref_x = col2im_loop(g_flat @ w.reshape(4, -1), x.shape, 3, 1, 1)
        np.testing.assert_allclose(grad_w, ref_w, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grad_x, ref_x, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grad_b, g_flat.sum(axis=0), rtol=1e-12)


def _in_format(x, memory):
    """``x``'s values in one of the memory formats a kernel may be handed."""
    if memory == "nchw":
        return np.ascontiguousarray(x)
    if memory == "batch_innermost":
        return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    wide = np.zeros(x.shape[:3] + (2 * x.shape[3] + 1,), dtype=x.dtype)
    wide[..., 1::2] = x
    return wide[..., 1::2]  # non-contiguous slice of a wider array


class TestConvAgainstSeedOracle:
    """``conv2d`` / ``conv2d_backward`` against the seed im2col-GEMM and col2im.

    The kernels repack whatever they are handed, so values must not
    depend on the strides of ``x`` or ``grad_out``; the output is always
    in the batch-innermost memory format.
    """

    @given(
        kernel=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]),
        pad=st.sampled_from([0, 1]),
        with_bias=st.booleans(),
        n=st.sampled_from([1, 3, 16]),
        h=st.sampled_from([1, 2, 5, 8]),
        w=st.sampled_from([1, 2, 5, 8]),
        x_memory=st.sampled_from(["nchw", "batch_innermost", "slice"]),
        g_memory=st.sampled_from(["nchw", "batch_innermost", "slice"]),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_forward_and_backward_match(
        self, kernel, stride, pad, with_bias, n, h, w, x_memory, g_memory, dtype
    ):
        assume(min(h, w) + 2 * pad >= kernel)
        c_in, c_out = 3, 4
        rng = np.random.default_rng([kernel, stride, pad, n, h, w])
        x = rng.normal(size=(n, c_in, h, w)).astype(dtype)
        weight = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
        bias = rng.normal(size=c_out).astype(dtype) if with_bias else None
        oh = (h + 2 * pad - kernel) // stride + 1
        ow = (w + 2 * pad - kernel) // stride + 1
        g = rng.normal(size=(n, c_out, oh, ow)).astype(dtype)
        # float32: rtol 1e-5 plus the rounding of a sum of up to N*OH*OW terms
        tol = dict(rtol=1e-5, atol=1e-4) if dtype is np.float32 else dict(rtol=1e-10, atol=1e-10)

        seed_cols = im2col_loop(x, kernel, stride, pad)  # (n*oh*ow, c_in*k*k)
        w_mat = weight.reshape(c_out, -1)
        ref_out = (seed_cols @ w_mat.T).reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
        if with_bias:
            ref_out = ref_out + bias[None, :, None, None]
        g_flat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        ref_w = (g_flat.T @ seed_cols).reshape(weight.shape)
        ref_x = col2im_loop(g_flat @ w_mat, x.shape, kernel, stride, pad)

        out, cache = F.conv2d(_in_format(x, x_memory), weight, bias, stride, pad)
        assert out.shape == ref_out.shape and out.dtype == dtype
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous
        np.testing.assert_allclose(out, ref_out, **tol)

        grad_x, grad_w, grad_b = F.conv2d_backward(
            _in_format(g, g_memory), cache, x.shape, weight, stride, pad, with_bias=with_bias
        )
        assert grad_x.shape == x.shape and grad_x.dtype == dtype
        assert grad_x.transpose(1, 2, 3, 0).flags.c_contiguous
        np.testing.assert_allclose(grad_x, ref_x, **tol)
        np.testing.assert_allclose(grad_w, ref_w, **tol)
        if with_bias:
            np.testing.assert_allclose(grad_b, g_flat.sum(axis=0), **tol)
        else:
            assert grad_b is None

    def test_pointwise_conv_reads_its_input_as_the_columns(self):
        x = _in_format(
            np.random.default_rng(15).normal(size=(4, 3, 2, 2)).astype(np.float32),
            "batch_innermost",
        )
        weight = np.ones((5, 3, 1, 1), dtype=np.float32)
        _, cache = F.conv2d(x, weight)
        assert np.shares_memory(cache, x)
        before = x.copy()
        F.conv2d_backward(np.ones((4, 5, 2, 2), dtype=np.float32), cache, x.shape, weight)
        np.testing.assert_array_equal(x, before)  # backward must not write over it


def _e2e_conv_geometries():
    """``(C_in, C_out, k, stride, pad, H, W)`` of every conv the e2e networks run."""
    seen = set()
    for dataset, classes in (("cifar10", 10), ("cifar100", 20)):
        model = build_model(dataset, num_classes=classes, seed=0)
        for conv in model.modules():
            if isinstance(conv, Conv2d):
                def record(x, conv=conv):
                    seen.add((conv.in_channels, conv.out_channels, conv.kernel_size,
                              conv.stride, conv.padding, x.shape[2], x.shape[3]))
                    return Conv2d.forward(conv, x)

                conv.forward = record
        model(np.zeros((2, 3, 8, 8), dtype=np.float32))
    return sorted(seen)


class TestE2EConvGradients:
    """Every conv geometry of the e2e networks, float32 against float64.

    The gradients are compared per conv, against the float64 seed
    im2col-GEMM, not through a whole model: ReLU kinks make whole-model
    float32-vs-float64 gradients differ by up to 3e-2 on some draws,
    whichever conv formulation computes them, so a whole-model comparison
    cannot be a tight oracle for the conv.
    """

    @pytest.mark.parametrize("geometry", _e2e_conv_geometries(), ids=str)
    def test_module_gradients_match_float64(self, geometry):
        c_in, c_out, k, stride, pad, h, w = geometry
        rng = np.random.default_rng(list(geometry))
        conv = Conv2d(c_in, c_out, k, stride=stride, padding=pad, rng=rng).train()
        x = rng.normal(size=(64, c_in, h, w)).astype(np.float32)
        out = conv(x)
        g = rng.normal(size=out.shape).astype(np.float32)
        grad_x = conv.backward(g)

        seed_cols = im2col_loop(x.astype(np.float64), k, stride, pad)
        w_mat = conv.weight.data.astype(np.float64).reshape(c_out, -1)
        g_flat = g.astype(np.float64).transpose(0, 2, 3, 1).reshape(-1, c_out)
        ref_out = (seed_cols @ w_mat.T).reshape(64, *out.shape[2:], c_out).transpose(0, 3, 1, 2)
        ref_w = (g_flat.T @ seed_cols).reshape(conv.weight.shape)
        ref_x = col2im_loop(g_flat @ w_mat, x.shape, k, stride, pad)
        for got, want in ((out, ref_out), (conv.weight.grad, ref_w), (grad_x, ref_x)):
            assert np.abs(got - want).max() <= 2e-6 * np.abs(want).max()

    @given(
        k=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2, 3]),
        pad=st.sampled_from([0, 1, 2]),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        n=st.sampled_from([1, 5, 64]),
    )
    @settings(max_examples=120, deadline=None)
    def test_weight_gradient_matches_float64(self, k, stride, pad, h, w, n):
        """The shifted-product ``grad_weight`` at any geometry, float32 against float64."""
        assume(min(h, w) + 2 * pad >= k)
        c_in, c_out = 3, 4
        rng = np.random.default_rng([k, stride, pad, h, w, n])
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        weight = rng.normal(size=(c_out, c_in, k, k)).astype(np.float32)
        out, cache = F.conv2d(x, weight, None, stride, pad)
        g = rng.normal(size=out.shape).astype(np.float32)
        _, grad_w, _ = F.conv2d_backward(g, cache, x.shape, weight, stride, pad)

        seed_cols = im2col_loop(x.astype(np.float64), k, stride, pad)
        g_flat = g.astype(np.float64).transpose(0, 2, 3, 1).reshape(-1, c_out)
        want = (g_flat.T @ seed_cols).reshape(weight.shape)
        assert grad_w.shape == weight.shape and grad_w.dtype == np.float32
        assert np.abs(grad_w - want).max() <= 2e-6 * np.abs(want).max()


class TestActivations:
    def test_relu_clamps_negatives(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        assert np.allclose(F.relu(x), [0, 0, 2])

    def test_relu_backward_masks(self):
        x = np.array([-1.0, 0.5], dtype=np.float32)
        g = np.array([3.0, 3.0], dtype=np.float32)
        assert np.allclose(F.relu_backward(g, F.relu(x)), [0, 3])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 7)) * 10
        p = F.softmax(z, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_softmax_shift_invariant(self):
        z = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(F.softmax(z), F.softmax(z + 100.0))

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 6))
        assert np.allclose(F.log_softmax(z), np.log(F.softmax(z)), atol=1e-7)

    def test_softmax_extreme_logits_stable(self):
        z = np.array([[1000.0, -1000.0, 0.0]])
        p = F.softmax(z)
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    @given(st.integers(2, 8), st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_softmax_property(self, n, k):
        rng = np.random.default_rng(n * 31 + k)
        z = rng.normal(size=(n, k)) * 5
        p = F.softmax(z, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert (p.argmax(axis=1) == z.argmax(axis=1)).all()
