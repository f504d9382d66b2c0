"""Low-level numpy kernels: convolution via im2col, pooling, activations.

All kernels take and return arrays shaped ``(N, C, H, W)`` (batch,
channels, height, width) and come in forward/backward pairs.  The
backward functions take the upstream gradient and whatever cached values
the forward pass produced, mirroring how the module layer in
:mod:`repro.nn.modules` drives them.

Performance notes
-----------------
**Memory format.**  The convolution and batchnorm kernels work on a
*batch-innermost* buffer: the ``(N, C, H, W)`` array they return is a
``.transpose(3, 0, 1, 2)`` view of a C-contiguous ``(C, H, W, N)``
buffer.  :func:`channel_major` hands a kernel that buffer — a free view
when the producer was another ``repro.nn`` kernel, one copy (counted in
``nn.layout.repacks``) for a foreign NCHW array such as the loader's
batch — so values never depend on the strides of the input.  Elementwise
ops (ReLU, the residual adds) preserve the format on their own: numpy's
``order='K'`` keeps the operands' common strides.  The eval-only
:class:`repro.nn.inference.InferencePlan` has its own layout, rows
outermost (``(H+2, C, W, N)``), and no im2col.

**Convolution.**  With the batch innermost, im2col
(:func:`_im2col_channel_major`) is ``k*k`` slice copies whose contiguous
run is ``OW*N`` (stride 1) or ``N`` (stride 2) floats, and the column
buffer is one ``(C*k*k, OH*OW*N)`` matrix for the whole batch.  Forward
is a single GEMM ``(C_out, C*k*k) @ cols``; backward is two.
``grad_weight`` is the gradient against ``cols``, which also does the
sum over the batch.  ``grad_x`` at stride 1 is the same im2col + GEMM
applied to the gradient with the flipped kernel (a stride-1
convolution's input gradient is a stride-1 convolution); at stride 2 it
is the column gradient ``W.T @ g``, written over the dead column buffer
and folded back by ``k*k`` strided slice adds.  A 1x1 stride-1
convolution is its own column matrix in both directions: no im2col, no
scatter.  The column buffer is threaded from forward to backward through
the cache that :class:`repro.nn.modules.Conv2d` holds per batch.

**Pooling and the oracles.**  The pooling kernels use the per-sample
blocked layout ``(N, C*K*K, OH*OW)`` (:func:`im2col_blocked`), one copy
of a zero-copy ``as_strided`` window view for any input strides.
``_im2col_loop`` / ``_col2im_loop`` are the seed's slice loops in the
row-major ``(N*OH*OW, C*K*K)`` layout, kept as test oracles.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro import obs

__all__ = [
    "channel_major",
    "im2col_blocked",
    "col2im_blocked",
    "conv2d_cols_shape",
    "conv2d",
    "conv2d_backward",
    "max_pool2d",
    "max_pool2d_backward",
    "avg_pool2d",
    "avg_pool2d_backward",
    "relu",
    "relu_backward",
    "softmax",
    "log_softmax",
]


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool window sweep."""
    return (size + 2 * pad - kernel) // stride + 1


def channel_major(x: np.ndarray) -> np.ndarray:
    """The C-contiguous ``(C, H, W, N)`` buffer of an ``(N, C, H, W)`` array.

    A view when ``x`` already has the batch-innermost memory format (the
    output of another ``repro.nn`` kernel); otherwise one copy, counted in
    ``nn.layout.repacks``.  ``buffer.transpose(3, 0, 1, 2)`` is the way
    back and never copies.
    """
    buffer = x.transpose(1, 2, 3, 0)
    if buffer.flags.c_contiguous:
        return buffer
    obs.metrics().counter("nn.layout.repacks").inc()
    return np.ascontiguousarray(buffer)


def _pad2d(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes (cheaper than generic ``np.pad``)."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = x
    return out


def _window_view(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Zero-copy ``(N, C, K, K, OH, OW)`` sliding-window view of a padded input."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(n, c, kernel, kernel, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )


def im2col_blocked(
    x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold into the per-sample blocked ``(N, C*K*K, OH*OW)`` layout.

    This layout is a free reshape of the contiguous window copy — no
    transpose-gather — and keeps each sample's windows together, which is
    what the pooling kernels reduce over.  Returns ``(cols, (oh, ow))``.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    view = _window_view(_pad2d(x, pad), kernel, stride)
    cols = np.ascontiguousarray(view).reshape(n, c * kernel * kernel, oh * ow)
    return cols, (oh, ow)


def col2im_blocked(
    cols: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col_blocked`: fold ``(N, C*K*K, OH*OW)`` back.

    The kernel-position slices here are contiguous reads, which makes the
    scatter-add memory-bandwidth bound instead of gather-bound.
    """
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    windows = cols.reshape(n, c, kernel, kernel, oh, ow)
    return _scatter_windows(windows, x_shape, kernel, stride, pad)


def _scatter_windows(
    windows: np.ndarray, x_shape: tuple, kernel: int, stride: int, pad: int
) -> np.ndarray:
    """Sum ``(N, C, K, K, OH, OW)`` window gradients back onto the input grid."""
    n, c, h, w = x_shape
    oh, ow = windows.shape[4], windows.shape[5]
    x = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=windows.dtype)
    for ky in range(kernel):
        y_max = ky + stride * oh
        for kx in range(kernel):
            x_max = kx + stride * ow
            if ky == 0 and kx == 0:
                # The accumulator starts at zero: plain assignment saves a
                # full read pass over the largest array.
                x[:, :, :y_max:stride, :x_max:stride] = windows[:, :, 0, 0]
            else:
                x[:, :, ky:y_max:stride, kx:x_max:stride] += windows[:, :, ky, kx]
    if pad > 0:
        return x[:, :, pad : pad + h, pad : pad + w]
    return x


def _im2col_loop(x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Seed ``kernel^2``-slice im2col (test oracle)."""
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")

    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for ky in range(kernel):
        y_max = ky + stride * oh
        for kx in range(kernel):
            x_max = kx + stride * ow
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_max:stride, kx:x_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1)


def _col2im_loop(
    cols: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Seed ``kernel^2``-slice col2im (test oracle)."""
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)

    x = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kernel):
        y_max = ky + stride * oh
        for kx in range(kernel):
            x_max = kx + stride * ow
            x[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if pad > 0:
        return x[:, :, pad : pad + h, pad : pad + w]
    return x


def _im2col_channel_major(
    x: np.ndarray, kernel: int, stride: int, pad: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold a ``(C, H, W, N)`` buffer into the ``(C*k*k, OH*OW*N)`` column matrix.

    ``k*k`` slice copies of the zero-padded input, into ``out`` when given.
    A 1x1 stride-1 kernel needs no copy: the (padded) input reshaped is
    the column matrix and ``out`` is left untouched.  Returns
    ``(cols, (oh, ow))``.
    """
    c, h, w, n = x.shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    if pad:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
        padded[:, pad : pad + h, pad : pad + w] = x
        x = padded
    if kernel == 1 and stride == 1:
        return x.reshape(c, -1), (oh, ow)
    if out is None:
        out = np.empty((c * kernel * kernel, oh * ow * n), dtype=x.dtype)
    windows = out.reshape(c, kernel, kernel, oh, ow, n)
    for ky in range(kernel):
        rows = slice(ky, ky + stride * oh, stride)
        for kx in range(kernel):
            windows[:, ky, kx] = x[:, rows, kx : kx + stride * ow : stride]
    return out, (oh, ow)


def conv2d_cols_shape(x_shape: tuple, kernel: int, stride: int = 1, pad: int = 0):
    """Shape of the column buffer :func:`conv2d` fills for an ``x_shape`` input.

    ``None`` for a 1x1 stride-1 kernel, which reads its input as the
    column matrix and fills nothing.
    """
    if kernel == 1 and stride == 1:
        return None
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    return (c * kernel * kernel, oh * ow * n)


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
    cols_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """2-D convolution. ``weight`` is ``(C_out, C_in, K, K)``.

    Returns ``(output, cols)``: the output in the batch-innermost memory
    format and the ``(C*K*K, OH*OW*N)`` column matrix that
    :func:`conv2d_backward` takes — the forward builds it once per batch
    and :class:`repro.nn.modules.Conv2d` threads it through, so backward
    never re-derives columns.  ``cols_out`` lets the caller supply that
    buffer (a pooled scratch lease of :func:`conv2d_cols_shape`) instead
    of allocating it per batch.  For a 1x1 stride-1 kernel ``cols`` is a
    view of the input's buffer.
    """
    n = x.shape[0]
    c_out, _, k, _ = weight.shape
    cols, (oh, ow) = _im2col_channel_major(channel_major(x), k, stride, pad, out=cols_out)
    out = weight.reshape(c_out, -1) @ cols  # (c_out, oh*ow*n)
    if bias is not None:
        out += bias[:, None]
    return out.reshape(c_out, oh, ow, n).transpose(3, 0, 1, 2), cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple,
    weight: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    with_bias: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d` given its column matrix.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    unless ``with_bias`` is set.  ``grad_weight`` is one GEMM of the
    gradient against ``cols`` (the sum over the batch happens inside it)
    and ``grad_x`` is one more:

    - at stride 1 the input gradient is itself a stride-1 convolution —
      of ``grad_out``, zero-padded by ``k - 1 - pad``, with the kernel
      flipped and its channel axes swapped — so it is an im2col of the
      gradient (``k*k`` slice copies) and a GEMM, with no scatter;
    - at larger strides it is the column gradient ``W.T @ g``, folded
      back onto the input grid by ``k*k`` strided slice adds.  This
      branch **writes over** ``cols`` (dead once ``grad_weight`` has read
      it), so it allocates nothing the size of the columns.
    """
    c_out, c_in, k, _ = weight.shape
    n, _, h, w = x_shape
    g = channel_major(grad_out)
    oh, ow = g.shape[1], g.shape[2]
    g_mat = g.reshape(c_out, -1)

    # (cols @ g.T).T rather than g @ cols.T: same product, but OpenBLAS
    # runs the tall-output shape 1.3-2x faster at these channel counts.
    grad_weight = (cols @ g_mat.T).T.reshape(weight.shape)
    grad_bias = g_mat.sum(axis=1) if with_bias else None

    if stride == 1 and pad < k:
        flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
        g_cols, _ = _im2col_channel_major(g, k, 1, k - 1 - pad)
        grad_x = (flipped @ g_cols).reshape(c_in, h, w, n)
    else:
        windows = np.matmul(weight.reshape(c_out, -1).T, g_mat, out=cols)
        windows = windows.reshape(c_in, k, k, oh, ow, n)
        grad_x = np.zeros((c_in, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
        for ky in range(k):
            rows = slice(ky, ky + stride * oh, stride)
            for kx in range(k):
                grad_x[:, rows, kx : kx + stride * ow : stride] += windows[:, ky, kx]
        if pad:
            grad_x = np.ascontiguousarray(grad_x[:, pad : pad + h, pad : pad + w])
    return grad_x.transpose(3, 0, 1, 2), grad_weight, grad_bias


def max_pool2d(
    x: np.ndarray, kernel: int, stride: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling. Returns ``(output, argmax)`` with argmax cached for backward.

    ``argmax`` is ``(N, C, OH*OW)`` holding flat ``ky*K + kx`` window
    positions (ties resolve to the first maximum, as in the seed kernel).
    """
    n, c, h, w = x.shape
    cols, (oh, ow) = im2col_blocked(x, kernel, stride or kernel, 0)
    windows = cols.reshape(n, c, kernel * kernel, oh * ow)
    argmax = windows.argmax(axis=2)  # (n, c, oh*ow)
    out = np.take_along_axis(windows, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    return out.reshape(n, c, oh, ow), argmax


def max_pool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int | None = None,
) -> np.ndarray:
    """Backward pass of :func:`max_pool2d` — route gradients to the argmax."""
    stride = stride or kernel
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)

    grad_windows = np.zeros((n, c, kernel * kernel, oh * ow), dtype=grad_out.dtype)
    np.put_along_axis(
        grad_windows, argmax[:, :, None, :], grad_out.reshape(n, c, 1, -1), axis=2
    )
    return col2im_blocked(
        grad_windows.reshape(n, c * kernel * kernel, oh * ow), x_shape, kernel, stride, 0
    )


def avg_pool2d(x: np.ndarray, kernel: int, stride: int | None = None) -> np.ndarray:
    """Average pooling over non-overlapping (or strided) windows."""
    n, c, h, w = x.shape
    cols, (oh, ow) = im2col_blocked(x, kernel, stride or kernel, 0)
    out = cols.reshape(n, c, kernel * kernel, oh * ow).mean(axis=2)
    return out.reshape(n, c, oh, ow)


def avg_pool2d_backward(
    grad_out: np.ndarray, x_shape: tuple, kernel: int, stride: int | None = None
) -> np.ndarray:
    """Backward pass of :func:`avg_pool2d` — spread gradients uniformly."""
    stride = stride or kernel
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    grad = grad_out.reshape(n, c, 1, oh * ow) / (kernel * kernel)
    grad_windows = np.broadcast_to(grad, (n, c, kernel * kernel, oh * ow))
    return col2im_blocked(
        grad_windows.reshape(n, c * kernel * kernel, oh * ow), x_shape, kernel, stride, 0
    )


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Backward pass of :func:`relu` given the forward input."""
    return grad_out * (x > 0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
