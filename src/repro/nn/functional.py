"""Low-level numpy kernels: convolution by row operator, pooling, activations.

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
``order='K'`` keeps the operands' common strides.

**Convolution.**  Training and the eval-only
:class:`repro.nn.inference.InferencePlan` run one formulation.  Inside
the conv the activations are rows outermost, ``(rows, C, W, N)``, so the
``k`` input rows an output row reads are one contiguous ``(k*C*W, N)``
slab and :func:`row_windows` is a zero-copy view of all of them.  The
:func:`row_operator` is the ``(C_out*OW, k*C*W)`` matrix that maps such
a slab to one output row, the width's zero padding built in as zero
columns; it is rebuilt from the kernel every forward (no state, no
index maps: :func:`_taps` writes each kernel column as one strided
diagonal).  Forward copies the input once into a zero-row-padded
``(H+2*pad, C, W, N)`` buffer, runs one broadcast ``matmul`` of the
operator against the windows and copies the result back to
``(C_out, OH, OW, N)``.  Backward is two more broadcast ``matmul``
calls over the same windows: ``Σ_oy g_row · window_rowᵀ`` is the
operator's gradient, summed back onto the kernel along the same
diagonals, and ``opᵀ @ g_rows`` is each output row's gradient on its
``k`` input rows, folded onto the row grid by ``k`` strided row adds at
either stride.  What :class:`repro.nn.modules.Conv2d` holds from forward
to backward is the row buffer and the operator, not a
``(C*k*k, OH*OW*N)`` column matrix.  An unpadded 1x1 kernel only mixes
channels (its row operator would be ``W`` times the useful MACs), so it
is a ``(C_out, C)`` GEMM over the ``(C, OH*OW*N)`` pixels, which at
stride 1 are the input's own buffer.

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
    "row_operator",
    "row_windows",
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


def row_operator(weight: np.ndarray, stride: int, pad: int, width: int) -> np.ndarray:
    """The ``(C_out*OW, k*C*W)`` row operator of a ``(C_out, C, k, k)`` kernel.

    It maps ``k`` consecutive input rows, flattened from ``(k, C, W)``, to
    one output row flattened from ``(C_out, OW)``, for inputs ``width``
    columns wide.  The width's zero padding is zero columns of it; the
    height's is the caller's (zero rows in the buffer).  Built with one
    strided assignment per kernel column (:func:`_taps`), in ``weight``'s
    dtype.
    """
    c_out, c, k, _ = weight.shape
    ow = _out_size(width, k, stride, pad)
    op = np.zeros((c_out, ow, k, c, width), dtype=weight.dtype)
    for kx, taps in _taps(op, stride, pad):
        taps[...] = weight[:, None, :, :, kx].transpose(0, 1, 3, 2)
    return op.reshape(c_out * ow, k * c * width)


def _taps(op: np.ndarray, stride: int, pad: int):
    """Yield ``(kx, view)``: the entries of ``op`` that hold kernel column ``kx``.

    ``op`` is a C-contiguous ``(C_out, OW, k, C, W)`` operator.  Output
    column ``ox`` reads input column ``ox*stride - pad + kx``, so for a
    fixed ``kx`` the entries ``op[:, ox, :, :, ox*stride - pad + kx]`` over
    the ``ox`` whose column is inside the image are a strided diagonal: one
    zero-copy ``(C_out, n, k, C)`` view, yielded only when ``n > 0``.
    """
    c_out, ow, k, c, w = op.shape
    s_co, s_ox, s_ky, s_c, s_ix = op.strides
    for kx in range(k):
        first = max(0, -((kx - pad) // stride))  # smallest ox with ix >= 0
        stop = min(ow, (w - 1 + pad - kx) // stride + 1)  # past the last with ix < w
        if stop > first:
            offset = first * s_ox + (first * stride - pad + kx) * s_ix
            strides = (s_co, s_ox + stride * s_ix, s_ky, s_c)
            yield kx, np.ndarray((c_out, stop - first, k, c), op.dtype, op, offset, strides)


def row_windows(rows: np.ndarray, k: int, stride: int, first: int, oh: int) -> np.ndarray:
    """The ``(OH, k*C*W, N)`` input blocks of a C-contiguous ``(rows, C, W, N)`` buffer.

    Block ``oy`` is rows ``first + oy*stride`` to ``... + k - 1``: with the
    batch innermost they are one contiguous ``(k*C*W, N)`` slab, so the
    blocks are a zero-copy view that ``np.matmul`` takes as ``OH`` GEMM
    operands.  Built directly rather than through ``sliding_window_view``,
    whose argument handling costs more than a small conv's GEMM.
    """
    row, _, column, item = rows.strides
    shape = (oh, k * rows.shape[1] * rows.shape[2], rows.shape[3])
    return np.ndarray(shape, rows.dtype, rows, first * row, (stride * row, column, item))


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
) -> tuple[np.ndarray, object]:
    """2-D convolution. ``weight`` is ``(C_out, C_in, K, K)``.

    Returns ``(output, cache)``: the output in the batch-innermost memory
    format and what :func:`conv2d_backward` needs, which
    :class:`repro.nn.modules.Conv2d` holds per batch.  The input is copied
    once into a ``(H+2*pad, C, W, N)`` row buffer (zero rows for the
    height's padding) and each output row is the :func:`row_operator`
    times a zero-copy block of ``k`` input rows: one broadcast ``matmul``,
    then one copy back to ``(C_out, OH, OW, N)``.  The cache is the row
    buffer and the operator.  An unpadded 1x1 kernel only mixes channels,
    so it stays a ``(C_out, C)`` GEMM over the ``(C, OH*OW*N)`` pixels —
    at stride 1 the input's own buffer, which is then the cache.
    """
    c_out, c_in, k, _ = weight.shape
    src = channel_major(x)
    _, h, w, n = src.shape
    oh = _out_size(h, k, stride, pad)
    ow = _out_size(w, k, stride, pad)
    if k == 1 and pad == 0:
        pixels = src if stride == 1 else np.ascontiguousarray(src[:, ::stride, ::stride])
        out = weight.reshape(c_out, c_in) @ pixels.reshape(c_in, -1)
        if bias is not None:
            out += bias[:, None]
        return out.reshape(c_out, oh, ow, n).transpose(3, 0, 1, 2), pixels

    rows = np.empty((h + 2 * pad, c_in, w, n), dtype=x.dtype)
    rows[:pad] = 0
    rows[pad + h :] = 0
    rows[pad : pad + h] = src.transpose(1, 0, 2, 3)
    op = row_operator(weight, stride, pad, w)
    by_row = np.matmul(op, row_windows(rows, k, stride, 0, oh))  # (oh, c_out*ow, n)
    by_row = by_row.reshape(oh, c_out, ow, n).transpose(1, 0, 2, 3)
    out = np.empty((c_out, oh, ow, n), dtype=by_row.dtype)
    if bias is None:
        out[...] = by_row
    else:
        np.add(by_row, bias[:, None, None, None], out=out)
    return out.transpose(3, 0, 1, 2), (rows, op)


def conv2d_backward(
    grad_out: np.ndarray,
    cache,
    x_shape: tuple,
    weight: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    with_bias: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d` given its cache.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    unless ``with_bias`` is set.  With ``g_rows`` the gradient by output
    row, ``(OH, C_out*OW, N)``:

    - the operator's gradient is ``Σ_oy g_rows[oy] @ windows[oy].T``, one
      batched ``matmul`` over the forward's zero-copy row blocks, and
      ``grad_weight`` sums it back over the operator's diagonals
      (:func:`_taps`);
    - ``grad_x`` is ``op.T @ g_rows`` — each output row's gradient on its
      ``k`` input rows — added back onto the row grid by ``k`` strided
      row adds, at any stride.

    An unpadded 1x1 kernel takes the two GEMMs of its pointwise form and
    reads its cache without writing to it.
    """
    c_out, c_in, k, _ = weight.shape
    n, _, h, w = x_shape
    g = channel_major(grad_out)
    oh, ow = g.shape[1], g.shape[2]
    grad_bias = g.reshape(c_out, -1).sum(axis=1) if with_bias else None
    if k == 1 and pad == 0:
        pixels = cache.reshape(c_in, -1)
        g_mat = g.reshape(c_out, -1)
        # (pixels @ g.T).T rather than g @ pixels.T: same product, but
        # OpenBLAS runs the tall-output shape faster (DESIGN §3).
        grad_weight = (pixels @ g_mat.T).T.reshape(weight.shape)
        grad_pixels = (weight.reshape(c_out, c_in).T @ g_mat).reshape(c_in, oh, ow, n)
        grad_x = grad_pixels
        if stride > 1:
            grad_x = np.zeros((c_in, h, w, n), dtype=grad_pixels.dtype)
            grad_x[:, ::stride, ::stride] = grad_pixels
        return grad_x.transpose(3, 0, 1, 2), grad_weight, grad_bias

    rows, op = cache
    g_rows = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(oh, c_out * ow, n)
    windows = row_windows(rows, k, stride, 0, oh)
    grad_op = np.matmul(g_rows, windows.transpose(0, 2, 1)).sum(axis=0)
    grad_op = grad_op.reshape(c_out, ow, k, c_in, w)
    grad_weight = np.zeros(weight.shape, dtype=grad_op.dtype)
    for kx, taps in _taps(grad_op, stride, pad):
        taps.sum(axis=1, out=grad_weight[:, :, :, kx].transpose(0, 2, 1))

    grad_windows = np.matmul(op.T, g_rows).reshape(oh, k, -1)  # (oh, k, c_in*w*n)
    grad_rows = np.zeros((h + 2 * pad, c_in * w * n), dtype=grad_windows.dtype)
    for ky in range(k):
        grad_rows[ky : ky + stride * oh : stride] += grad_windows[:, ky]
    grad_x = grad_rows[pad : pad + h].reshape(h, c_in, w, n).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(grad_x).transpose(3, 0, 1, 2), grad_weight, grad_bias


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
