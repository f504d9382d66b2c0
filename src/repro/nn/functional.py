"""Low-level numpy kernels: convolution by row operator, activations.

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
to backward is its channel-major input and the operator, not the row
buffer and not a ``(C*k*k, OH*OW*N)`` column matrix: backward rebuilds
the zero-row-padded rows with one copy.  The input is held by
reference, so when a ReLU feeds the conv (as in every ResNet block) the
activation between them is one array that both caches share, and
nothing may write into a conv's input after forward.  An unpadded 1x1
kernel only mixes channels (its row operator would be ``W`` times the
useful MACs), so it is a ``(C_out, C)`` GEMM over the ``(C, OH*OW*N)``
pixels, which at stride 1 are the input's own buffer.
"""

from __future__ import annotations

import numpy as np

from repro import obs

__all__ = [
    "channel_major",
    "row_operator",
    "row_windows",
    "conv2d",
    "conv2d_backward",
    "relu",
    "relu_backward",
    "softmax",
    "log_softmax",
]


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv window sweep."""
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
    operands.  Built directly with the ``np.ndarray`` constructor rather
    than through numpy's sliding-window helper, whose argument handling
    costs more than a small conv's GEMM.
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
    then one copy back to ``(C_out, OH, OW, N)``.  The cache is the
    channel-major input (:func:`channel_major`, a view of ``x`` when it
    has the batch-innermost format) and the operator; the row buffer is
    dropped on return.  An unpadded 1x1 kernel only mixes channels, so it
    stays a ``(C_out, C)`` GEMM over the ``(C, OH*OW*N)`` pixels — at
    stride 1 the input's own buffer, which is then the cache.
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

    op = row_operator(weight, stride, pad, w)
    windows = row_windows(_padded_rows(src, pad), k, stride, 0, oh)
    by_row = np.matmul(op, windows)  # (oh, c_out*ow, n)
    by_row = by_row.reshape(oh, c_out, ow, n).transpose(1, 0, 2, 3)
    out = np.empty((c_out, oh, ow, n), dtype=by_row.dtype)
    if bias is None:
        out[...] = by_row
    else:
        np.add(by_row, bias[:, None, None, None], out=out)
    return out.transpose(3, 0, 1, 2), (src, op)


def _padded_rows(src: np.ndarray, pad: int) -> np.ndarray:
    """The ``(H+2*pad, C, W, N)`` row buffer of a ``(C, H, W, N)`` input: one copy."""
    c, h, w, n = src.shape
    rows = np.empty((h + 2 * pad, c, w, n), dtype=src.dtype)
    rows[:pad] = 0
    rows[pad + h :] = 0
    rows[pad : pad + h] = src.transpose(1, 0, 2, 3)
    return rows


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
      batched ``matmul`` over zero-copy row blocks of the padded rows,
      rebuilt from the cached input with one copy, and
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

    src, op = cache
    g_rows = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(oh, c_out * ow, n)
    windows = row_windows(_padded_rows(src, pad), k, stride, 0, oh)
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


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Backward pass of :func:`relu` given the forward output (``out > 0`` iff ``x > 0``)."""
    return grad_out * (out > 0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
