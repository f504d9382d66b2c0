"""The seed's ``kernel^2``-slice im2col / col2im, kept as test oracles.

Both work in the row-major ``(N*OH*OW, C*K*K)`` column layout, so a conv
is ``cols @ weight.reshape(C_out, -1).T`` and its input gradient is
``col2im_loop(g_rows @ weight_matrix, ...)``.  The row-operator conv in
:mod:`repro.nn.functional` is tested against them, and
``TestSeedOracles`` checks that the pair are adjoint.
"""

import numpy as np


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def im2col_loop(x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Seed ``kernel^2``-slice im2col."""
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


def col2im_loop(
    cols: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Seed ``kernel^2``-slice col2im, the adjoint of :func:`im2col_loop`."""
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
