"""Ablation: feedback quantization bit width (§3.2.1).

The paper quantizes the feedback weights to keep the FPGA kernel fast and
the transfer small, accepting a little proxy error.  This bench sweeps
the bit width and reports: payload bytes (the transfer the host link
pays) and the proxy-ranking agreement with fp32 feedback (how much of
the selection signal quantization destroys).
"""

import numpy as np
import pytest

from repro.core.feedback import FeedbackLoop
from repro.nn.resnet import resnet20
from repro.selection.gradients import compute_gradient_proxies

from benchmarks._shared import cached_data, write_table

BITS = [4, 8, 16, 32]


def factory():
    return resnet20(num_classes=10, width=6, seed=5)


def proxy_agreement():
    """Spearman-style rank agreement of per-sample proxy norms vs fp32."""
    train, _ = cached_data("cifar10")
    source = factory()
    x, y = train.x[:256], train.y[:256]

    reference = None
    out = {}
    for bits in sorted(BITS, reverse=True):
        loop = FeedbackLoop(factory, bits=bits)
        payload = loop.sync(source)
        proxies = compute_gradient_proxies(loop.replica, x, y)
        norms = np.linalg.norm(proxies.vectors, axis=1)
        if reference is None:
            reference = norms
        rank_a = np.argsort(np.argsort(reference))
        rank_b = np.argsort(np.argsort(norms))
        rho = float(np.corrcoef(rank_a, rank_b)[0, 1])
        out[bits] = (payload, rho)
    return out


def test_ablation_quantization_bits():
    results = proxy_agreement()

    lines = ["Ablation: feedback quantization bit width"]
    lines.append(f"{'bits':>5s} {'payload(B)':>11s} {'rank agreement':>15s}")
    for bits in BITS:
        payload, rho = results[bits]
        lines.append(f"{bits:>5d} {payload:>11,d} {rho:>15.4f}")
    write_table("ablation_quantization", lines)

    # Payload shrinks with bits.
    assert results[4][0] < results[8][0] < results[16][0] < results[32][0]
    # int8 preserves nearly all of the selection signal...
    assert results[8][1] > 0.95
    # ...and more bits never lose signal.
    assert results[16][1] >= results[8][1] - 0.02
    # int4 is measurably worse than int8 (why the paper uses 8).
    assert results[4][1] <= results[8][1] + 1e-6


def test_ablation_int8_payload_is_quarter_of_fp32():
    def payloads():
        src = factory()
        return (
            FeedbackLoop(factory, bits=8).sync(src),
            FeedbackLoop(factory, bits=32).sync(src),
        )

    p8, p32 = payloads()
    assert p8 == pytest.approx(p32 / 4, rel=0.2)
