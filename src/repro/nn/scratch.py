"""The zero counts ``benchmarks/e2e/job.py`` reads as ``nn.scratch_reuse_frac``.

No ``repro`` code pools buffers any more, so :func:`scratch_pool` reports
no reuse and no allocation.  ROADMAP 8(b) deletes that read from the
harness, and then this module.
"""

from types import SimpleNamespace

__all__ = ["scratch_pool"]


def scratch_pool() -> SimpleNamespace:
    """An object whose ``stats`` holds zero ``reuses`` and ``allocations``."""
    return SimpleNamespace(stats={"reuses": 0, "allocations": 0})
