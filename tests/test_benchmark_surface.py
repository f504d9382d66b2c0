"""The surface ``benchmarks/e2e`` pins, checked in tier-1.

The benchmark's span shims patch ``vars(owner)[attr]``, so every entry
point they wrap must stay defined on the class or module that owns it
today: installing the shims raises ``KeyError`` as soon as one moves
(e.g. a trainer inheriting ``train`` instead of defining it).  Without
this test only the benchmark driver notices.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.e2e.shims import Shims  # noqa: E402


def test_shims_install_and_restore_cleanly():
    with Shims() as shims:
        patched = list(shims._saved)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
