"""Table 4: FPGA resource utilization of the selection kernel on the KU15P.

Paper values: LUT 67.53%, FF 23.14%, BRAM 50.30%, DSP 42.67% of the
KU15P's 432k LUTs / 919k FFs / 738 BRAMs / 1962 DSPs.
"""

import pytest

from repro.smartssd.fpga import KU15P
from repro.smartssd.kernel import KernelConfig, SelectionKernel

from benchmarks._shared import write_table

PAPER_TABLE4 = {"LUT": 67.53, "FF": 23.14, "BRAM": 50.30, "DSP": 42.67}
PAPER_AVAILABLE = {"LUT": 432_000, "FF": 919_000, "BRAM": 738, "DSP": 1962}


def synthesize():
    kernel = SelectionKernel()
    return kernel.utilization_percent(), kernel.resource_usage()


def test_table4_resource_utilization():
    util, used = synthesize()

    lines = ["Table 4: resource utilization (KU15P)"]
    lines.append(f"{'Resource':9s} {'Available':>10s} {'Used':>9s} {'Util%(ours)':>12s} {'Util%(paper)':>13s}")
    for res in ("LUT", "FF", "BRAM", "DSP"):
        lines.append(
            f"{res:9s} {PAPER_AVAILABLE[res]:>10,d} {used[res]:>9,d} "
            f"{util[res]:12.2f} {PAPER_TABLE4[res]:13.2f}"
        )
    write_table("table4_resources", lines)

    for res, paper in PAPER_TABLE4.items():
        assert util[res] == pytest.approx(paper, abs=1.0), res


def test_table4_available_column_matches_paper():
    fpga = KU15P()
    assert fpga.luts == PAPER_AVAILABLE["LUT"]
    assert fpga.flip_flops == PAPER_AVAILABLE["FF"]
    assert fpga.bram_blocks == PAPER_AVAILABLE["BRAM"]
    assert fpga.dsp_slices == PAPER_AVAILABLE["DSP"]


def test_table4_kernel_leaves_headroom():
    """The kernel must fit with margin — a >95% LUT design won't route."""
    util, _ = synthesize()
    assert all(v < 90.0 for v in util.values())


def test_table4_similarity_tile_respects_onchip_memory():
    """Partition chunks are sized so the similarity tile fits 4.32 MB."""

    def tile_check():
        kernel = SelectionKernel()
        side = kernel.max_chunk_for_onchip()
        return side, kernel.chunk_tile_bytes(side)

    side, tile_bytes = tile_check()
    assert tile_bytes <= KU15P().onchip_bytes
    # The defaults give usable chunks (hundreds of samples, not tens).
    assert side >= 256


def test_table4_bigger_array_fails_synthesis():
    """Pushing the MAC array past the DSP budget must fail like synthesis."""

    def try_oversize():
        try:
            SelectionKernel(KernelConfig(mac_array_pes=2200))
            return False
        except ValueError:
            return True

    assert try_oversize()
