"""Xilinx (AMD) Kintex KU15P FPGA model — the SmartSSD's compute element.

Resource budgets follow the paper's Table 4 "Available" column (LUT 432k,
FF 919k, BRAM 738 blocks, DSP 1962) with the 4 GB on-board DRAM and
4.32 MB of on-chip memory quoted in Sections 2.2 and 3.2.3, and the
~7.5 W power envelope from Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FPGASpec", "KU15P"]

MB = 1e6


@dataclass(frozen=True)
class FPGASpec:
    """Resource and clock envelope of an FPGA part."""

    name: str
    luts: int
    flip_flops: int
    bram_blocks: int  # 36 Kb blocks
    dsp_slices: int
    onchip_bytes: float  # usable on-chip buffer memory
    dram_bytes: float  # on-board DDR
    clock_hz: float
    power_watts: float

    def __post_init__(self):
        if min(self.luts, self.flip_flops, self.bram_blocks, self.dsp_slices) <= 0:
            raise ValueError("resource counts must be positive")
        if self.clock_hz <= 0 or self.power_watts <= 0:
            raise ValueError("clock and power must be positive")

    def utilization(self, used: dict) -> dict:
        """Percent utilization for a ``{resource: count}`` usage map.

        Raises if any resource is over budget — a kernel that does not fit
        cannot be synthesized, and the model should fail the same way.
        """
        budget = {
            "LUT": self.luts,
            "FF": self.flip_flops,
            "BRAM": self.bram_blocks,
            "DSP": self.dsp_slices,
        }
        out = {}
        for key, amount in used.items():
            if key not in budget:
                raise KeyError(f"unknown resource {key!r}; options: {sorted(budget)}")
            if amount > budget[key]:
                raise ValueError(
                    f"{key} over budget: need {amount}, have {budget[key]}"
                )
            out[key] = 100.0 * amount / budget[key]
        return out


def KU15P() -> FPGASpec:
    """The SmartSSD's Kintex UltraScale+ KU15P, per the paper's Table 4."""
    return FPGASpec(
        name="xcku15p",
        luts=432_000,
        flip_flops=919_000,
        bram_blocks=738,
        dsp_slices=1962,
        onchip_bytes=4.32 * MB,
        dram_bytes=4e9,
        clock_hz=200e6,
        power_watts=7.5,
    )
