"""Samsung SmartSSD model: NAND + KU15P FPGA + PCIe links.

The paper's storage-side results are bandwidth/byte/resource arithmetic
over the SmartSSD's components; this package models each one in closed
form:

- :mod:`repro.smartssd.nand` — the 3.84 TB NAND flash array.
- :mod:`repro.smartssd.link` — the P2P SSD↔FPGA link (3 GB/s peak, the
  Figure 6 saturation curve) and the conventional host path (1.4 GB/s).
- :mod:`repro.smartssd.fpga` — the Kintex KU15P resource/clock/power model.
- :mod:`repro.smartssd.kernel` — the selection kernel's resource mapping
  (Table 4) and cycle model.
- :mod:`repro.smartssd.dram` — the on-board DRAM embedding cache.
- :mod:`repro.smartssd.device` — the composed device with data-movement
  accounting.
- :mod:`repro.smartssd.access` — the scan and gather access patterns of a
  NeSSA epoch, priced request by request on the NAND + link models.
"""

from repro.smartssd.access import (
    AccessPattern,
    IORequest,
    ReplayCost,
    replay,
    selection_scan_pattern,
    subset_gather_pattern,
)
from repro.smartssd.device import DataMovement, SmartSSD
from repro.smartssd.dram import CachePlan, EmbeddingCache
from repro.smartssd.fpga import FPGASpec, KU15P
from repro.smartssd.kernel import KernelConfig, SelectionKernel
from repro.smartssd.link import LinkModel, host_path_link, p2p_link
from repro.smartssd.nand import NANDFlash

__all__ = [
    "EmbeddingCache",
    "CachePlan",
    "NANDFlash",
    "LinkModel",
    "p2p_link",
    "host_path_link",
    "FPGASpec",
    "KU15P",
    "KernelConfig",
    "SelectionKernel",
    "SmartSSD",
    "DataMovement",
    "IORequest",
    "AccessPattern",
    "ReplayCost",
    "selection_scan_pattern",
    "subset_gather_pattern",
    "replay",
]
