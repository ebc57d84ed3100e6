"""FPGA device descriptions.

A :class:`Device` bundles everything platform-specific the model and the
simulator need: fabric resources (DSPs, BRAM), local-memory port counts,
the DRAM configuration, the AXI memory-access unit width used for
coalescing, and a latency-scale knob that distinguishes 7-series from
UltraScale fabrics (used by the paper's robustness experiment).
"""

from repro.devices.device import Device, DRAMTiming
from repro.devices.catalog import DEVICE_NAMES, KU060, VIRTEX7, device_by_name

__all__ = ["DEVICE_NAMES", "Device", "DRAMTiming", "KU060", "VIRTEX7",
           "device_by_name"]
