"""Concrete boards used in the paper's evaluation.

- ADM-PCIE-7V3: Xilinx Virtex-7 XC7VX690T + 16GB DDR3, 8 banks, 1KB
  row buffer (paper §4.1) — the primary platform.
- NAS-120A: Xilinx Kintex UltraScale KU060 — the robustness platform.
"""

from __future__ import annotations

from repro.devices.device import Device, DRAMTiming

VIRTEX7 = Device(
    name="ADM-PCIE-7V3 (XC7VX690T)",
    family="virtex7",
    clock_mhz=200.0,
    dsp_total=3600,
    bram_36k_total=1470,
    luts_total=433_200,
    local_banks=2,
    read_ports_per_bank=1,
    write_ports_per_bank=1,
    mem_access_unit_bits=512,
    dram_banks=8,
    dram_row_bytes=1024,
    dram_interleave_bytes=64,
    dram=DRAMTiming(),
    op_latency_scale=1.0,
    max_compute_units=8,
    schedule_overhead_cycles=40,
)

KU060 = Device(
    name="NAS-120A (XCKU060)",
    family="ultrascale",
    clock_mhz=200.0,
    dsp_total=2760,
    bram_36k_total=1080,
    luts_total=331_680,
    local_banks=2,
    read_ports_per_bank=1,
    write_ports_per_bank=1,
    mem_access_unit_bits=512,
    dram_banks=16,            # DDR4 has more banks (4 groups x 4)
    dram_row_bytes=1024,
    dram_interleave_bytes=64,
    dram=DRAMTiming(t_rcd=3, t_rp=3, t_cl=2, t_cwl=2, t_wr=4,
                    t_wtr=2, t_rtw=2, t_burst=1, t_overhead=17),
    op_latency_scale=0.85,    # UltraScale IP cores need fewer stages
    max_compute_units=8,
    schedule_overhead_cycles=36,
)

_CATALOG = {"virtex7": VIRTEX7, "ku060": KU060}

#: the short names :func:`device_by_name` accepts
DEVICE_NAMES = tuple(_CATALOG)


def device_by_name(name: str) -> Device:
    """Look up a device by short name ('virtex7' or 'ku060')."""
    key = name.lower()
    if key not in _CATALOG:
        raise KeyError(f"unknown device {name!r}; "
                       f"known: {sorted(_CATALOG)}")
    return _CATALOG[key]
