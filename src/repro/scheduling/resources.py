"""Resource budgets visible to one processing element."""

from __future__ import annotations

from dataclasses import dataclass

from repro.latency.optable import DSP_COST, OpClass


@dataclass(frozen=True)
class ResourceBudget:
    """Per-PE resource constraints used by the schedulers.

    Port counts are per-cycle issue widths (BRAM accepts one access per
    port per cycle; the AXI master accepts one outstanding global issue
    per direction per cycle).  The DSP budget limits concurrently
    *in-flight* DSP-consuming operations.
    """

    local_read_ports: int = 2
    local_write_ports: int = 2
    global_read_ports: int = 1
    global_write_ports: int = 1
    dsp_budget: int = 220

    def issue_limit(self, cls: OpClass) -> int:
        """Per-cycle issue limit of an op class; 0 means unconstrained."""
        if cls == OpClass.LOCAL_READ:
            return self.local_read_ports
        if cls == OpClass.LOCAL_WRITE:
            return self.local_write_ports
        if cls in (OpClass.GLOBAL_ISSUE, OpClass.ATOMIC):
            # Reads and writes share per-direction AXI issue slots; the
            # schedulers treat the class as one slot per cycle per
            # direction and ask the instruction kind for the direction.
            return self.global_read_ports + self.global_write_ports
        return 0

    @property
    def ports(self) -> tuple:
        """Every field :meth:`issue_limit` reads: all the schedulers see
        of the budget besides ``dsp_budget``."""
        return (self.local_read_ports, self.local_write_ports,
                self.global_read_ports, self.global_write_ports)

    def dsp_cost(self, cls: OpClass) -> int:
        return DSP_COST[cls]

    @classmethod
    def for_pe(cls, device, num_pe: int = 1,
               num_cu: int = 1) -> "ResourceBudget":
        """The budget of a single PE when the device is divided among
        *num_cu* compute units of *num_pe* PEs each."""
        share = max(num_pe * num_cu, 1)
        return cls(
            local_read_ports=device.local_read_ports,
            local_write_ports=device.local_write_ports,
            global_read_ports=1,
            global_write_ports=1,
            dsp_budget=max(device.dsp_total // share, 1),
        )
