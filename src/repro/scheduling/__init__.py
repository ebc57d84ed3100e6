"""Operation scheduling algorithms (paper §3.3.1).

- :func:`list_schedule` — resource-aware priority-ordered list scheduling
  (ASAP) used to estimate basic-block latencies.
- :func:`critical_path_depth` — the pipeline depth, summed block
  latencies along the CDFG critical path.
- :func:`compute_mii` — the minimum initiation interval,
  ``MII = max(RecMII, ResMII)`` (Eqs. 2–4).
- :func:`swing_modulo_schedule` — Swing Modulo Scheduling, refining the
  II above MII (starting no lower than :func:`issue_slot_bound`) until
  every resource constraint is met and producing the pipeline depth.
"""

from repro.scheduling.resources import ResourceBudget
from repro.scheduling.depth import critical_path_depth
from repro.scheduling.list_scheduler import ScheduleResult, list_schedule
from repro.scheduling.mii import (
    MIIBreakdown,
    compute_mii,
    compute_rec_mii,
    compute_res_mii,
    graph_rec_mii,
    res_mii_dsp,
)
from repro.scheduling.sms import (
    SMSResult,
    issue_slot_bound,
    sms_signature,
    swing_modulo_schedule,
)

__all__ = [
    "MIIBreakdown",
    "ResourceBudget",
    "SMSResult",
    "ScheduleResult",
    "compute_mii",
    "compute_rec_mii",
    "compute_res_mii",
    "critical_path_depth",
    "graph_rec_mii",
    "issue_slot_bound",
    "list_schedule",
    "res_mii_dsp",
    "sms_signature",
    "swing_modulo_schedule",
]
