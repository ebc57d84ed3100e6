"""Off-chip global memory (DRAM) modelling (paper §3.4).

Global memory is banked DRAM with a row buffer per bank and
byte-interleaved data mapping.  A request costs one column command on a
row-buffer hit and three DRAM commands (precharge, activate, column) on
a miss, and the latency additionally depends on the preceding access
kind on the same channel — giving the eight patterns of Table 1.

Requests travel as columns (kind 0 = read, 1 = write):

- :mod:`repro.dram.mapping` — byte-interleaved address → (bank, row),
  one address at a time or every block of a request column at once
  (:meth:`BankMapping.locate_blocks`);
- :mod:`repro.dram.coalesce` — SDAccel-style automatic coalescing of
  consecutive reads/writes into wide AXI bursts
  (:func:`coalesce_packed`);
- :mod:`repro.dram.patterns` — Table 1 pattern classification
  (:func:`classify_packed`);
- :mod:`repro.dram.controller` — the timing controller the simulator
  executes and the micro-benchmarks profile, one (kind, bank, row)
  block access at a time;
- :mod:`repro.dram.microbench` — pattern-latency profiling
  (:class:`PatternLatencyTable` = the eight ΔT values of Table 1).

:func:`coalesce_stream` and :func:`classify_bank_stream` are the
request-object forms of the coalescer and the classifier, kept as the
reference the columnar forms are tested against.
"""

from repro.dram.mapping import BankMapping
from repro.dram.coalesce import (
    CoalescedRequest,
    coalesce_packed,
    coalesce_stream,
    coalescing_factor,
)
from repro.dram.patterns import (
    PATTERNS,
    AccessPattern,
    PatternCounts,
    classify_bank_stream,
    classify_packed,
)
from repro.dram.controller import DRAMController
from repro.dram.microbench import PatternLatencyTable, profile_pattern_latencies

__all__ = [
    "AccessPattern",
    "BankMapping",
    "CoalescedRequest",
    "DRAMController",
    "PATTERNS",
    "PatternCounts",
    "PatternLatencyTable",
    "classify_bank_stream",
    "classify_packed",
    "coalesce_packed",
    "coalesce_stream",
    "coalescing_factor",
    "profile_pattern_latencies",
]
