"""Analytical FIFO channel model for kernel-to-kernel pipes.

A channel couples a producer stage and a consumer stage through a
bounded FIFO of ``depth`` elements.  Three effects matter for latency:

- **II inflation on rate mismatch**: once the FIFO reaches steady
  state, both stages advance at the slower side's token rate.  The
  faster stage's effective initiation interval inflates by the rate
  ratio (it blocks on full/empty for the difference).
- **Stall events**: the co-execution interpreter
  (:class:`repro.interp.ProgramExecutor`) counts one stall per blocked
  scheduling turn.  For matched-rate single-work-item stages moving
  ``T`` tokens through a depth-``D`` FIFO under its producer-first
  round-robin, both sides block exactly ``ceil(T / D) - 1`` turns:
  the producer fills the FIFO, the scheduler hands over, the consumer
  drains it — each full FIFO handoff beyond the first costs one
  blocked turn per side.  :func:`coexec_stalls` is that closed form,
  and the ground-truth tests hold the interpreter to it.
- **Handshake overhead**: each stall event costs the blocked side a
  re-check cycle in hardware (the FIFO's not-full/not-empty flag is
  registered), so shallow FIFOs tax throughput even at matched rates.

The graph integrator (:mod:`repro.model.graph`) prices a pipe edge
with :func:`channel_model` and folds the result into the overlapped
end-to-end latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: cycles a blocked side loses per stall event (registered FIFO flags:
#: one cycle to observe not-full / not-empty after the peer moves)
STALL_HANDSHAKE_CYCLES = 1.0


def coexec_stalls(tokens: int, depth: int) -> int:
    """Blocked scheduling turns per side for a matched-rate
    single-work-item producer/consumer pair moving *tokens* through a
    depth-*depth* FIFO under the round-robin co-execution scheduler."""
    if tokens <= 0:
        return 0
    depth = max(1, depth)
    return max(0, math.ceil(tokens / depth) - 1)


@dataclass(frozen=True)
class ChannelModelResult:
    """Analytical judgement of one channel for one design point."""

    channel: str
    depth: int
    #: tokens crossing the channel over the whole launch
    tokens: int
    elem_bytes: int
    #: producer / consumer cycles per token, each side running alone
    producer_cycles_per_token: float
    consumer_cycles_per_token: float
    #: effective-II inflation factors (>= 1) once the FIFO throttles
    #: the faster side to the slower side's rate
    ii_inflation_producer: float
    ii_inflation_consumer: float
    #: handshake cycles lost to full/empty stalls (depth-sensitive)
    stall_cycles: float

    @property
    def bram_bytes(self) -> int:
        """On-chip storage the FIFO occupies."""
        return self.depth * self.elem_bytes

    @property
    def balanced(self) -> bool:
        return (self.ii_inflation_producer <= 1.0
                and self.ii_inflation_consumer <= 1.0)


def channel_model(name: str, depth: int, tokens: int, elem_bytes: int,
                  producer_cycles: float,
                  consumer_cycles: float) -> ChannelModelResult:
    """Judge one channel: *producer_cycles* / *consumer_cycles* are the
    standalone stage latencies (cycles to produce / consume all
    *tokens*); the FIFO couples them into a single steady-state rate.
    """
    depth = max(1, depth)
    tokens = max(0, tokens)
    if tokens == 0:
        return ChannelModelResult(
            channel=name, depth=depth, tokens=0, elem_bytes=elem_bytes,
            producer_cycles_per_token=0.0, consumer_cycles_per_token=0.0,
            ii_inflation_producer=1.0, ii_inflation_consumer=1.0,
            stall_cycles=0.0)
    c_p = producer_cycles / tokens
    c_c = consumer_cycles / tokens
    # The faster side inflates to the slower side's per-token time.
    infl_p = max(1.0, c_c / c_p) if c_p > 0 else 1.0
    infl_c = max(1.0, c_p / c_c) if c_c > 0 else 1.0
    # Stall events follow the co-execution shape: every full-FIFO
    # handoff beyond the first blocks each side once.  At mismatched
    # rates only the faster side keeps hitting the boundary, but the
    # event count is bounded by the same ceil(T/D) - 1 form.
    stalls = coexec_stalls(tokens, depth)
    return ChannelModelResult(
        channel=name, depth=depth, tokens=tokens, elem_bytes=elem_bytes,
        producer_cycles_per_token=c_p, consumer_cycles_per_token=c_c,
        ii_inflation_producer=infl_p, ii_inflation_consumer=infl_c,
        stall_cycles=2.0 * stalls * STALL_HANDSHAKE_CYCLES)
