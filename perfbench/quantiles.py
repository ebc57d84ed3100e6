"""Percentiles as the benchmark reports them.

Timings are summarised as a median and a *tail*: the highest of the
customary percentiles on :data:`TAIL_LADDER` that still has at least
:data:`TAIL_MIN_BEYOND` samples beyond it, so the tail is never decided
by one or two outliers.
Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ``ceil(p/100 * n)``, and the samples
beyond it are the ``n - ceil(p/100 * n)`` that rank above.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

#: percentiles the tail may be reported at, lowest first
TAIL_LADDER = ("50", "75", "80", "85", "90", "95", "99", "99.9", "99.99")
#: samples that must rank above the tail percentile
TAIL_MIN_BEYOND = 10


def _rank(p: str, n: int) -> int:
    """Nearest rank (1-based) of percentile *p* (a decimal string, so
    the arithmetic is exact) among *n* samples."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def samples_beyond(p: str, n: int) -> int:
    """How many of *n* samples rank above the *p*-th percentile."""
    return n - _rank(p, n)


def tail_percentile(n: int) -> str:
    """The highest ladder percentile with at least ten samples beyond
    it among *n* samples."""
    usable = [p for p in TAIL_LADDER
              if samples_beyond(p, n) >= TAIL_MIN_BEYOND]
    if not usable:
        raise ValueError(f"{n} samples are too few for a tail "
                         f"(need more than {2 * TAIL_MIN_BEYOND - 1})")
    return usable[-1]


def percentile(values: Sequence[float], p: str) -> float:
    """Nearest-rank *p*-th percentile of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def median_and_tail(values: Sequence[float]) -> Tuple[float, float, str]:
    """``(p50, tail value, tail percentile)`` of *values*."""
    p = tail_percentile(len(values))
    return percentile(values, "50"), percentile(values, p), p
