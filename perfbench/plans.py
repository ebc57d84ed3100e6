"""Seeded input generators.

Every input a workload feeds the program is a pure function of the
``--seed`` argument and the golden table, so one seed always yields the
same kernels, designs and request sequence.  Designs are named by their
signature (``Design.signature()``); the runners map signatures back to
``Design`` objects of each kernel's default design space.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Tuple

#: designs analysed and predicted per kernel in one ``catalog`` pass
DESIGNS_PER_KERNEL = 8
#: seeded designs per kernel that ``serve-mixed`` adds to the
#: reference sample to form its set of distinct requests
SERVE_EXTRA_PER_KERNEL = 2
#: requests per distinct request in ``serve-mixed``: 5 means 80% of the
#: sequence repeats an earlier request
SERVE_REPEAT_FACTOR = 5
#: Zipf exponent of request popularity
ZIPF_EXPONENT = 1.0


def catalog_plan(seed: int, golden) -> List[Tuple[str, List[str]]]:
    """Kernel order and designs of a ``catalog`` pass.

    Each kernel gets its reference sample (one design per feasible
    work-group size, so every pass analyses the same configurations)
    topped up to :data:`DESIGNS_PER_KERNEL` with seeded draws from the
    rest of its feasible space.
    """
    rng = random.Random(f"catalog:{seed}")
    names = golden.names()
    rng.shuffle(names)
    plan = []
    for name in names:
        reference = sorted(golden.reference(name))
        rest = sorted(set(golden.feasible(name)) - set(reference))
        extra = max(0, DESIGNS_PER_KERNEL - len(reference))
        signatures = reference + rng.sample(rest, min(len(rest), extra))
        rng.shuffle(signatures)
        plan.append((name, signatures))
    return plan


def dse_order(seed: int, golden) -> List[str]:
    """Kernel order of a ``dse-sweep`` pass (the sweep itself is the
    full default space of every kernel, whatever the seed)."""
    names = golden.names()
    random.Random(f"dse-sweep:{seed}").shuffle(names)
    return names


def serve_plan(seed: int, golden
               ) -> Tuple[List[Tuple[str, str]], List[int]]:
    """Distinct ``/predict`` requests and the sequence they are sent in.

    The distinct requests are every kernel's reference sample plus
    :data:`SERVE_EXTRA_PER_KERNEL` seeded designs.  The sequence is
    :data:`SERVE_REPEAT_FACTOR` times longer: each distinct request
    appears first at a seeded position, and every other slot repeats an
    already-sent request drawn with Zipf weights over a seeded
    popularity order.  Returns ``(requests, sequence)`` where
    *requests* holds ``(kernel, signature)`` pairs and *sequence*
    indexes into it.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    requests: List[Tuple[str, str]] = []
    for name in golden.names():
        reference = sorted(golden.reference(name))
        rest = sorted(set(golden.feasible(name)) - set(reference))
        extra = rng.sample(rest, min(len(rest), SERVE_EXTRA_PER_KERNEL))
        requests.extend((name, sig) for sig in reference + extra)
    rng.shuffle(requests)
    popularity = list(range(len(requests)))
    rng.shuffle(popularity)

    slots = ([True] * len(requests)
             + [False] * (SERVE_REPEAT_FACTOR - 1) * len(requests))
    rng.shuffle(slots)
    first_new = slots.index(True)
    slots[0], slots[first_new] = True, slots[0]

    sequence: List[int] = []
    cumulative: List[float] = []
    total = 0.0
    for new in slots:
        if new:
            introduced = len(cumulative)
            total += 1.0 / (popularity[introduced] + 1) ** ZIPF_EXPONENT
            cumulative.append(total)
            sequence.append(introduced)
        else:
            sequence.append(bisect.bisect_right(cumulative,
                                                rng.random() * total))
    return requests, sequence
