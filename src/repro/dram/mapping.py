"""Byte-interleaved data mapping across DRAM banks.

"To reduce the bank conflicts, the data stored in the DRAM are arranged
in byte-interleaved manner across all the banks" (paper §3.4): the
address space is split into interleave-granularity blocks dealt
round-robin to banks; within a bank, consecutive blocks fill rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class BankMapping:
    """Address decomposition for an interleaved, banked DRAM."""

    num_banks: int
    row_bytes: int
    interleave_bytes: int

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("need at least one bank")
        if self.row_bytes % self.interleave_bytes != 0:
            raise ValueError("row size must be a multiple of the "
                             "interleave granularity")

    @classmethod
    def for_device(cls, device) -> "BankMapping":
        return cls(num_banks=device.dram_banks,
                   row_bytes=device.dram_row_bytes,
                   interleave_bytes=device.dram_interleave_bytes)

    def bank_of(self, addr: int) -> int:
        """Bank index, with XOR swizzling.

        Plain modulo interleaving maps element *i* of every page-aligned
        buffer to the same bank (allocators align buffers to 4KB), so
        multi-buffer kernels would thrash a single bank.  Memory
        controllers fold higher address bits into the bank index to
        break that pathology; we use the standard bank-XOR scheme.
        """
        block = addr // self.interleave_bytes
        return _swizzle(block) % self.num_banks

    def row_of(self, addr: int) -> int:
        """The row index within the bank holding *addr*."""
        block = addr // self.interleave_bytes
        block_within_bank = block // self.num_banks
        blocks_per_row = self.row_bytes // self.interleave_bytes
        return block_within_bank // blocks_per_row

    def locate(self, addr: int) -> Tuple[int, int]:
        """(bank, row) of a byte address."""
        return self.bank_of(addr), self.row_of(addr)

    def locate_blocks(self, addr: np.ndarray, nbytes: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every interleave block the requests ``(addr, nbytes)`` cover,
        as ``(first, bank, row)``: request *i* covers blocks
        ``first[i]:first[i + 1]`` (a zero-byte request covers its first
        block, like a one-byte one) and block *j* lies in row ``row[j]``
        of bank ``bank[j]``."""
        ib = self.interleave_bytes
        start = addr // ib
        count = (addr + np.maximum(nbytes, 1) - 1) // ib - start + 1
        first = np.zeros(count.shape[0] + 1, np.int64)
        np.cumsum(count, out=first[1:])
        blocks = np.repeat(start - first[:-1], count) \
            + np.arange(int(first[-1]))
        bank = _swizzle(blocks) % self.num_banks
        row = blocks // self.num_banks // (self.row_bytes // ib)
        return first, bank, row


def _swizzle(block):
    """The bank-XOR fold of a block index (an int or an array)."""
    return block ^ (block >> 3) ^ (block >> 6)
