"""Physical-address to DRAM-coordinate mapping.

The mapper implements the open-page-friendly interleaving USIMM uses:
low-order bits select the byte within a line, then the channel, then the
bank, then the column (line within the row), and the high bits select
the row. Consecutive lines therefore stream within one row, and
consecutive rows of the same bank are ``channels * banks`` rows apart in
the physical address space — which is why the memory controller cannot
know DRAM adjacency without this mapping, one of the paper's arguments
against victim-focused mitigation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from repro.dram.config import DRAMConfig


def _log2_exact(value: int, name: str) -> int:
    bits = value.bit_length() - 1
    if value <= 0 or (1 << bits) != value:
        raise ValueError(f"{name} must be a power of two, got {value}")
    return bits


@dataclass(frozen=True, slots=True)
class DecodedAddress:
    """DRAM coordinates for one physical address."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def bank_key(self) -> tuple:
        """Hashable identity of the bank this address lives in."""
        return (self.channel, self.rank, self.bank)


class DecodedColumns(NamedTuple):
    """Columnar result of :meth:`AddressMapper.decode_batch`.

    One int64 array per DRAM coordinate, plus ``flat_bank`` — the
    system-wide bank ordinal ``(channel * ranks + rank) * banks + bank``
    that indexes :attr:`AddressMapper.bank_key_table`.
    """

    channel: np.ndarray
    rank: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray
    flat_bank: np.ndarray


class AddressMapper:
    """Bidirectional physical-address <-> (channel, rank, bank, row, col)."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self._line_bits = _log2_exact(config.line_size_bytes, "line size")
        self._channel_bits = _log2_exact(config.channels, "channel count")
        self._rank_bits = _log2_exact(config.ranks_per_channel, "rank count")
        self._bank_bits = _log2_exact(config.banks_per_rank, "bank count")
        self._column_bits = _log2_exact(config.lines_per_row, "lines per row")
        self._row_bits = _log2_exact(config.rows_per_bank, "rows per bank")
        # decode() runs once per request in the simulator's inner loop:
        # fold the field layout into absolute shift/mask pairs so a
        # decode is five shift-and-mask operations with no config
        # attribute traffic.
        self._channel_shift = self._line_bits
        self._rank_shift = self._channel_shift + self._channel_bits
        self._bank_shift = self._rank_shift + self._rank_bits
        self._column_shift = self._bank_shift + self._bank_bits
        self._row_shift = self._column_shift + self._column_bits
        self._channel_mask = config.channels - 1
        self._rank_mask = config.ranks_per_channel - 1
        self._bank_mask = config.banks_per_rank - 1
        self._column_mask = config.lines_per_row - 1
        self._row_mask = config.rows_per_bank - 1
        # Shared (channel, rank, bank) tuples indexed by the flat bank
        # ordinal: the compiled loop hands these to the mitigation
        # instead of building a fresh tuple per event.
        self.bank_key_table: Tuple[Tuple[int, int, int], ...] = tuple(
            (channel, rank, bank)
            for channel in range(config.channels)
            for rank in range(config.ranks_per_channel)
            for bank in range(config.banks_per_rank)
        )

    # repro-oracle: address-decode -- oracle
    def decode(self, address: int) -> DecodedAddress:
        """Split a physical byte address into DRAM coordinates."""
        if address < 0:
            raise ValueError("address must be non-negative")
        return DecodedAddress(
            channel=(address >> self._channel_shift) & self._channel_mask,
            rank=(address >> self._rank_shift) & self._rank_mask,
            bank=(address >> self._bank_shift) & self._bank_mask,
            row=(address >> self._row_shift) & self._row_mask,
            column=(address >> self._column_shift) & self._column_mask,
        )

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (byte offset within the line is 0)."""
        bits = decoded.row
        bits = (bits << self._column_bits) | decoded.column
        bits = (bits << self._bank_bits) | decoded.bank
        bits = (bits << self._rank_bits) | decoded.rank
        bits = (bits << self._channel_bits) | decoded.channel
        return bits << self._line_bits

    # repro-oracle: address-decode -- kernel
    def decode_batch(self, addresses: np.ndarray) -> DecodedColumns:
        """Vectorized :meth:`decode` over an int64 address array.

        Element-for-element identical to the scalar method (the
        property test in ``tests/dram`` asserts it); the whole batch is
        five shift-and-mask passes plus the flat-bank combine.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("address must be non-negative")
        channel = (addresses >> self._channel_shift) & self._channel_mask
        rank = (addresses >> self._rank_shift) & self._rank_mask
        bank = (addresses >> self._bank_shift) & self._bank_mask
        row = (addresses >> self._row_shift) & self._row_mask
        column = (addresses >> self._column_shift) & self._column_mask
        flat_bank = (channel << (self._rank_bits + self._bank_bits)) | (
            rank << self._bank_bits
        ) | bank
        return DecodedColumns(
            channel=channel,
            rank=rank,
            bank=bank,
            row=row,
            column=column,
            flat_bank=flat_bank,
        )

    def encode_batch(
        self,
        channel: np.ndarray,
        rank: np.ndarray,
        bank: np.ndarray,
        row: np.ndarray,
        column: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`encode` over coordinate arrays (int64)."""
        bits = np.asarray(row, dtype=np.int64)
        bits = (bits << self._column_bits) | column
        bits = (bits << self._bank_bits) | bank
        bits = (bits << self._rank_bits) | rank
        bits = (bits << self._channel_bits) | channel
        return bits << self._line_bits

    def row_address(self, channel: int, rank: int, bank: int, row: int) -> int:
        """Physical address of the first line of a given row."""
        return self.encode(
            DecodedAddress(channel=channel, rank=rank, bank=bank, row=row, column=0)
        )
