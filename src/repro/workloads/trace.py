"""Trace record format, columnar blocks, and (de)serialization.

A trace is a sequence of post-LLC memory accesses, each preceded by a
count of non-memory instructions — the same shape as USIMM's trace
format. Traces can be streamed from generators (the normal path) or
round-tripped through a simple text format for inspection and reuse.

Two equivalent representations exist:

* **scalar** — an iterator of :class:`TraceRecord` tuples, one Python
  object per access (file readers, quick scripts, inspection);
* **columnar** — an iterator of numpy structured arrays
  (:data:`TRACE_BLOCK_DTYPE` blocks) wrapped in :class:`TraceChunks`,
  the form the simulator's cores read (a record stream is packed into
  it once).

The two carry identical data: :func:`iter_block` and
:func:`records_to_blocks` convert between them without loss, and a
:class:`TraceChunks` instance is itself iterable as ``TraceRecord``
tuples so every scalar consumer keeps working.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional, Union

import numpy as np

# One block of the columnar representation: field-for-field the same
# data a TraceRecord carries. int64 addresses cover the full physical
# address space of any modelled geometry (< 2^48 bytes).
TRACE_BLOCK_DTYPE = np.dtype(
    [("gap", np.int64), ("address", np.int64), ("is_write", np.bool_)]
)

# Rows per columnar block. Generators draw their RNG batches at this
# granularity, so it is also the unit at which chunked and scalar
# streams are guaranteed to stay draw-for-draw identical.
TRACE_BLOCK_RECORDS = 4096


class TraceRecord(NamedTuple):
    """One trace entry: ``instruction_gap`` non-memory instructions,
    then a memory access to ``address`` (read or write)."""

    instruction_gap: int
    address: int
    is_write: bool


def iter_block(block: np.ndarray) -> Iterator[TraceRecord]:
    """Yield one :class:`TraceRecord` per row of a columnar block.

    ``tolist()`` converts each column once, so iteration deals in plain
    Python ints/bools — the exact types the scalar API produces.
    """
    gaps = block["gap"].tolist()
    addresses = block["address"].tolist()
    writes = block["is_write"].tolist()
    for gap, address, is_write in zip(gaps, addresses, writes):
        yield TraceRecord(gap, address, is_write)


def records_to_blocks(
    records: Iterable[TraceRecord],
    block_records: int = TRACE_BLOCK_RECORDS,
) -> Iterator[np.ndarray]:
    """Pack a scalar record stream into columnar blocks."""
    if block_records <= 0:
        raise ValueError("block_records must be positive")
    buffer: List[TraceRecord] = []
    for record in records:
        buffer.append(record)
        if len(buffer) == block_records:
            yield np.array(buffer, dtype=TRACE_BLOCK_DTYPE)
            buffer = []
    if buffer:
        yield np.array(buffer, dtype=TRACE_BLOCK_DTYPE)


class TraceChunks:
    """A columnar trace: an iterator of :data:`TRACE_BLOCK_DTYPE` blocks.

    The form a :class:`~repro.mem.cpu.Core` reads: whole blocks, each
    address-decoded in one batch. A core handed plain records wraps
    them as ``TraceChunks(records_to_blocks(records))``. It also
    iterates as plain :class:`TraceRecord` tuples, so any scalar
    consumer sees the identical stream.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[np.ndarray]) -> None:
        self._blocks = iter(blocks)

    def next_block(self) -> Optional[np.ndarray]:
        """The next columnar block, or None when the trace is done."""
        return next(self._blocks, None)

    def __iter__(self) -> Iterator[TraceRecord]:
        for block in self._blocks:
            yield from iter_block(block)


def write_trace(path: Union[str, Path], records: Iterable[TraceRecord]) -> int:
    """Write records as ``gap R|W 0xADDR`` lines; returns record count."""
    count = 0
    with open(path, "w") as handle:
        for record in records:
            kind = "W" if record.is_write else "R"
            handle.write(f"{record.instruction_gap} {kind} 0x{record.address:x}\n")
            count += 1
    return count


def read_trace_chunks(
    path: Union[str, Path], block_records: int = TRACE_BLOCK_RECORDS
) -> TraceChunks:
    """Stream a trace file as a columnar :class:`TraceChunks` source."""
    return TraceChunks(records_to_blocks(read_trace(path), block_records))


def read_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records back from a file written by :func:`write_trace`."""
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[1] not in ("R", "W"):
                raise ValueError(f"{path}:{line_number}: malformed trace line {line!r}")
            yield TraceRecord(
                instruction_gap=int(parts[0]),
                address=int(parts[2], 16),
                is_write=parts[1] == "W",
            )
