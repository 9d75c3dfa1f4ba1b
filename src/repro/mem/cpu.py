"""Trace-driven out-of-order core model.

USIMM-style: each core replays a trace of (non-memory-instruction gap,
memory access) records. Non-memory instructions retire at the retire
width; loads occupy the reorder buffer until their data returns, so the
core stalls when the ROB fills behind an outstanding miss. Writes drain
through a write buffer and never block retirement.

This reproduces the property the paper's slowdown numbers depend on:
memory-bound workloads (high MPKI) feel added memory latency (the
RIT's 4 cycles, channel-blocking swaps) far more than compute-bound
ones.

The core reads its trace as columnar blocks: a
:class:`~repro.workloads.trace.TraceChunks` source is used as is, and
any other iterable of :class:`TraceRecord` is packed into blocks once
(:func:`~repro.workloads.trace.records_to_blocks`). Each block's
addresses are decoded in one :meth:`AddressMapper.decode_batch` call,
and :meth:`Core.issue` hands out a fresh :class:`MemoryRequest`
carrying its :class:`~repro.dram.address.DecodedAddress`. A core built
with ``mapper=None`` never issues: the compiled block loop drives it
and decodes the raw blocks itself, so none of that is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional, Tuple, Union

import numpy as np

from repro.dram.address import AddressMapper, DecodedAddress
from repro.mem.request import MemoryRequest
from repro.workloads.trace import (
    TRACE_BLOCK_DTYPE,
    TraceChunks,
    TraceRecord,
    records_to_blocks,
)

_EMPTY: tuple = ()


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Core parameters (paper Table 2)."""

    clock_ghz: float = 3.2
    rob_size: int = 192
    retire_width: int = 4

    @property
    def cycle_ns(self) -> float:
        """Duration of one core cycle in nanoseconds."""
        return 1.0 / self.clock_ghz


class Core:
    """One trace-driven core feeding the memory system."""

    __slots__ = (
        "core_id",
        "config",
        "time_ns",
        "instructions_retired",
        "_inst_issued",
        "_outstanding",
        "_has_pending",
        "_pending_gap",
        "_pending_issue_ns",
        "_exhausted",
        "_cycle_ns",
        "_retire_width",
        "_rob_size",
        "_source",
        "_mapper",
        "_idx",
        "_len",
        "_gaps",
        "_addrs",
        "_writes",
        "_chans",
        "_ranks",
        "_banks",
        "_rows",
        "_cols",
        "_block",
    )

    def __init__(
        self,
        core_id: int,
        trace: Union[Iterable[TraceRecord], TraceChunks],
        config: Optional[CoreConfig] = None,
        *,
        mapper: Optional[AddressMapper],
    ) -> None:
        self.core_id = core_id
        self.config = config if config is not None else CoreConfig()
        self.time_ns = 0.0
        self.instructions_retired = 0
        self._inst_issued = 0
        # Outstanding loads: (instruction index at issue, completion time).
        self._outstanding: Deque[Tuple[int, float]] = deque()
        self._has_pending = False
        self._pending_gap = 0
        self._pending_issue_ns: Optional[float] = None
        self._exhausted = False
        # Issue-time math runs once per request: cache the config
        # scalars (cycle_ns is a computing property).
        self._cycle_ns = self.config.cycle_ns
        self._retire_width = self.config.retire_width
        self._rob_size = self.config.rob_size

        if not isinstance(trace, TraceChunks):
            trace = TraceChunks(records_to_blocks(trace))
        self._source = trace
        self._mapper = mapper
        self._idx = -1  # first fetch pulls the first block
        self._len = 0
        self._gaps = self._addrs = self._writes = _EMPTY
        self._chans = self._ranks = self._banks = _EMPTY
        self._rows = self._cols = _EMPTY
        self._block = None
        if self._load_block():
            self._idx = 0
            self._has_pending = True
            self._pending_gap = int(self._block["gap"][0])

    # ------------------------------------------------------------------
    # System-loop interface
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the trace is fully replayed and loads drained."""
        return self._exhausted and not self._has_pending

    def next_issue_time(self) -> float:
        """Earliest time the core can present its next memory request.

        Computed once per pending record and cached: the computation
        pops satisfied ROB constraints, so recomputing after the pops
        would lose the stall and issue the request too early.
        """
        if not self._has_pending:
            return float("inf")
        if self._pending_issue_ns is None:
            self._pending_issue_ns = self._issue_time_for(self._pending_gap)
        return self._pending_issue_ns

    def issue(self) -> MemoryRequest:
        """Materialize the next memory request; advances core time."""
        if not self._has_pending:
            raise RuntimeError("no pending trace record to issue")
        issue_at = self._pending_issue_ns
        if issue_at is None:
            issue_at = self._issue_time_for(self._pending_gap)
        self.time_ns = issue_at
        self._inst_issued += self._pending_gap + 1
        idx = self._idx
        request = MemoryRequest(
            address=self._addrs[idx],
            is_write=self._writes[idx],
            core_id=self.core_id,
            arrival_ns=issue_at,
            instruction_index=self._inst_issued,
            decoded=DecodedAddress(
                channel=self._chans[idx],
                rank=self._ranks[idx],
                bank=self._banks[idx],
                row=self._rows[idx],
                column=self._cols[idx],
            ),
        )
        self._pending_issue_ns = None
        self._has_pending = False
        self._fetch()
        return request

    def complete(self, request: MemoryRequest) -> None:
        """Deliver a serviced request's completion back to the core."""
        if request.instruction_index > self.instructions_retired:
            self.instructions_retired = request.instruction_index
        if not request.is_write:
            self._outstanding.append(
                (request.instruction_index, request.completion_ns)
            )

    def drain(self) -> None:
        """Wait for every outstanding load (end-of-trace accounting)."""
        while self._outstanding:
            _, completion = self._outstanding.popleft()
            self.time_ns = max(self.time_ns, completion)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Core cycles elapsed so far."""
        return self.time_ns / self.config.cycle_ns

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        if self.time_ns <= 0.0:
            return 0.0
        return self.instructions_retired / self.cycles

    # ------------------------------------------------------------------
    # Snapshotable (repro.state). The position is the source's own
    # snapshot plus the index into the current block, so only sources
    # that implement ``snapshot_state`` (generator chunks) can be cut; a
    # packed record iterator cannot. The current block travels as its
    # raw gap/address/is_write columns (re-pulling it would need the
    # source rewound one block); restore re-derives the decoded views
    # with the mapper. The cached ``_pending_issue_ns`` must travel:
    # computing it popped satisfied ROB entries, so a restored core
    # that recomputed it would see a different ``_outstanding`` prefix.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        source_snapshot = getattr(self._source, "snapshot_state", None)
        if source_snapshot is None:
            from repro.state.protocol import NotSnapshotable

            raise NotSnapshotable(
                f"trace source {type(self._source).__name__} is not Snapshotable"
            )
        block = self._block
        return (
            self.time_ns,
            self.instructions_retired,
            self._inst_issued,
            list(self._outstanding),
            self._has_pending,
            self._pending_gap,
            self._pending_issue_ns,
            self._exhausted,
            self._idx,
            None
            if block is None
            else tuple(
                np.ascontiguousarray(block[name])
                for name in TRACE_BLOCK_DTYPE.names
            ),
            source_snapshot(),
        )

    def restore_state(self, state: tuple) -> None:
        (
            self.time_ns,
            self.instructions_retired,
            self._inst_issued,
            outstanding,
            self._has_pending,
            self._pending_gap,
            self._pending_issue_ns,
            self._exhausted,
            self._idx,
            columns,
            source_state,
        ) = state
        self._outstanding = deque(
            (index, completion) for index, completion in outstanding
        )
        if columns is not None:
            block = np.empty(len(columns[0]), dtype=TRACE_BLOCK_DTYPE)
            for name, column in zip(TRACE_BLOCK_DTYPE.names, columns):
                block[name] = column
            self._decode_block(block)
        self._source.restore_state(source_state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fetch(self) -> None:
        if self._exhausted:
            return
        idx = self._idx + 1
        if idx >= self._len:
            if not self._load_block():
                return
            idx = 0
        self._idx = idx
        self._has_pending = True
        self._pending_gap = self._gaps[idx]

    def _pull_block(self):
        """The source's next non-empty block, or None once exhausted."""
        block = self._source.next_block()
        while block is not None and len(block) == 0:
            block = self._source.next_block()
        if block is None:
            self._exhausted = True
            self._has_pending = False
        return block

    def _load_block(self) -> bool:
        """Pull and batch-decode the next columnar block."""
        block = self._pull_block()
        if block is None:
            return False
        self._decode_block(block)
        return True

    def _decode_block(self, block) -> None:
        """Adopt ``block`` as the current one, with every decoded view.

        ``tolist()`` converts every column to plain Python scalars once
        per block, so the per-request loop indexes lists of ints/bools.
        A core built without a mapper keeps only the raw block: the
        compiled loop drives it and decodes what it reads itself.
        """
        # The raw block is kept for the compiled block loop, which reads
        # its columns directly (repro.mem.block_kernel), and for
        # snapshots; issue() only ever reads the tolist() views below.
        self._block = block
        self._len = len(block)
        if self._mapper is None:
            return
        addresses = block["address"]
        self._gaps = block["gap"].tolist()
        self._addrs = addresses.tolist()
        self._writes = block["is_write"].tolist()
        columns = self._mapper.decode_batch(addresses)
        self._chans = columns.channel.tolist()
        self._ranks = columns.rank.tolist()
        self._banks = columns.bank.tolist()
        self._rows = columns.row.tolist()
        self._cols = columns.column.tolist()

    def _issue_time_for(self, gap: int) -> float:
        """When this record's memory access reaches the memory system.

        The gap instructions retire at ``retire_width`` per cycle; if
        the ROB window (issued minus oldest-incomplete instruction)
        would exceed ``rob_size``, the core first waits for old loads.
        """
        issue_at = self.time_ns + (gap / self._retire_width) * self._cycle_ns
        next_index = self._inst_issued + gap + 1
        outstanding = self._outstanding
        rob_size = self._rob_size
        while outstanding:
            oldest_index, oldest_completion = outstanding[0]
            if next_index - oldest_index < rob_size:
                break
            if oldest_completion > issue_at:
                issue_at = oldest_completion
            outstanding.popleft()
        return issue_at
