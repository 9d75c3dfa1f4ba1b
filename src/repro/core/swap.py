"""Row-swap engine and swap buffers (paper Section 4.4).

A row swap streams both rows through two per-channel SRAM swap buffers:
Row-X -> Buffer-1, Row-Y -> Buffer-2, Buffer-1 -> Row-Y, Buffer-2 ->
Row-X — four whole-row transfers. With DDR4-3200 streaming (one 64B
line per 4 bus cycles after the 45ns activation) one transfer takes
~365ns, so one swap costs ~1.46us of channel-blocked time; a swap that
also evicts an RIT tuple un-swaps it back-to-back for ~2.9us; the worst
case (re-swap plus eviction) reaches ~4.4us.

The engine converts the RIT's physical operations into latency and
keeps the accounting the performance model charges to the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.dram.config import DRAMConfig


class _SwapFields(NamedTuple):
    phys_a: int
    phys_b: int
    kind: str  # "swap" | "unswap"


class SwapOp(_SwapFields):
    """One physical row exchange (a swap or a lazy-eviction un-swap).

    The constructor checks ``kind``; the RIT, which only ever passes
    its own two constants, builds ops unchecked with ``SwapOp._make``.
    """

    __slots__ = ()

    def __new__(cls, phys_a: int, phys_b: int, kind: str) -> "SwapOp":
        if kind not in ("swap", "unswap"):
            raise ValueError("kind must be 'swap' or 'unswap'")
        return super().__new__(cls, phys_a, phys_b, kind)


@dataclass
class SwapBuffer:
    """One per-channel SRAM row buffer used for swap staging."""

    size_bytes: int
    holder: int = -1  # physical row currently staged, -1 when empty

    def load(self, row: int) -> None:
        """Stage a row's contents (DRAM -> SRAM stream)."""
        self.holder = row

    def store(self) -> int:
        """Write the staged contents back out (SRAM -> DRAM stream)."""
        if self.holder < 0:
            raise RuntimeError("swap buffer is empty")
        row, self.holder = self.holder, -1
        return row

    def snapshot_state(self) -> tuple:
        return (self.holder,)

    def restore_state(self, state: tuple) -> None:
        (self.holder,) = state


class SwapEngine:
    """Executes swap operations and accounts their channel-block time."""

    def __init__(
        self, config: DRAMConfig = DRAMConfig(), latency_scale: float = 1.0
    ) -> None:
        if latency_scale <= 0:
            raise ValueError("latency scale must be positive")
        self.config = config
        self.latency_scale = latency_scale
        # Latency of one physical row exchange (~1.46us on DDR4-3200),
        # divided by ``latency_scale`` on time-scaled runs so the
        # blocked *fraction* of the (shortened) epoch matches full scale.
        self.op_latency_ns = config.row_swap_ns / latency_scale
        self.buffer_1 = SwapBuffer(size_bytes=config.row_size_bytes)
        self.buffer_2 = SwapBuffer(size_bytes=config.row_size_bytes)
        self.ops_executed = 0
        self.total_blocked_ns = 0.0
        # Observability hook (repro.obs): called with (op, latency_ns)
        # for every executed exchange. Read-only — the latency math
        # above is already final when the observer fires.
        self.observer = None

    def execute(self, ops: Iterable[SwapOp]) -> float:
        """Perform a batch of exchanges; returns total blocked time.

        Models the four-transfer choreography through the two swap
        buffers for each operation; the channel cannot service requests
        during the streaming, which is why the returned duration gets
        charged as a channel block by the memory controller.
        """
        total = 0.0
        latency = self.op_latency_ns
        buffer_1, buffer_2 = self.buffer_1, self.buffer_2
        observer = self.observer
        for op in ops:
            buffer_1.load(op.phys_a)
            buffer_2.load(op.phys_b)
            # Buffer-1 (old A data) lands in B's frame and vice versa.
            buffer_1.store()
            buffer_2.store()
            total += latency
            self.ops_executed += 1
            if observer is not None:
                observer(op, latency)
        self.total_blocked_ns += total
        return total

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): the buffers drain within execute(),
    # so between requests only the accounting (and the staged-row
    # markers, always -1 at a cut) is live.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.ops_executed,
            self.total_blocked_ns,
            self.buffer_1.holder,
            self.buffer_2.holder,
        )

    def restore_state(self, state: tuple) -> None:
        (
            self.ops_executed,
            self.total_blocked_ns,
            self.buffer_1.holder,
            self.buffer_2.holder,
        ) = state
