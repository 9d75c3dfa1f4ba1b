"""DRAM geometry and timing configuration (paper Table 2).

All times are integer nanoseconds unless the name says otherwise. The
default instance reproduces the paper's baseline: DDR4-3200, 2 channels,
1 rank/channel, 16 banks/rank, 128K rows/bank of 8KB each (32GB total),
tRCD-tRP-tCAS = 14-14-14ns, tRC = 45ns, tRFC = 350ns, tREFI = 7.8us,
and a 64ms refresh window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import KB, NS_PER_MS


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry plus timing of one memory system.

    The derived properties (``acts_per_refresh_window``, row/bank
    counts, transfer latencies) are the quantities the paper's analysis
    keys off, e.g. ACT_max = 1.36 million activations per bank per 64ms.
    """

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 16
    rows_per_bank: int = 128 * 1024
    row_size_bytes: int = 8 * KB
    line_size_bytes: int = 64

    # Timing (ns).
    t_rcd: int = 14
    t_rp: int = 14
    t_cas: int = 14
    t_rc: int = 45
    t_rfc: int = 350
    t_refi: int = 7_800
    refresh_window_ns: int = 64 * NS_PER_MS
    # Row-open minimum (ACT->PRE). 0 means "derive as tRC - tRP", which
    # keeps any custom timing set self-consistent (tRC = tRAS + tRP).
    t_ras: int = 0
    # Rank-level ACT spacing windows. The simulator does not model
    # rank-level ACT scheduling, so these default to 0 ("unmodeled");
    # the protocol sanitizer checks them only when set positive.
    t_rrd: int = 0
    t_faw: int = 0

    # Bus: DDR4-3200 — 1.6GHz bus clock, data on both edges, 8B/beat.
    bus_clock_ghz: float = 1.6
    bus_bytes_per_beat: int = 8

    def __post_init__(self) -> None:
        if self.rows_per_bank <= 0 or self.banks_per_rank <= 0:
            raise ValueError("geometry fields must be positive")
        if self.row_size_bytes % self.line_size_bytes != 0:
            raise ValueError("row size must be a whole number of lines")
        if self.t_rc < self.t_rcd:
            raise ValueError("tRC cannot be below tRCD")
        if self.t_ras < 0 or self.t_rrd < 0 or self.t_faw < 0:
            raise ValueError("timing windows cannot be negative")
        if self.t_ras and self.t_ras + self.t_rp > self.t_rc:
            raise ValueError("tRAS + tRP cannot exceed tRC")

    @property
    def t_ras_ns(self) -> int:
        """Effective tRAS: the explicit value, else tRC - tRP (31ns for
        the paper's 14-14-14/45 timing)."""
        return self.t_ras if self.t_ras else self.t_rc - self.t_rp

    @property
    def banks_total(self) -> int:
        """Banks across all channels and ranks."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def lines_per_row(self) -> int:
        """Cache lines in one DRAM row (128 for 8KB rows / 64B lines)."""
        return self.row_size_bytes // self.line_size_bytes

    @property
    def capacity_bytes(self) -> int:
        """Total memory capacity in bytes."""
        return self.banks_total * self.rows_per_bank * self.row_size_bytes

    @property
    def row_id_bits(self) -> int:
        """Bits needed to name a row within a bank (17 for 128K rows)."""
        return (self.rows_per_bank - 1).bit_length()

    @property
    def line_transfer_ns(self) -> float:
        """Time to move one cache line over the data bus.

        At DDR data rate the bus moves ``bus_bytes_per_beat`` twice per
        bus-clock cycle; a 64B line therefore takes 4 bus cycles (2.5ns)
        on DDR4-3200, matching the paper's streaming arithmetic.
        """
        beats = self.line_size_bytes / self.bus_bytes_per_beat
        return beats / (2 * self.bus_clock_ghz)

    @property
    def row_stream_ns(self) -> float:
        """Time to stream a whole row between DRAM and a swap buffer.

        tRC for the activation plus back-to-back line transfers. The
        paper quotes ~365ns for an 8KB row on DDR4-3200.
        """
        return self.t_rc + self.lines_per_row * self.line_transfer_ns

    @property
    def row_swap_ns(self) -> float:
        """Latency of one full row swap (4 row transfers, ~1.46us)."""
        return 4 * self.row_stream_ns

    @property
    def refresh_overhead_fraction(self) -> float:
        """Fraction of wall time a rank spends in refresh (tRFC/tREFI)."""
        return self.t_rfc / self.t_refi

    @property
    def acts_per_refresh_window(self) -> int:
        """Max activations per bank in one refresh window (ACT_max).

        Activations are gated by tRC; time spent in refresh is deducted.
        For the default config this is ~1.36 million, the paper's A.
        """
        usable = self.refresh_window_ns * (1.0 - self.refresh_overhead_fraction)
        return int(usable // self.t_rc)

    def scaled(self, factor: int) -> "DRAMConfig":
        """Return a config whose refresh window is ``1/factor`` as long.

        Used by timing benches to run shorter epochs: swap *rates* per
        unit time are preserved when thresholds are scaled alongside
        (see DESIGN.md section 5).
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return DRAMConfig(
            channels=self.channels,
            ranks_per_channel=self.ranks_per_channel,
            banks_per_rank=self.banks_per_rank,
            rows_per_bank=self.rows_per_bank,
            row_size_bytes=self.row_size_bytes,
            line_size_bytes=self.line_size_bytes,
            t_rcd=self.t_rcd,
            t_rp=self.t_rp,
            t_cas=self.t_cas,
            t_rc=self.t_rc,
            t_rfc=self.t_rfc,
            t_refi=self.t_refi,
            refresh_window_ns=self.refresh_window_ns // factor,
            t_ras=self.t_ras,
            t_rrd=self.t_rrd,
            t_faw=self.t_faw,
            bus_clock_ghz=self.bus_clock_ghz,
            bus_bytes_per_beat=self.bus_bytes_per_beat,
        )


DDR4_3200_DEFAULT = DRAMConfig()
