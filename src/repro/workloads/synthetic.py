"""Synthetic workload generation calibrated to the paper's Table 3.

Two complementary products, matching the two measurement layers in
DESIGN.md §5:

* :class:`ActivationProfile` — full-scale per-bank *row activation
  streams* for one 64 ms window, used for epoch statistics (rows with
  800+ ACTs, swaps per window) where DDR timing is irrelevant.
* :class:`SyntheticTraceGenerator` — post-LLC :class:`TraceRecord`
  streams for the timing simulator, used for IPC/slowdown experiments,
  typically at a scaled epoch.

Calibration logic: the three Table 3 columns pin down the generator.
MPKI fixes the instruction gap between memory accesses; footprint fixes
the address range; the ACT-800+ row count fixes how many "hot" rows
rotate in a conflict-heavy pattern hot enough to cross the paper's 800
activations per window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List

import numpy as np

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.config import DRAMConfig
from repro.utils.rng import DeterministicRng
from repro.workloads.trace import (
    TRACE_BLOCK_DTYPE,
    TRACE_BLOCK_RECORDS,
    TraceChunks,
    TraceRecord,
    iter_block,
)

if TYPE_CHECKING:
    from repro.workloads.suites import WorkloadSpec

# Calibrated activation counts for a "hot" row per 64 ms window. The
# paper's Figure 5 shows roughly one swap (occasionally two) per
# ACT-800+ row per window, so hot rows draw uniformly from this range.
HOT_ACTS_LOW = 820
HOT_ACTS_HIGH = 1500

# Fraction of background (non-hot) accesses that cause an activation;
# open-page systems typically see 40-60% row-buffer hit rates.
BACKGROUND_ACT_FRACTION = 0.5

# Cycles one core runs in a full 64 ms window at 3.2GHz.
CYCLES_PER_WINDOW = int(0.064 * 3.2e9)

# Kept for backwards compatibility: instructions per window at IPC=1.
INSTRUCTIONS_PER_WINDOW = CYCLES_PER_WINDOW

# Fraction of background accesses that follow the sequential scan (the
# rest are uniform random). Scanning keeps per-row background
# activation counts near-deterministic, so the sharp hot/background
# separation of Table 3 survives threshold scaling, and yields the
# realistic row-buffer hit rates streaming access produces.
BACKGROUND_SCAN_FRACTION = 0.7

# Hot accesses arrive in bursts (phase behaviour): within a burst the
# hot rotation is accessed back-to-back, which is what makes
# BlockHammer's pacing delays bite (Figure 11).
BURST_HOT_PROBABILITY = 0.9

# Records per hot-heavy burst at the head of each burst cycle.
BURST_LENGTH = 64


class GeneratorChunks(TraceChunks):
    """A snapshotable columnar trace source backed by a generator.

    Serves the same block sequence as ``TraceChunks(gen.blocks(count))``
    — the position cursor advances by :data:`TRACE_BLOCK_RECORDS` per
    block with the final block truncated — but pulls each block lazily
    from the generator, so a checkpoint can capture "where the stream
    is" as (position, generator RNG/cursor state) and a restored source
    resumes on the exact next block.
    """

    __slots__ = ("_generator", "_count", "_position")

    def __init__(self, generator: "SyntheticTraceGenerator", count: int) -> None:
        if count < 0:
            raise ValueError("record count must be non-negative")
        self._generator = generator
        self._count = count
        self._position = 0

    def next_block(self):
        served = min(self._count, self._position)
        remaining = self._count - served
        if remaining <= 0:
            return None
        take = min(remaining, TRACE_BLOCK_RECORDS)
        block = self._generator._build_block(self._position, take)
        self._position += TRACE_BLOCK_RECORDS
        return block

    def __iter__(self):
        while True:
            block = self.next_block()
            if block is None:
                return
            yield from iter_block(block)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (self._position, self._generator.snapshot_state())

    def restore_state(self, state: tuple) -> None:
        position, generator_state = state
        self._position = position
        self._generator.restore_state(generator_state)


def estimated_ipc(mpki: float, peak: float = 4.0) -> float:
    """First-order IPC estimate from memory intensity.

    Fitted against this simulator's baseline runs; used to convert
    per-window calibration targets (activations per 64 ms) into
    per-access probabilities. IPC ~ peak/(1 + 0.15*MPKI), clamped.
    """
    return max(0.15, min(peak, peak / (1.0 + 0.15 * mpki)))


def workload_ipc(spec: "WorkloadSpec") -> float:
    """Best available baseline-IPC estimate for a workload.

    Prefers the measured ``ipc_hint`` baked into the suite table (see
    ``scripts/calibrate_ipc.py``), falling back to the MPKI formula.
    """
    if getattr(spec, "ipc_hint", 0.0):
        return spec.ipc_hint
    return estimated_ipc(spec.mpki)


@dataclass
class ActivationProfile:
    """Full-scale per-window activation statistics for one workload."""

    name: str
    hot_rows_per_bank: int
    hot_acts_low: int
    hot_acts_high: int
    background_acts_per_bank: int
    background_rows_per_bank: int

    @classmethod
    def from_spec(
        cls,
        spec: "WorkloadSpec",
        config: DRAMConfig = DRAMConfig(),
        cores: int = 8,
    ) -> "ActivationProfile":
        """Derive the per-bank activation profile from Table 3 columns."""
        banks = config.banks_total
        hot_per_bank = max(0, round(spec.act800_rows / banks))
        # Give small-but-nonzero workloads at least their paper rows by
        # concentrating them: if act800_rows < banks, hot rows live in
        # only some banks; we model the *average* bank and note it.
        footprint_rows = max(1, int(spec.footprint_gb * 1024**3 / config.row_size_bytes))
        background_rows = max(1, min(footprint_rows // banks, config.rows_per_bank // 2))

        instructions = CYCLES_PER_WINDOW * workload_ipc(spec)
        accesses_per_window = cores * instructions * spec.mpki / 1000.0
        hot_acts_total = spec.act800_rows * (HOT_ACTS_LOW + HOT_ACTS_HIGH) / 2.0
        background_accesses = max(0.0, accesses_per_window - hot_acts_total)
        background_acts = int(
            background_accesses * BACKGROUND_ACT_FRACTION / banks
        )
        # Respect the physical activation ceiling of a bank.
        act_ceiling = int(0.9 * config.acts_per_refresh_window)
        hot_acts_bank = hot_per_bank * (HOT_ACTS_LOW + HOT_ACTS_HIGH) // 2
        background_acts = min(background_acts, max(0, act_ceiling - hot_acts_bank))
        # Background rows must stay below the hot threshold — the
        # ACT-800+ count is the calibration target, so for tiny
        # footprints (hmmer) spread background over enough rows.
        if background_acts > 0:
            min_rows = background_acts // (HOT_ACTS_LOW - 120) + 1
            background_rows = min(
                max(background_rows, min_rows), config.rows_per_bank // 2
            )
        return cls(
            name=spec.name,
            hot_rows_per_bank=hot_per_bank,
            hot_acts_low=HOT_ACTS_LOW,
            hot_acts_high=HOT_ACTS_HIGH,
            background_acts_per_bank=background_acts,
            background_rows_per_bank=background_rows,
        )

    def bank_stream(
        self,
        rng: DeterministicRng,
        rows_per_bank: int = 128 * 1024,
        scale: int = 1,
    ) -> np.ndarray:
        """One window's row-activation sequence for a representative bank.

        ``scale`` divides both stream length and per-row counts, for use
        with a proportionally divided swap threshold (DESIGN.md §5).
        Returns an int64 array of row indices in issue order.
        """
        if scale < 1:
            raise ValueError("scale must be >= 1")
        gen = rng.generator
        pieces: List[np.ndarray] = []
        if self.hot_rows_per_bank > 0:
            hot_rows = gen.choice(
                rows_per_bank, size=self.hot_rows_per_bank, replace=False
            )
            counts = gen.integers(
                self.hot_acts_low // scale,
                max(self.hot_acts_high // scale, self.hot_acts_low // scale + 1),
                size=self.hot_rows_per_bank,
            )
            pieces.append(np.repeat(hot_rows, counts))
        background = self.background_acts_per_bank // scale
        if background > 0:
            rows = gen.integers(0, self.background_rows_per_bank, size=background)
            # Background rows occupy a contiguous region distinct from
            # most hot rows; collisions are harmless (they just add
            # activations to a hot row).
            pieces.append(rows.astype(np.int64) % rows_per_bank)
        if not pieces:
            return np.empty(0, dtype=np.int64)
        stream = np.concatenate(pieces).astype(np.int64)
        gen.shuffle(stream)
        return stream


class SyntheticTraceGenerator:
    """Post-LLC trace stream for one core of a rate-mode run.

    The stream interleaves two access classes:

    * **hammer accesses** rotate round-robin over this core's share of
      the workload's hot rows, two or more rows per bank so every access
      conflicts in the row buffer and costs an ACT;
    * **background accesses** touch lines spread over the footprint.

    The hot-access probability is derived so hot rows accumulate their
    calibrated activation count per (possibly scaled) window.
    """

    def __init__(
        self,
        spec: "WorkloadSpec",
        core_id: int,
        cores: int = 8,
        config: DRAMConfig = DRAMConfig(),
        seed: int = 0,
        time_scale: int = 1,
        write_fraction: float = 0.3,
    ) -> None:
        self.spec = spec
        self.core_id = core_id
        self.cores = cores
        self.config = config
        self.time_scale = time_scale
        self.write_fraction = write_fraction
        self._rng = DeterministicRng(seed, "trace", spec.name, core_id)
        self._mapper = AddressMapper(config)
        self._mean_gap = max(1.0, 1000.0 / spec.mpki - 1.0)
        self._hot_addresses = self._build_hot_addresses()
        self._hot_cursor = 0
        self._hot_probability = self._derive_hot_probability()
        footprint_bytes = int(spec.footprint_gb * 1024**3)
        self._footprint_lines = max(
            1, footprint_bytes // cores // config.line_size_bytes
        )
        self._footprint_rows = max(1, self._footprint_lines // config.lines_per_row)
        # Rate mode: each core's copy occupies its own address region.
        self._region_base_line = core_id * self._footprint_lines
        self._region_base_row = core_id * (
            config.rows_per_bank // max(1, cores)
        )
        # Random scan phase decorrelates cores' bank sequences.
        self._scan_cursor = self._rng.randint(
            0, max(1, self._footprint_rows * self.SCAN_ACCESSES_PER_ROW)
        )
        # Deterministic periodic bursts: the first BURST_LENGTH records
        # of every cycle are hot-heavy, giving the temporal clustering
        # real hammering phases have.
        burst_duty = (
            min(1.0, self._hot_probability / BURST_HOT_PROBABILITY)
            if self._hot_addresses
            else 0.0
        )
        self._cycle_len = int(BURST_LENGTH / burst_duty) if burst_duty > 0 else 0
        # Block-building tables, all derived from the fields above.
        batch = TRACE_BLOCK_RECORDS
        gap_p = 1.0 / self._mean_gap
        # numpy's ``geometric`` inverts a standard exponential,
        # ceil(-E / log1p(-p)), for p < 1/3 and searches otherwise; the
        # inversion is redone here on one batched exponential draw.
        self._gap_p = gap_p
        self._gap_divisor = -math.log1p(-gap_p) if gap_p < 1.0 / 3.0 else None
        # The hot rotation repeated to cover any block from any cursor,
        # so a block's hot addresses are one slice.
        hot = np.asarray(self._hot_addresses, dtype=np.int64)
        self._hot_ring = (
            hot[np.arange(hot.size + batch) % hot.size] if hot.size else hot
        )
        # Burst membership: a block's window is one slice of this
        # pattern (see _burst_window). Short cycles tile the pattern;
        # a cycle longer than a block plus a burst meets at most one
        # burst per block, so one burst between two empty blocks
        # serves every offset in 8 KB however long the cycle is.
        cycle = self._cycle_len
        if cycle == 0:
            self._burst_pattern = None
        elif cycle < batch + BURST_LENGTH:
            self._burst_pattern = np.arange(cycle + batch) % cycle < BURST_LENGTH
        else:
            self._burst_pattern = np.zeros(2 * batch + BURST_LENGTH, dtype=bool)
            self._burst_pattern[batch:batch + BURST_LENGTH] = True
        # Strided scan columns as address bits, OR-ed onto a row chunk's
        # column-0 address (the encode is an OR of disjoint fields).
        per_row = self.SCAN_ACCESSES_PER_ROW
        stride = max(1, config.lines_per_row // per_row)
        self._scan_columns = self._mapper.encode_batch(
            0, 0, 0, 0, np.arange(per_row, dtype=np.int64) * stride
        )

    # ------------------------------------------------------------------
    # Stream
    # ------------------------------------------------------------------
    def records(self, count: int) -> Iterator[TraceRecord]:
        """Yield ``count`` trace records.

        Thin adaptor over :meth:`blocks`: the columnar path is the one
        implementation; this view materializes one ``TraceRecord`` per
        row for scalar consumers.
        """
        for block in self.blocks(count):
            yield from iter_block(block)

    def chunks(self, count: int) -> "GeneratorChunks":
        """``count`` records as a columnar chunk source.

        Returns a :class:`GeneratorChunks` — block-for-block identical
        to ``TraceChunks(self.blocks(count))`` but snapshotable: its
        position cursor and this generator's RNG/cursor state round-trip
        through ``repro.state`` checkpoints.
        """
        return GeneratorChunks(self, count)

    def blocks(self, count: int) -> Iterator[np.ndarray]:
        """Yield ``count`` records as numpy blocks (the fast path).

        Blocks carry :data:`TRACE_BLOCK_RECORDS` rows (final block
        truncated). RNG batches are always drawn at full block size —
        draw-for-draw what the pre-columnar per-record stream consumed —
        so any prefix of the stream is byte-identical however it is
        chunked, and identical to :meth:`records_reference`.
        """
        position = 0
        remaining = count
        while remaining > 0:
            take = min(remaining, TRACE_BLOCK_RECORDS)
            yield self._build_block(position, take)
            position += TRACE_BLOCK_RECORDS
            remaining -= take

    def _build_block(self, position: int, take: int) -> np.ndarray:
        """Materialize the next ``take`` records, fully vectorized.

        The three access classes of the scalar reference are resolved
        as masks: hot-burst membership first, then the streaming scan,
        then uniform lines over the footprint. Rotation cursors advance
        by each class's population count — consecutive hot (or scan)
        accesses draw consecutive cursor values exactly as the
        per-record implementation does.

        The draws are the reference's, value for value: the gaps invert
        one exponential draw as ``Generator.geometric`` does, and the
        hot, write and scan uniforms come from one ``random`` call of
        three blocks, which fills them in the same order as three calls.
        """
        gen = self._rng.generator
        batch = TRACE_BLOCK_RECORDS
        if self._gap_divisor is not None:
            gaps = gen.standard_exponential(size=batch)
            gaps /= self._gap_divisor
            np.ceil(gaps, out=gaps)
        else:
            gaps = gen.geometric(self._gap_p, size=batch)
        uniforms = gen.random(size=3 * batch)
        addresses = gen.integers(0, self._footprint_lines, size=batch)
        hot_draw = uniforms[:take]
        write_draw = uniforms[batch:batch + take]
        scan_draw = uniforms[2 * batch:2 * batch + take]
        if take < batch:
            gaps = gaps[:take]
            addresses = addresses[:take]

        # Background random lines everywhere, then overwrite the hot and
        # scan positions (cheaper than three scatter passes).
        addresses += self._region_base_line
        addresses *= self.config.line_size_bytes
        scan_mask = scan_draw < BACKGROUND_SCAN_FRACTION
        window = self._burst_window(position, take)
        if window is not None:
            hot_mask = hot_draw < BURST_HOT_PROBABILITY
            hot_mask &= window
            hot_count = int(np.count_nonzero(hot_mask))
            if hot_count:
                cursor = self._hot_cursor
                addresses[hot_mask] = self._hot_ring[cursor:cursor + hot_count]
                self._hot_cursor = (cursor + hot_count) % len(self._hot_addresses)
                scan_mask &= ~hot_mask
        scan_count = int(np.count_nonzero(scan_mask))
        if scan_count:
            addresses[scan_mask] = self._scan_run(self._scan_cursor, scan_count)
            self._scan_cursor += scan_count

        block = np.empty(take, dtype=TRACE_BLOCK_DTYPE)
        block["gap"] = gaps
        block["address"] = addresses
        np.less(write_draw, self.write_fraction, out=block["is_write"])
        return block

    def _burst_window(self, position: int, take: int):
        """Burst membership of records ``position .. position+take-1``
        as a view of the burst pattern, or None when no record of the
        block can be in a burst."""
        pattern = self._burst_pattern
        if pattern is None:
            return None
        cycle = self._cycle_len
        offset = position % cycle
        batch = TRACE_BLOCK_RECORDS
        if cycle < batch + BURST_LENGTH:
            start = offset
        elif offset < BURST_LENGTH:
            # The block opens inside a burst.
            start = batch + offset
        elif offset + take <= cycle:
            return None
        else:
            # The next burst opens cycle - offset records in.
            start = batch + offset - cycle
        return pattern[start:start + take]

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): everything except the RNG stream and
    # the two rotation cursors is derived from the constructor
    # arguments, so a fresh generator restores exactly.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self._rng.snapshot_state(),
            self._hot_cursor,
            self._scan_cursor,
        )

    def restore_state(self, state: tuple) -> None:
        rng_state, hot_cursor, scan_cursor = state
        self._rng.restore_state(rng_state)
        self._hot_cursor = hot_cursor
        self._scan_cursor = scan_cursor

    def records_reference(self, count: int) -> Iterator[TraceRecord]:
        """The pre-columnar per-record stream, kept as the oracle.

        The equivalence suite replays this against :meth:`records` /
        :meth:`blocks` to prove the vectorization changed nothing. Use
        a dedicated generator instance: both paths consume the same RNG
        and cursors.
        """
        yield from itertools.islice(self._record_stream_reference(), count)

    def _record_stream_reference(self) -> Iterator[TraceRecord]:
        gen = self._rng.generator
        batch = TRACE_BLOCK_RECORDS
        cycle_len = self._cycle_len
        position = 0
        while True:
            gaps = gen.geometric(1.0 / self._mean_gap, size=batch)
            hot_draw = gen.random(size=batch)
            write_draw = gen.random(size=batch)
            scan_draw = gen.random(size=batch)
            random_lines = gen.integers(0, self._footprint_lines, size=batch)
            for i in range(batch):
                in_burst = cycle_len > 0 and position % cycle_len < BURST_LENGTH
                position += 1
                if in_burst and hot_draw[i] < BURST_HOT_PROBABILITY:
                    address = self._next_hot_address()
                elif scan_draw[i] < BACKGROUND_SCAN_FRACTION:
                    address = self._next_scan_address()
                else:
                    line = self._region_base_line + int(random_lines[i])
                    address = line * self.config.line_size_bytes
                yield TraceRecord(
                    instruction_gap=int(gaps[i]),
                    address=address,
                    is_write=bool(write_draw[i] < self.write_fraction),
                )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_hot_addresses(self) -> List[int]:
        """This core's rotation of hot-row addresses.

        Hot rows are spread over banks; each core hammers its own slice
        of them, rotating so consecutive accesses to a bank hit
        different rows (guaranteed row-buffer conflicts).
        """
        total_hot = self.spec.act800_rows
        share = total_hot // self.cores + (
            1 if self.core_id < total_hot % self.cores else 0
        )
        if share == 0:
            return []
        rng = self._rng.child("hotrows")
        banks = self.config.banks_per_rank
        channels = self.config.channels
        # One batched uint32 draw gives the values of two scalar
        # ``integers`` calls per hot row (row, then column): each such
        # call is Lemire's ``(x * range) >> 32`` on one uint32 draw,
        # which never rejects a power-of-two range (AddressMapper
        # enforces one) and draws nothing for a range of one.
        spans = np.array(
            [self.config.rows_per_bank, self.config.lines_per_row], dtype=np.uint64
        )
        drawn = spans > 1
        draws = np.zeros((share, 2), dtype=np.uint64)
        draws[:, drawn] = rng.generator.integers(
            0, 1 << 32, size=(share, int(drawn.sum())), dtype=np.uint32
        )
        draws *= spans
        draws >>= 32
        rows, columns = draws.astype(np.int64).T
        index = np.arange(share, dtype=np.int64)
        addresses = self._mapper.encode_batch(
            channel=(self.core_id + index) % channels,
            rank=np.zeros(share, dtype=np.int64),
            bank=(self.core_id * 3 + index) % banks,
            row=rows,
            column=columns,
        )
        return addresses.tolist()

    def _derive_hot_probability(self) -> float:
        """Probability an access targets the hot rotation.

        Chosen so each hot row sees ~(HOT_ACTS_LOW+HOT_ACTS_HIGH)/2
        activations per full-scale window given this core's access rate
        (estimated via :func:`estimated_ipc`).
        """
        if not self._hot_addresses:
            return 0.0
        instructions = CYCLES_PER_WINDOW * workload_ipc(self.spec)
        accesses_per_window = instructions * self.spec.mpki / 1000.0
        if accesses_per_window <= 0:
            return 0.0
        target_acts = len(self._hot_addresses) * (HOT_ACTS_LOW + HOT_ACTS_HIGH) / 2.0
        return min(0.95, target_acts / accesses_per_window)

    def _next_hot_address(self) -> int:
        address = self._hot_addresses[self._hot_cursor]
        self._hot_cursor = (self._hot_cursor + 1) % len(self._hot_addresses)
        return address

    # Strided scan: 8 accesses per row pass (every 16th line). Keeps
    # the streaming row-buffer-hit behaviour while bounding the ACT
    # count any one row can accumulate per pass — even when two cores'
    # scans collide on a bank and ping-pong the row buffer, a pass
    # costs at most ~16 activations, far below any swap threshold.
    SCAN_ACCESSES_PER_ROW = 8

    def _next_scan_address(self) -> int:
        """Next address of the streaming scan.

        Scans bank-row-major: a burst of strided accesses within one
        row, then the next (channel, bank, row) chunk — the order real
        streaming produces after the LLC.
        """
        config = self.config
        per_row = self.SCAN_ACCESSES_PER_ROW
        stride = max(1, config.lines_per_row // per_row)
        column = (self._scan_cursor % per_row) * stride
        chunk = (self._scan_cursor // per_row) % self._footprint_rows
        self._scan_cursor += 1
        channel = chunk % config.channels
        bank = (chunk // config.channels + self.core_id * 5) % config.banks_per_rank
        row = (
            self._region_base_row
            + chunk // (config.channels * config.banks_per_rank)
        ) % config.rows_per_bank
        return self._mapper.encode(
            DecodedAddress(channel=channel, rank=0, bank=bank, row=row, column=column)
        )

    def _scan_run(self, cursor: int, count: int) -> np.ndarray:
        """The next ``count`` scan addresses from ``cursor``: vectorized
        :meth:`_next_scan_address`, encoding each row chunk once and
        OR-ing the strided columns onto it."""
        config = self.config
        per_row = self.SCAN_ACCESSES_PER_ROW
        first, skip = divmod(cursor, per_row)
        chunk = np.arange(
            first, first + (skip + count + per_row - 1) // per_row, dtype=np.int64
        )
        chunk %= self._footprint_rows
        channel = chunk % config.channels
        bank = (chunk // config.channels + self.core_id * 5) % config.banks_per_rank
        row = (
            self._region_base_row
            + chunk // (config.channels * config.banks_per_rank)
        ) % config.rows_per_bank
        rows = self._mapper.encode_batch(channel, 0, bank, row, 0)
        return (rows[:, None] | self._scan_columns).ravel()[skip:skip + count]
