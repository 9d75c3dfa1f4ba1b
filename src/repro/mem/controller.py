"""Per-channel memory controller.

Owns one channel of DRAM, decodes addresses, routes rows through the
installed mitigation (the RIT lookup in RRS), enforces activation
throttling (BlockHammer), services the access on the bank's timing
model, reserves the data bus, and applies whatever mitigating actions
the defense requests — targeted victim refreshes or channel-blocking
row swaps.

:meth:`MemoryController.service` is the scalar per-request reference:
the mitigation's ``route`` hook, then the bank's own timing model
(:meth:`~repro.dram.bank.Bank.access`), then the bus. The compiled
full-system block loop (:func:`repro.mem.block_kernel.run_block_loop`)
fuses the same steps and must match it bit for bit. Writes are serviced
inline, exactly like reads. Activations reach the mitigation either one
at a time (``Mitigation.on_activation``) or, when the mitigation
declares a ``batch_scope``, buffered per bank or channel and handed
over in runs (``on_activation_batch``, DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.dram.device import Channel
from repro.mem.request import MemoryRequest
from repro.mitigations.base import Mitigation, MitigationOutcome


@dataclass
class ControllerStats:
    """Counters for one channel's controller."""

    reads: int = 0
    writes: int = 0
    activations: int = 0
    row_buffer_hits: int = 0
    victim_refreshes: int = 0
    swaps: int = 0
    swap_blocked_ns: float = 0.0
    throttle_delay_ns: float = 0.0
    total_latency_ns: float = 0.0

    @property
    def accesses(self) -> int:
        """Total serviced requests."""
        return self.reads + self.writes

    @property
    def row_buffer_hit_rate(self) -> float:
        """Fraction of accesses that hit the open row."""
        if self.accesses == 0:
            return 0.0
        return self.row_buffer_hits / self.accesses

    @property
    def mean_latency_ns(self) -> float:
        """Average arrival-to-data latency."""
        if self.accesses == 0:
            return 0.0
        return self.total_latency_ns / self.accesses


class MemoryController:
    """FCFS controller for one channel, with a pluggable mitigation."""

    def __init__(
        self,
        config: DRAMConfig,
        channel: Channel,
        mitigation: Mitigation,
        mapper: AddressMapper = None,
    ) -> None:
        self.config = config
        self.channel = channel
        self.mitigation = mitigation
        self.mapper = mapper if mapper is not None else AddressMapper(config)
        self.stats = ControllerStats()
        # Hot-path constants hoisted out of service(): line_transfer_ns
        # is a computing property, and every Mitigation's lookup latency
        # is a fixed critical-path cost (the RIT's 4 cycles), not a
        # per-request quantity.
        self._line_transfer_ns = config.line_transfer_ns
        self._lookup_ns = mitigation.lookup_latency_ns()
        # Flat (rank-major) bank table: one index replaces the
        # rank-then-bank double hop through Channel.bank().
        self._banks_per_rank = config.banks_per_rank
        self._bank_table = [
            bank for rank in channel.ranks for bank in rank.banks
        ]
        # Set by repro.check.sanitizer when REPRO_SANITIZE=1: audits
        # the mitigation's swap machinery after every mitigating action.
        self.sanitizer = None
        # Set by repro.obs.Observability.install: read-only telemetry
        # probes (request completions, throttles, mitigation actions).
        # Disabled cost is one `is None` test per serviced request.
        self.obs = None
        # Batched activation path (DESIGN.md §9). Hook-override flags
        # let the hot loop skip virtual calls that are base no-ops
        # (NoMitigation pays nothing; only BlockHammer pays the
        # pre-activate probe; only RRS pays the route lookup). A
        # mitigation whose batch_scope is None takes the scalar
        # on_activation oracle; batched and scalar runs are
        # bit-identical.
        mitigation_type = type(mitigation)
        self._has_route = mitigation_type.route is not Mitigation.route
        self._has_pre_delay = (
            mitigation_type.pre_activate_delay_ns
            is not Mitigation.pre_activate_delay_ns
        )
        self._mitigates_acts = (
            mitigation_type.on_activation is not Mitigation.on_activation
        )
        self._batch = None
        self._batch_global = False
        if mitigation.batch_scope is not None:
            keys = [
                (channel.index, bank.rank, bank.index)
                for bank in self._bank_table
            ]
            self._batch = mitigation.make_batch_state(channel.index, keys)
            if self._batch is not None:
                self._batch_global = mitigation.batch_scope == "global"

    def service(self, request: MemoryRequest) -> float:
        """Service one request synchronously; returns completion time.

        Requests must be presented in arrival order (exact FCFS); bank
        parallelism emerges from per-bank ready times, and the shared
        data bus serializes line transfers within the channel.
        """
        decoded = request.decoded
        if decoded is None:
            decoded = self.mapper.decode(request.address)
            request.decoded = decoded
        if decoded.channel != self.channel.index:
            raise ValueError(
                f"request for channel {decoded.channel} sent to "
                f"controller of channel {self.channel.index}"
            )

        flat_bank = decoded.rank * self._banks_per_rank + decoded.bank
        bank = self._bank_table[flat_bank]
        bank_key = decoded.bank_key
        row = decoded.row
        if self._has_route:
            physical_row = self.mitigation.route(bank_key, row)
        else:
            physical_row = row
        request.physical_row = physical_row

        start_floor = request.arrival_ns + self._lookup_ns
        if self._has_pre_delay and bank.timing.open_row != physical_row:
            delay = self.mitigation.pre_activate_delay_ns(
                bank_key, physical_row, start_floor
            )
            if delay > 0.0:
                self.stats.throttle_delay_ns += delay
                if self.obs is not None:
                    self.obs.on_throttle(bank_key, physical_row, start_floor, delay)
                start_floor += delay

        outcome = bank.access(physical_row, start_floor)
        data = outcome.data_ns
        hit = outcome.row_buffer_hit

        # Bus reservation inline (Channel.reserve_bus, same max() rule).
        channel = self.channel
        bus_free = channel.bus_free_ns
        data_start = data if data >= bus_free else bus_free
        completion = data_start + self._line_transfer_ns
        channel.bus_free_ns = completion

        request.start_ns = outcome.start_ns
        request.completion_ns = completion
        request.row_buffer_hit = hit

        stats = self.stats
        if request.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        latency = completion - request.arrival_ns
        stats.total_latency_ns += latency
        if hit:
            stats.row_buffer_hits += 1
        if outcome.activated:
            stats.activations += 1
            batch = self._batch
            if (
                batch is not None
                and not self._batch_global
                and batch.credits[flat_bank] > 0
                and completion < batch.deadlines[flat_bank]
            ):
                # Defer fast path: the mitigation proved this activation
                # cannot trigger an action, so just buffer it.
                batch.credits[flat_bank] -= 1
                batch.rows[flat_bank].append(row)
                batch.times[flat_bank].append(completion)
            else:
                self._note_activation(
                    bank_key, flat_bank, row, physical_row, bank, completion
                )
        if self.obs is not None:
            self.obs.on_request(request, decoded, latency, hit)
        return completion

    def _note_activation(
        self,
        bank_key,
        flat_bank: int,
        row: int,
        physical_row: int,
        bank,
        now_ns: float,
    ) -> None:
        """Activation hook slow path: batch flushes, the global (PARA)
        credit cell, and the scalar reference path. ``row`` is the
        mitigation-observed row — logical for RRS (whose tracker indexes
        logical rows; its scalar hook never reads ``physical_row``),
        identical to ``physical_row`` for every identity-routing
        defense. The bank-scope defer case is inlined at the service()
        call site, so a bank-scope call here always acts or flushes.
        """
        batch = self._batch
        if batch is None:
            if self._mitigates_acts:
                action = self.mitigation.on_activation(
                    bank_key, row, physical_row, now_ns
                )
                if not action.is_noop:
                    self._apply(action, bank, now_ns)
            return
        if self._batch_global:
            cell = batch.credits
            if cell[0] > 0:
                cell[0] -= 1
                return
            action = self.mitigation.on_activation_batch(
                bank_key, (physical_row,), (now_ns,)
            )
            if not action.is_noop:
                self._apply(action, bank, now_ns)
            return
        if batch.credits[flat_bank] < 0:
            # Opted-out bank (see BankBatchedMitigation.OPT_OUT_RUNS and
            # OPT_OUT_MEAN_RUN): under a sustained hammer every "batch"
            # is a run of one, so skip the buffer machinery and call the
            # scalar oracle directly. Identical results by definition;
            # the buffer is empty (opt-out only happens right after a
            # flush).
            action = self.mitigation.on_activation(
                bank_key, row, physical_row, now_ns
            )
            if not action.is_noop:
                self._apply(action, bank, now_ns)
            return
        # Credit exhausted or deadline passed: hand the buffered run
        # plus this (possibly-acting) activation to the mitigation.
        rows = batch.rows[flat_bank]
        times = batch.times[flat_bank]
        rows.append(row)
        times.append(now_ns)
        action = self.mitigation.on_activation_batch(bank_key, rows, times)
        rows.clear()
        times.clear()
        if not action.is_noop:
            self._apply(action, bank, now_ns)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): the controller's own mutable state is
    # its stats block — channel/bank timing belongs to the device layer
    # and batch buffers are flushed by Mitigation.prepare_for_snapshot
    # before any snapshot is taken.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        stats = self.stats
        return (
            stats.reads,
            stats.writes,
            stats.activations,
            stats.row_buffer_hits,
            stats.victim_refreshes,
            stats.swaps,
            stats.swap_blocked_ns,
            stats.throttle_delay_ns,
            stats.total_latency_ns,
        )

    def restore_state(self, state: tuple) -> None:
        stats = self.stats
        (
            stats.reads,
            stats.writes,
            stats.activations,
            stats.row_buffer_hits,
            stats.victim_refreshes,
            stats.swaps,
            stats.swap_blocked_ns,
            stats.throttle_delay_ns,
            stats.total_latency_ns,
        ) = state

    def _apply(self, action: MitigationOutcome, bank, now_ns: float) -> None:
        """Carry out the mitigating actions a defense requested."""
        for victim_row in action.refresh_rows:
            if 0 <= victim_row < self.config.rows_per_bank:
                bank.refresh_row(victim_row)
                self.stats.victim_refreshes += 1
        if action.refresh_rows:
            # Each targeted refresh is internally an ACT+PRE: tRC apiece.
            bank.timing.block_until(
                now_ns + len(action.refresh_rows) * self.config.t_rc
            )
        if action.swaps:
            self.stats.swaps += len(action.swaps)
            if bank.disturbance is not None:
                # Streaming a swap activates each involved row twice
                # (read-out and write-back), restoring their own charge.
                for row_a, row_b in action.swaps:
                    bank.disturbance.on_activate(row_a, count=2)
                    bank.disturbance.on_activate(row_b, count=2)
        if action.refresh_all_bank and bank.disturbance is not None:
            bank.disturbance.refresh_all()
        if action.channel_block_ns > 0.0:
            self.stats.swap_blocked_ns += action.channel_block_ns
            self.channel.block_channel(now_ns, action.channel_block_ns)
        if self.sanitizer is not None and action.swaps:
            self.sanitizer.audit_mitigation(self.mitigation)
        if self.obs is not None:
            self.obs.on_mitigation(action, self._bank_key_of(bank), now_ns)

    def _bank_key_of(self, bank) -> tuple:
        """(channel, rank, bank) key for a Bank object."""
        return (self.channel.index, bank.rank, bank.index)
