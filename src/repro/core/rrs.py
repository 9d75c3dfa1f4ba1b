"""Randomized Row-Swap: the mitigation controller (paper Section 4).

Wires the Hot-Row Tracker, the Row Indirection Table, the PRNG and the
swap engine into the memory controller's mitigation interface:

* every access routes through the RIT (adding the 4-cycle lookup);
* every ACT feeds the per-bank tracker with the *logical* row;
* when a row's estimate crosses a multiple of T_RRS, the row is swapped
  with a uniformly random row of the same bank, excluding rows already
  tracked by the HRT or present in the RIT (Section 4.4);
* the channel is blocked for the streaming duration of the swap plus
  any lazy-eviction un-swaps it forces;
* at each refresh-window boundary the tracker resets and the RIT's
  lock bits clear.

Also provides :class:`SwapRateDetector`, the footnote-2 extension: a
row needing several swaps within one window is the signature of the
adaptive attack, so flagging it enables a preemptive full refresh.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.config import RRSConfig
from repro.core.prng import PrinceStylePRNG
from repro.core.rit import RowIndirectionTable
from repro.core.swap import SwapEngine
from repro.dram.config import DRAMConfig
from repro.mitigations.base import (
    BankKey,
    Mitigation,
    MitigationOutcome,
    NOOP_OUTCOME,
    tracker_run_credit,
)
from repro.track.array_state import ArrayMisraGries


class SwapRateDetector:
    """Attack detector from the paper's footnote 2.

    The adaptive attack needs one physical row to be a swap endpoint
    k = T_RH/T_RRS times within a single window; benign workloads
    essentially never re-swap the same physical row. Counting per-row
    swap involvement therefore flags an attack long before it can
    succeed, enabling a preemptive refresh of the DRAM.
    """

    def __init__(self, flag_threshold: int = 3) -> None:
        if flag_threshold < 2:
            raise ValueError("flag threshold below 2 would flag benign swaps")
        self.flag_threshold = flag_threshold
        self.flagged = 0
        self._counts: Counter = Counter()

    def note_swap(self, physical_rows: List[int]) -> bool:
        """Record a swap's endpoints; True when an attack is flagged."""
        attack = False
        for row in physical_rows:
            self._counts[row] += 1
            if self._counts[row] >= self.flag_threshold:
                attack = True
        if attack:
            self.flagged += 1
        return attack

    def end_window(self) -> None:
        """Window rollover: swap counts reset with the epoch."""
        self._counts.clear()

    # ------------------------------------------------------------------
    # Snapshotable (repro.state)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (self.flagged, list(self._counts.items()))

    def restore_state(self, state: tuple) -> None:
        flagged, counts = state
        self.flagged = flagged
        self._counts = Counter()
        for row, hits in counts:
            self._counts[row] = hits


@dataclass
class _BankState:
    """Per-bank RRS state: tracker + RIT + PRNG."""

    tracker: ArrayMisraGries
    rit: RowIndirectionTable
    prng: PrinceStylePRNG
    swaps_this_window: int = 0


class RandomizedRowSwap(Mitigation):
    """The paper's defense, pluggable into :class:`MemoryController`."""

    name = "RRS"

    def __init__(
        self,
        config: RRSConfig = RRSConfig(),
        dram: DRAMConfig = DRAMConfig(),
        detector: Optional[SwapRateDetector] = None,
        rit_use_cat: bool = False,
        engine_factory: Optional[Callable[[], SwapEngine]] = None,
    ) -> None:
        self.config = config
        self.dram = dram
        self.detector = detector
        self.rit_use_cat = rit_use_cat
        self.window = 0
        self.total_swaps = 0
        self.swap_history: List[int] = []  # swaps per completed window
        self.preemptive_refreshes = 0  # footnote-2 responses issued
        self._banks: Dict[BankKey, _BankState] = {}
        self._engines: Dict[int, SwapEngine] = {}
        self._engine_factory = engine_factory
        self._swaps_this_window = 0
        # Observability slot (repro.obs): attached to every swap engine
        # (existing and lazily created) so per-op swap/unswap telemetry
        # reaches the metrics registry. Read-only, like `tracer`.
        self.engine_observer = None

    # ------------------------------------------------------------------
    # Mitigation interface
    # ------------------------------------------------------------------
    def route(self, bank_key: BankKey, row: int) -> int:
        """RIT lookup: where does this logical row's data live?"""
        state = self._banks.get(bank_key)
        if state is None:
            return row
        return state.rit.route(row)

    def route_table(self, bank_key: BankKey) -> Optional[Dict[int, int]]:
        """The bank's RIT forward dict (only swapped rows appear)."""
        state = self._banks.get(bank_key)
        return None if state is None else state.rit.forward

    def lookup_latency_ns(self) -> float:
        """The RIT's 4-CPU-cycle critical-path lookup (Section 4.7)."""
        return self.config.rit_lookup_ns

    def on_activation(
        self,
        bank_key: BankKey,
        row: int,
        physical_row: int,
        now_ns: float,
    ) -> MitigationOutcome:
        """Track the logical row; swap it on each T_RRS multiple."""
        state = self._banks.get(bank_key)
        if state is None:
            state = self._bank(bank_key)
        estimate = state.tracker.observe(row)
        # Swap when the counter lands exactly on a multiple of T_RRS —
        # the hardware comparison Graphene uses. Installs jump counters
        # to spill+1, so a saturated tracker (spill ~ T) does not storm:
        # only counters arriving at a multiple trigger.
        if estimate == 0 or estimate % self.config.t_rrs != 0:
            return NOOP_OUTCOME
        return self.on_hot_row(bank_key, row, now_ns, state.tracker.__contains__)

    def on_hot_row(self, bank_key, row, now_ns, tracked):
        """Swap the row (the compiled loop calls this directly)."""
        return self._perform_swap(bank_key, self._bank(bank_key), row, now_ns, tracked)

    def hot_row_tracker(self, bank_key):
        """The bank's array tracker and T_RRS."""
        return self._bank(bank_key).tracker, self.config.t_rrs

    def on_window_end(self, window_index: int) -> None:
        """Epoch rollover: reset trackers, clear RIT lock bits."""
        self.window += 1
        self.swap_history.append(self._swaps_this_window)
        self._swaps_this_window = 0
        for state in self._banks.values():
            state.tracker.reset()
            state.rit.end_window()
            state.swaps_this_window = 0
        if self.detector is not None:
            self.detector.end_window()

    # ------------------------------------------------------------------
    # Run contract (attack harnesses): the logical row's own counter
    # ------------------------------------------------------------------
    def run_credit(self, bank_key, row, physical_row, now_ns):
        state = self._banks.get(bank_key)
        if state is None:
            return 0
        return tracker_run_credit(state.tracker, row, self.config.t_rrs)

    def on_activation_run(self, bank_key, row, physical_row, count):
        """Credited activations: the tracker counts the logical row."""
        self._bank(bank_key).tracker.observe_run(row, count)

    def storage_bits_per_bank(self, rows_per_bank: int) -> int:
        """SRAM bits per bank (Table 5 geometry; see analysis.storage)."""
        from repro.analysis.storage import rrs_storage_overhead

        return rrs_storage_overhead(self.config, self.dram).total_bits_per_bank

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def bank_state(self, bank_key: BankKey) -> _BankState:
        """This bank's tracker/RIT/PRNG bundle (creates lazily)."""
        return self._bank(bank_key)

    def swap_engine(self, channel: int) -> SwapEngine:
        """The per-channel swap engine (creates lazily)."""
        engine = self._engines.get(channel)
        if engine is None:
            if self._engine_factory is not None:
                engine = self._engine_factory()
            else:
                engine = SwapEngine(
                    self.dram, latency_scale=float(self.config.time_scale)
                )
            if self.engine_observer is not None:
                engine.observer = self.engine_observer
            self._engines[channel] = engine
        return engine

    # ------------------------------------------------------------------
    # Snapshotable (repro.state). Per-bank bundles are rebuilt through
    # ``_bank`` (the seeds are config-derived, so a fresh construction
    # matches) and restored component-wise.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.window,
            self.total_swaps,
            list(self.swap_history),
            self.preemptive_refreshes,
            self._swaps_this_window,
            {
                key: (
                    state.tracker.snapshot_state(),
                    state.rit.snapshot_state(),
                    state.prng.snapshot_state(),
                    state.swaps_this_window,
                )
                for key, state in self._banks.items()
            },
            {
                channel: engine.snapshot_state()
                for channel, engine in self._engines.items()
            },
            None if self.detector is None else self.detector.snapshot_state(),
        )

    def restore_state(self, state: tuple) -> None:
        (
            self.window,
            self.total_swaps,
            swap_history,
            self.preemptive_refreshes,
            self._swaps_this_window,
            banks,
            engines,
            detector_state,
        ) = state
        self.swap_history = list(swap_history)
        self._banks = {}
        for key, (tracker_state, rit_state, prng_state, swaps) in banks.items():
            bank = self._bank(key)
            bank.tracker.restore_state(tracker_state)
            bank.rit.restore_state(rit_state)
            bank.prng.restore_state(prng_state)
            bank.swaps_this_window = swaps
        for channel, engine_state in engines.items():
            self.swap_engine(channel).restore_state(engine_state)
        if self.detector is not None and detector_state is not None:
            self.detector.restore_state(detector_state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bank(self, bank_key: BankKey) -> _BankState:
        state = self._banks.get(bank_key)
        if state is None:
            seed = hash(bank_key) ^ self.config.seed
            state = _BankState(
                # Array-state HRT: Figure-3 semantics with slot storage
                # and a defined lowest-slot tie-break. Invariant-1 sizing
                # bounds the spill counter below T, not below the minimum
                # counter, so a window touching more distinct rows than
                # the table holds evicts; there the victim can differ
                # from the reference tracker's (see track/array_state.py).
                tracker=ArrayMisraGries(entries=self.config.tracker_entries),
                rit=RowIndirectionTable(
                    capacity_tuples=self.config.rit_capacity_tuples,
                    use_cat=self.rit_use_cat,
                    seed=seed,
                ),
                prng=PrinceStylePRNG(key=seed),
            )
            self._banks[bank_key] = state
        return state

    def _perform_swap(
        self, bank_key: BankKey, state: _BankState, row: int, now_ns: float, tracked
    ) -> MitigationOutcome:
        destination = self._pick_destination(state, row, tracked)
        ops = state.rit.swap(row, destination)
        engine = self.swap_engine(bank_key[0])
        blocked_ns = engine.execute(ops)
        self.total_swaps += 1
        self._swaps_this_window += 1
        state.swaps_this_window += 1
        swaps = [(op.phys_a, op.phys_b) for op in ops]
        refresh_all = False
        if self.detector is not None:
            if self.detector.note_swap([r for pair in swaps for r in pair]):
                # Footnote 2: an imminent attack was flagged; preempt it
                # with a whole-bank refresh. The burst costs ~2.8ms of
                # channel time (the paper's minimum full-refresh time),
                # paid only under active attack.
                refresh_all = True
                self.preemptive_refreshes += 1
                blocked_ns += 2.8e6 / self.config.time_scale
        tracer = self.tracer
        if tracer is not None and tracer.wants("rrs.swap"):
            tracer.emit(
                "rrs.swap",
                "swap",
                now_ns,
                track=("bank",) + bank_key,
                args={
                    "row": row,
                    "destination": destination,
                    "ops": len(ops),
                    "pairs": [[op.kind, op.phys_a, op.phys_b] for op in ops],
                    "blocked_ns": blocked_ns,
                },
            )
        return MitigationOutcome(
            channel_block_ns=blocked_ns,
            swaps=swaps,
            refresh_all_bank=refresh_all,
        )

    def _pick_destination(self, state: _BankState, row: int, tracked) -> int:
        """Random destination excluding HRT (``tracked``) and RIT
        residents (Section 4.4)."""

        def is_excluded(candidate: int) -> bool:
            if candidate == row:
                return True
            if state.rit.is_swapped(candidate):
                return True
            if self.config.exclude_tracked_destinations and tracked(candidate):
                return True
            return False

        return state.prng.pick_row(self.config.rows_per_bank, is_excluded)
