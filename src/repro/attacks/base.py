"""Attack harness: replays row-activation patterns against one bank.

Operates at activation granularity (the resolution every quantity in
the paper's security analysis is defined at): each attacker activation
costs tRC; mitigation actions cost real time too — a victim refresh is
an ACT+PRE (tRC), a row swap blocks the channel for ~1.46 us per
physical exchange. The attacker therefore loses activation budget to
the defenses it triggers, reproducing the paper's duty-cycle effect
(D ~ 0.925 for the single-bank adaptive attack).

Attack streams are long runs of one row, and almost every activation
in them is a noop for the defense. The harness charges such a run in
one step (DESIGN.md §9.7, "run contract"): when the mitigation's
``run_credit`` proves the next activations of a row are noops, the
clock, the bank's timing and counts, the fault model and the
mitigation each take the whole run at once — the result is identical
to replaying it one activation at a time. A run ends at a window
boundary and at the activation that records a bit flip. Activations
that can act (refresh, swap, delay), and every activation of a bank
whose commands an observer watches, go through the per-activation step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, List, Optional

from repro.attacks.patterns import RowRuns
from repro.dram.bank import Bank
from repro.dram.config import DRAMConfig
from repro.dram.faults import BitFlipEvent, DisturbanceModel
from repro.mitigations.base import Mitigation
from repro.mitigations.none import NoMitigation

ATTACK_BANK_KEY = (0, 0, 0)

# Longest run the harness charges in one step: bounds the fault model's
# per-run lists whatever the mitigation's credit.
RUN_CHUNK = 4096

# End of the attack's row stream.
_END = object()


@dataclass
class AttackResult:
    """Outcome of one attack run."""

    activations: int = 0
    windows: int = 0
    swaps: int = 0
    victim_refreshes: int = 0
    elapsed_ns: float = 0.0
    flips: List[BitFlipEvent] = field(default_factory=list)
    t_rc_ns: float = DRAMConfig.t_rc

    @property
    def succeeded(self) -> bool:
        """True when at least one Row Hammer bit flip occurred."""
        return bool(self.flips)

    @property
    def duty_cycle(self) -> float:
        """Fraction of elapsed time spent on attacker activations."""
        if self.elapsed_ns <= 0:
            return 1.0
        return min(1.0, self.activations * self.t_rc_ns / self.elapsed_ns)


class AttackHarness:
    """One bank + fault model + mitigation, driven by an attack."""

    def __init__(
        self,
        mitigation: Optional[Mitigation] = None,
        dram: DRAMConfig = DRAMConfig(),
        t_rh: float = 4800.0,
        distance2_coupling: float = 0.016,
        refresh_disturbs_neighbors: bool = True,
        scramble=None,
        tracer=None,
    ) -> None:
        self.dram = dram
        self.mitigation = mitigation if mitigation is not None else NoMitigation()
        # Observability (repro.obs): `attack`-category events for window
        # rollovers, mitigation responses, and bit flips. The tracer is
        # also handed to the mitigation so RRS swap events interleave.
        self.tracer = tracer
        if tracer is not None:
            self.mitigation.tracer = tracer
        # Optional vendor row scramble (repro.dram.remap.RowScramble):
        # disturbance physics happens on *internal wordlines*, while
        # the mitigation reasons in controller addresses — the paper's
        # "proprietary DRAM mapping" hazard for victim-focused schemes.
        self.scramble = scramble
        self.disturbance = DisturbanceModel(
            rows=dram.rows_per_bank,
            t_rh=t_rh,
            distance2_coupling=distance2_coupling,
            refresh_disturbs_neighbors=refresh_disturbs_neighbors,
        )
        self.bank = Bank(dram, disturbance=self.disturbance)
        self.now_ns = 0.0
        self.window_index = 0
        self.result = AttackResult(t_rc_ns=dram.t_rc)

    def run(
        self,
        rows: Iterable[int],
        max_activations: Optional[int] = None,
        max_windows: Optional[int] = None,
        stop_on_flip: bool = True,
    ) -> AttackResult:
        """Drive logical-row activations until a limit or a bit flip.

        ``rows`` is typically an infinite stream; bound the run with
        ``max_activations`` and/or ``max_windows``. Rows are read
        exactly as far as an activation-by-activation replay reads them
        (one past the last activation when a limit stops the run, none
        past a flip that stops it). A pattern's :class:`RowRuns` stream
        hands over each credited run in one ``read_run`` step; any
        other iterable is read one row at a time.
        """
        if max_activations is None and max_windows is None:
            raise ValueError("bound the attack with max_activations or max_windows")
        window_ns = float(self.dram.refresh_window_ns)
        rows_per_bank = self.dram.rows_per_bank
        mitigation = self.mitigation
        disturbance = self.disturbance
        timing = self.bank.timing
        scramble = self.scramble
        result = self.result
        stream = iter(rows)
        if type(stream) is RowRuns:
            read_run = stream.read_run
        else:
            read_run = partial(_read_run, stream)
        logical_row = next(stream, _END)
        while logical_row is not _END:
            if max_activations is not None and result.activations >= max_activations:
                break
            if max_windows is not None and self.window_index >= max_windows:
                break
            # Window rollover by wall-clock time.
            while self.now_ns >= (self.window_index + 1) * window_ns:
                self._end_window()

            physical_row = mitigation.route(ATTACK_BANK_KEY, logical_row)
            wordline = (
                physical_row if scramble is None else scramble.to_internal(physical_row)
            )
            # The step takes an activation after which the run must stop
            # anyway: one the window limit or a recorded flip ends.
            credit = 0
            if (
                timing.observer is None
                and 0 <= wordline < rows_per_bank
                and not (stop_on_flip and disturbance.flips)
                and (max_windows is None or self.window_index < max_windows)
            ):
                credit = mitigation.run_credit(
                    ATTACK_BANK_KEY, logical_row, physical_row, self.now_ns
                )
            if credit <= 0:
                self._activate(logical_row, physical_row)
                if stop_on_flip and disturbance.flips:
                    break
                logical_row = next(stream, _END)
                continue

            limit = min(credit, RUN_CHUNK)
            if max_activations is not None:
                limit = min(limit, max_activations - result.activations)
            limit = self._window_fit(limit, window_ns)
            limit = disturbance.activations_to_flip(wordline, limit) or limit
            count, logical_next = read_run(logical_row, limit)
            self._activate_run(logical_row, physical_row, wordline, count)
            if stop_on_flip and disturbance.flips:
                break
            logical_row = next(stream, _END) if logical_next is None else logical_next

        result.elapsed_ns = self.now_ns
        result.flips = list(disturbance.flips)
        result.windows = self.window_index
        if self.tracer is not None and self.tracer.wants("attack"):
            for flip in result.flips:
                self.tracer.emit(
                    "attack",
                    "bit_flip",
                    self.now_ns,
                    track=("sys", "attack"),
                    args={
                        "row": flip.row,
                        "window": flip.window,
                        "cause": flip.cause,
                    },
                )
            self.tracer.complete(
                "attack",
                "attack_run",
                0.0,
                self.now_ns,
                track=("sys", "attack"),
                args={
                    "activations": result.activations,
                    "windows": self.window_index,
                    "swaps": result.swaps,
                    "flips": len(result.flips),
                },
            )
        return result

    # ------------------------------------------------------------------
    # Per-activation step (the oracle the run path must match)
    # ------------------------------------------------------------------
    def _end_window(self) -> None:
        self.window_index += 1
        self.bank.end_window()
        self.mitigation.on_window_end(self.window_index)
        self.result.windows = self.window_index
        if self.tracer is not None and self.tracer.wants("attack"):
            self.tracer.emit(
                "attack",
                "window_end",
                self.now_ns,
                track=("sys", "attack"),
                args={
                    "window": self.window_index,
                    "activations": self.result.activations,
                },
            )

    def _activate(self, logical_row: int, physical_row: int) -> None:
        """One activation and the mitigation's response to it."""
        delay = self.mitigation.pre_activate_delay_ns(
            ATTACK_BANK_KEY, physical_row, self.now_ns
        )
        self.now_ns += delay + self.dram.t_rc
        wordline = (
            physical_row
            if self.scramble is None
            else self.scramble.to_internal(physical_row)
        )
        self.bank.activate(wordline, self.now_ns)
        self.result.activations += 1

        action = self.mitigation.on_activation(
            ATTACK_BANK_KEY, logical_row, physical_row, self.now_ns
        )
        if action.is_noop:
            return
        for victim in action.refresh_rows:
            if 0 <= victim < self.dram.rows_per_bank:
                target = (
                    victim
                    if self.scramble is None
                    else self.scramble.to_internal(victim)
                )
                self.bank.refresh_row(target)
                self.result.victim_refreshes += 1
                self.now_ns += self.dram.t_rc
        for row_a, row_b in action.swaps:
            # Streaming re-activates (and restores) both rows.
            if self.scramble is not None:
                row_a = self.scramble.to_internal(row_a)
                row_b = self.scramble.to_internal(row_b)
            self.disturbance.on_activate(row_a, count=2)
            self.disturbance.on_activate(row_b, count=2)
        if action.swaps:
            self.result.swaps += len(action.swaps)
        if action.refresh_all_bank:
            self.disturbance.refresh_all()
        self.now_ns += action.channel_block_ns
        if self.tracer is not None and self.tracer.wants("attack"):
            self.tracer.emit(
                "attack",
                "mitigated",
                self.now_ns,
                track=("sys", "attack"),
                args={
                    "row": logical_row,
                    "refreshes": len(action.refresh_rows),
                    "swaps": len(action.swaps),
                    "blocked_ns": action.channel_block_ns,
                },
            )

    # ------------------------------------------------------------------
    # Run path
    # ------------------------------------------------------------------
    def _window_fit(self, limit: int, window_ns: float) -> int:
        """How many of ``limit`` credited activations fit before the
        window boundary: the first always does (its rollover check has
        run), each later one only if the clock is still short of the
        boundary after its predecessor."""
        boundary = (self.window_index + 1) * window_ns
        step = 0.0 + self.dram.t_rc
        # Sequential rounding over <= RUN_CHUNK adds stays far inside
        # this margin; only a run that may reach the boundary needs the
        # exact clock values.
        if (self.now_ns + limit * step) * (1.0 + 1e-9) < boundary:
            return limit
        clock = self.now_ns
        for fit in range(1, limit):
            clock += step
            if clock >= boundary:
                return fit
        return limit

    def _activate_run(
        self, logical_row: int, physical_row: int, wordline: int, count: int
    ) -> None:
        """``count`` credited activations of one row in one step: the
        state ``count`` per-activation steps with noop outcomes leave.
        A flip may only come on the last of them."""
        bank = self.bank
        self.now_ns = bank.timing.activate_run(
            wordline, self.now_ns, 0.0 + self.dram.t_rc, count
        )
        bank.total_activations += count
        self.disturbance.on_activate_run(wordline, count)
        self.mitigation.on_activation_run(
            ATTACK_BANK_KEY, logical_row, physical_row, count
        )
        self.result.activations += count


def _read_run(stream: Iterator[int], row: int, limit: int):
    """Read up to ``limit - 1`` more copies of ``row`` from ``stream``.

    Returns ``(run length, next row)``: the run counts ``row`` itself;
    the next row is the first different one read (``_END`` at the end
    of the stream), or None when the run stopped at ``limit`` and
    nothing more was read. The harness reads a pattern's
    :class:`RowRuns` through its own ``read_run``, with the same
    contract; this loop serves every other iterable.
    """
    count = 1
    while count < limit:
        following = next(stream, _END)
        if following is _END or following != row:
            return count, following
        count += 1
    return count, None
