"""Per-bank timing state machine.

Tracks when the next activate / column access may legally issue on a
bank, enforcing tRC (ACT-to-ACT), tRCD (ACT-to-CAS), tRP (PRE), and tCAS
(CAS-to-data). The memory controller asks this object "if I issue a
request for row R at time t, when is the data back, and what commands
did that imply?" — which is exactly the granularity USIMM's scheduler
reasons at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.config import DRAMConfig

# Shortest run whose ACT recurrence :meth:`BankTimingState.activate_run`
# evaluates with numpy; shorter runs are cheaper in the loop.
VECTOR_MIN_RUN = 64


@dataclass(slots=True)
class AccessOutcome:
    """Result of servicing one column access on a bank."""

    start_ns: float
    data_ns: float
    row_buffer_hit: bool
    activated: bool


@dataclass(slots=True)
class BankTimingState:
    """Mutable DDR timing state for one bank.

    ``observer``, when set, receives ``(kind, row, time_ns)`` for every
    command the bank issues — the hook the protocol checker
    (:mod:`repro.mem.cmdlog`), the runtime sanitizer
    (:mod:`repro.check.sanitizer`), and the event tracer
    (:mod:`repro.obs`) use to watch the command stream. Multiple
    consumers stack via :func:`chain_observer`; observers must only
    read state — they can never affect the timing math.
    """

    config: DRAMConfig
    open_row: int = -1  # -1 encodes a precharged (closed) bank
    last_act_ns: float = field(default=-1e18)
    ready_ns: float = 0.0  # earliest time a new command may issue
    observer: object = None
    # Timing scalars cached off the (frozen) config: access() runs once
    # per request, and t_ras_ns is a computing property.
    _t_cas: float = field(init=False, repr=False, default=0.0)
    _t_rcd: float = field(init=False, repr=False, default=0.0)
    _t_rp: float = field(init=False, repr=False, default=0.0)
    _t_rc: float = field(init=False, repr=False, default=0.0)
    _t_ras: float = field(init=False, repr=False, default=0.0)
    _closed_page: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        config = self.config
        self._t_cas = config.t_cas
        self._t_rcd = config.t_rcd
        self._t_rp = config.t_rp
        self._t_rc = config.t_rc
        self._t_ras = config.t_ras_ns
        self._closed_page = config.page_policy == "closed"

    def earliest_start(self, now_ns: float) -> float:
        """Earliest instant a new request could begin on this bank."""
        return max(now_ns, self.ready_ns)

    def access(self, row: int, now_ns: float) -> AccessOutcome:
        """Service a read/write to ``row`` beginning no earlier than now.

        Open-page policy: the row buffer is left open after the access.
        Returns timing; the caller accounts bus occupancy separately.
        """
        now = self.ready_ns
        start = now_ns if now_ns > now else now
        observer = self.observer
        if self.open_row == row:
            data = start + self._t_cas
            self.ready_ns = data
            if observer is not None:
                observer("CAS", row, start)
            return AccessOutcome(start_ns=start, data_ns=data, row_buffer_hit=True, activated=False)

        # Row-buffer miss: precharge if a row is open, then activate.
        # A PRE may not issue before the open row has been active for
        # tRAS; with self-consistent timing (tRAS = tRC - tRP) the ACT
        # schedule is still governed by tRC.
        act_at = start
        if self.open_row >= 0:
            pre_at = max(start, self.last_act_ns + self._t_ras)
            if observer is not None:
                observer("PRE", self.open_row, pre_at)
            act_at = pre_at + self._t_rp
        act_at = max(act_at, self.last_act_ns + self._t_rc)
        data = act_at + self._t_rcd + self._t_cas
        self.open_row = row
        self.last_act_ns = act_at
        self.ready_ns = data
        if observer is not None:
            observer("ACT", row, act_at)
            observer("CAS", row, act_at + self._t_rcd)
        if self._closed_page:
            # Auto-precharge: the bank closes after the burst, once the
            # row has been open for tRAS.
            pre_at = max(data, act_at + self._t_ras)
            self._emit("PRE", row, pre_at)
            self.open_row = -1
            self.ready_ns = pre_at + self._t_rp
        return AccessOutcome(start_ns=start, data_ns=data, row_buffer_hit=False, activated=True)

    def activate_only(self, row: int, now_ns: float) -> float:
        """Issue a bare ACT (used by attack drivers); returns ACT time."""
        start = self.earliest_start(now_ns)
        act_at = start
        if self.open_row >= 0:
            pre_at = max(start, self.last_act_ns + self._t_ras)
            self._emit("PRE", self.open_row, pre_at)
            act_at = pre_at + self._t_rp
        act_at = max(act_at, self.last_act_ns + self._t_rc)
        self.open_row = row
        self.last_act_ns = act_at
        self.ready_ns = act_at + self._t_rcd
        self._emit("ACT", row, act_at)
        return act_at

    def activate_run(
        self, row: int, now_ns: float, step_ns: float, count: int
    ) -> float:
        """``count`` bare ACTs of ``row``, the i-th requested at the
        clock ``now_ns`` advanced by ``step_ns`` i times (one float add
        per ACT, as the attack harness's clock advances); returns the
        clock after the last. Same state as ``count`` ``activate_only``
        calls; only an unobserved bank may take it (no command is
        emitted).

        A run of at least ``VECTOR_MIN_RUN`` ACTs on an open bank first
        takes the prefix :meth:`_clock_bound_prefix` verifies; the loop
        finishes the run from the first ACT it rejects.
        """
        if count >= VECTOR_MIN_RUN and self.open_row >= 0 and row >= 0:
            done, now_ns = self._clock_bound_prefix(row, now_ns, step_ns, count)
            count -= done
        last = self.last_act_ns
        ready = self.ready_ns
        open_row = self.open_row
        t_ras = self._t_ras
        t_rp = self._t_rp
        t_rc = self._t_rc
        t_rcd = self._t_rcd
        for _ in range(count):
            now_ns += step_ns
            start = ready if ready > now_ns else now_ns
            act = start
            if open_row >= 0:
                pre = last + t_ras
                if start > pre:
                    pre = start
                act = pre + t_rp
            earliest = last + t_rc
            if earliest > act:
                act = earliest
            open_row = row
            last = act
            ready = act + t_rcd
        self.open_row = open_row
        self.last_act_ns = last
        self.ready_ns = ready
        return now_ns

    def _clock_bound_prefix(
        self, row: int, now_ns: float, step_ns: float, count: int
    ) -> "tuple[int, float]":
        """Apply the longest prefix of the run in which the clock alone
        sets every ACT: the bank is ready, tRAS has elapsed, and the
        ACT lands at ``clock + tRP`` with tRC already met. Requires an
        open bank. Returns ``(ACTs applied, clock after them)``.

        ``np.add.accumulate`` adds sequentially, so the clock values
        are the loop's bit for bit; each ACT's three maxes are then
        checked elementwise with the loop's own float operations, and
        the prefix ends at the first ACT where any of them would pick
        another operand.
        """
        clock = np.full(count + 1, step_ns)
        clock[0] = now_ns
        np.add.accumulate(clock, out=clock)
        now = clock[1:]
        act = now + self._t_rp
        last = np.empty(count)
        last[0] = self.last_act_ns
        last[1:] = act[:-1]
        ready = last + self._t_rcd
        ready[0] = self.ready_ns
        bad = ready > now
        bad |= last + self._t_ras > now
        bad |= last + self._t_rc > act
        done = int(bad.argmax())
        if not bad[done]:
            done = count
        if done:
            self.open_row = row
            self.last_act_ns = float(act[done - 1])
            self.ready_ns = self.last_act_ns + self._t_rcd
        return done, float(clock[done])

    def precharge(self, now_ns: float) -> float:
        """Close the row buffer; returns when the bank is idle again."""
        start = self.earliest_start(now_ns)
        if self.open_row >= 0:
            pre_at = max(start, self.last_act_ns + self._t_ras)
            self._emit("PRE", self.open_row, pre_at)
            self.open_row = -1
            self.ready_ns = pre_at + self._t_rp
        return self.ready_ns

    def block_until(self, until_ns: float) -> None:
        """Hold the bank busy (refresh, row-swap streaming)."""
        self.ready_ns = max(self.ready_ns, until_ns)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state) — also the block-loop state exchange
    # (repro.mem.block_kernel): the compiled loop evolves these three
    # scalars on flat arrays and hands them back via
    # :meth:`restore_state`. It only runs when no bank has an observer
    # attached, so the exchange is only ever applied to unobserved
    # open-page banks.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> "tuple[int, float, float]":
        """``(open_row, last_act_ns, ready_ns)`` — the full open-page
        timing state (the cached ``_t_*`` scalars are config)."""
        return self.open_row, self.last_act_ns, self.ready_ns

    def restore_state(self, state: "tuple[int, float, float]") -> None:
        self.open_row, self.last_act_ns, self.ready_ns = state

    def _emit(self, kind: str, row: int, time_ns: float) -> None:
        if self.observer is not None:
            self.observer(kind, row, time_ns)


def chain_observer(timing: BankTimingState, probe) -> None:
    """Attach ``probe`` to ``timing`` without displacing an existing
    observer (both run, existing first). Shared by the protocol
    sanitizer and the obs tracer so either — or both — can watch the
    same bank."""
    existing = timing.observer
    if existing is None:
        timing.observer = probe
        return

    def chained(kind: str, row: int, time_ns: float) -> None:
        existing(kind, row, time_ns)
        probe(kind, row, time_ns)

    timing.observer = chained
