"""Opt-in runtime DDR4 protocol sanitizer and RRS invariant auditor.

Set ``REPRO_SANITIZE=1`` and :class:`~repro.mem.system.SystemSimulator`
installs a :class:`ProtocolSanitizer`: every bank's command stream is
checked *online* against the paper's Table 2 timing rules, and the RRS
swap machinery is audited after every mitigating action. The first
break raises :class:`ProtocolViolation` carrying the rule id, the bank,
the offending command, and the recent command-trace window — failing
the run loudly instead of caching a silently-wrong result.

Checked rules
-------------
``DDR-tRC``    ACT-to-ACT spacing on one bank.
``DDR-tRCD``   ACT-to-CAS spacing.
``DDR-tRP``    PRE-to-ACT spacing.
``DDR-tRAS``   ACT-to-PRE spacing (row must stay open tRAS).
``DDR-tRRD``   ACT-to-ACT spacing across banks of one rank
               (checked only when ``DRAMConfig.t_rrd > 0``).
``DDR-tFAW``   at most 4 ACTs per rank per tFAW window
               (checked only when ``DRAMConfig.t_faw > 0``).
``DDR-tREFI``  refresh cadence: successive REF bursts at most one
               tREFI apart.
``DDR-OPEN-ROW``   ACT on a bank with a row open / PRE on a closed
                   bank / CAS to a row other than the open one.
``RRS-RIT-BIJECTIVE``  RIT forward/inverse maps are a consistent
                       sparse permutation (no duplicate physical
                       targets, no identity entries, inverse matches).
``RRS-RIT-CAPACITY``   directional entries within the configured
                       capacity.
``RRS-CAT-ALIAS``      CAT shadow diverges from the RIT map, or a swap
                       destination aliases a live hot (tracked) row.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.dram.config import DRAMConfig
from repro.dram.timing import chain_observer

_ENV_SANITIZE = "REPRO_SANITIZE"
_EPS = 1e-6


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE=1`` opts runtime checking in."""
    return os.environ.get(_ENV_SANITIZE, "0") == "1"


@dataclass(frozen=True)
class TracedCommand:
    """One command as the sanitizer observed it."""

    kind: str  # "ACT" | "PRE" | "CAS" | "REF"
    row: int
    time_ns: float

    def __str__(self) -> str:
        return f"{self.kind}(row={self.row}) @ {self.time_ns:.2f}ns"


class ProtocolViolation(AssertionError):
    """A DDR timing rule or RRS invariant was broken.

    ``rule`` is the stable identifier tests assert on; ``window`` is
    the recent command trace of the offending bank (oldest first).
    """

    def __init__(
        self,
        rule: str,
        message: str,
        bank: Optional[Tuple[int, int, int]] = None,
        command: Optional[TracedCommand] = None,
        window: Tuple[TracedCommand, ...] = (),
    ) -> None:
        self.rule = rule
        self.bank = bank
        self.command = command
        self.window = window
        parts = [f"{rule}: {message}"]
        if bank is not None:
            parts.append(f"bank={bank}")
        if command is not None:
            parts.append(f"command={command}")
        if window:
            trace = "; ".join(str(entry) for entry in window)
            parts.append(f"trace=[{trace}]")
        super().__init__(" | ".join(parts))


class BankCommandChecker:
    """Online DDR4 timing checker for one bank's command stream.

    Callable with the ``(kind, row, time_ns)`` observer signature of
    :class:`~repro.dram.timing.BankTimingState`, so it can either be
    installed directly or chained behind another observer. Raises
    :class:`ProtocolViolation` on the first illegal command.
    """

    def __init__(
        self,
        config: DRAMConfig,
        bank: Tuple[int, int, int] = (0, 0, 0),
        window_size: int = 16,
        rank_act_history: Optional[Deque[float]] = None,
    ) -> None:
        self.config = config
        self.bank = bank
        self.open_row = -1
        self.last_act_ns = float("-inf")
        self.last_pre_ns = float("-inf")
        self.commands_seen = 0
        self.recent: Deque[TracedCommand] = deque(maxlen=window_size)
        # Shared per-rank ACT history enables tRRD/tFAW across banks.
        self._rank_acts = rank_act_history

    # ------------------------------------------------------------------
    def __call__(self, kind: str, row: int, time_ns: float) -> None:
        command = TracedCommand(kind=kind, row=row, time_ns=time_ns)
        self.commands_seen += 1
        if kind == "ACT":
            self._check_act(command)
        elif kind == "PRE":
            self._check_pre(command)
        elif kind == "CAS":
            self._check_cas(command)
        self.recent.append(command)

    def _fail(self, rule: str, message: str, command: TracedCommand) -> None:
        raise ProtocolViolation(
            rule,
            message,
            bank=self.bank,
            command=command,
            window=tuple(self.recent),
        )

    # ------------------------------------------------------------------
    def _check_act(self, command: TracedCommand) -> None:
        t = command.time_ns
        if self.open_row != -1:
            self._fail(
                "DDR-OPEN-ROW",
                f"ACT while row {self.open_row} is open",
                command,
            )
        if t - self.last_act_ns < self.config.t_rc - _EPS:
            self._fail(
                "DDR-tRC",
                f"ACT-to-ACT gap {t - self.last_act_ns:.2f}ns < "
                f"tRC={self.config.t_rc}ns",
                command,
            )
        if t - self.last_pre_ns < self.config.t_rp - _EPS:
            self._fail(
                "DDR-tRP",
                f"PRE-to-ACT gap {t - self.last_pre_ns:.2f}ns < "
                f"tRP={self.config.t_rp}ns",
                command,
            )
        if self._rank_acts is not None:
            if self.config.t_rrd > 0 and self._rank_acts:
                gap = t - self._rank_acts[-1]
                if gap < self.config.t_rrd - _EPS:
                    self._fail(
                        "DDR-tRRD",
                        f"rank ACT-to-ACT gap {gap:.2f}ns < "
                        f"tRRD={self.config.t_rrd}ns",
                        command,
                    )
            if self.config.t_faw > 0 and len(self._rank_acts) >= 4:
                fourth_back = self._rank_acts[-4]
                if t - fourth_back < self.config.t_faw - _EPS:
                    self._fail(
                        "DDR-tFAW",
                        f"5 ACTs within {t - fourth_back:.2f}ns < "
                        f"tFAW={self.config.t_faw}ns",
                        command,
                    )
            self._rank_acts.append(t)
        self.last_act_ns = t
        self.open_row = command.row

    def _check_pre(self, command: TracedCommand) -> None:
        t = command.time_ns
        if self.open_row == -1:
            self._fail("DDR-OPEN-ROW", "PRE on a closed bank", command)
        if t - self.last_act_ns < self.config.t_ras_ns - _EPS:
            self._fail(
                "DDR-tRAS",
                f"ACT-to-PRE gap {t - self.last_act_ns:.2f}ns < "
                f"tRAS={self.config.t_ras_ns}ns",
                command,
            )
        self.last_pre_ns = t
        self.open_row = -1

    def _check_cas(self, command: TracedCommand) -> None:
        t = command.time_ns
        if command.row != self.open_row:
            self._fail(
                "DDR-OPEN-ROW",
                f"CAS to row {command.row} while open row is "
                f"{self.open_row}",
                command,
            )
        if t - self.last_act_ns < self.config.t_rcd - _EPS:
            self._fail(
                "DDR-tRCD",
                f"ACT-to-CAS gap {t - self.last_act_ns:.2f}ns < "
                f"tRCD={self.config.t_rcd}ns",
                command,
            )


class RefreshCadenceChecker:
    """Validates REF burst cadence against the tREFI window."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.last_burst_ns: Optional[float] = None
        self.bursts_seen = 0

    def __call__(self, start_ns: float, bursts: int) -> None:
        if self.last_burst_ns is not None:
            gap = start_ns - self.last_burst_ns
            if gap > self.config.t_refi + _EPS:
                raise ProtocolViolation(
                    "DDR-tREFI",
                    f"refresh gap {gap:.0f}ns exceeds "
                    f"tREFI={self.config.t_refi}ns",
                    command=TracedCommand("REF", -1, start_ns),
                )
        self.last_burst_ns = start_ns
        self.bursts_seen += bursts


# ----------------------------------------------------------------------
# RRS swap-machinery audit
# ----------------------------------------------------------------------
def audit_rit(rit, bank: Optional[Tuple[int, int, int]] = None) -> None:
    """Audit one Row Indirection Table's permutation invariants.

    Raises :class:`ProtocolViolation` when the forward/inverse maps are
    not a consistent sparse permutation (``RRS-RIT-BIJECTIVE``), the
    directional-entry capacity is exceeded (``RRS-RIT-CAPACITY``), or
    the optional CAT shadow diverges from the map (``RRS-CAT-ALIAS``).
    """
    forward: Dict[int, object] = rit._map
    inverse: Dict[int, int] = rit._inverse
    if len(forward) != len(inverse):
        raise ProtocolViolation(
            "RRS-RIT-BIJECTIVE",
            f"forward map has {len(forward)} entries but inverse has "
            f"{len(inverse)} — a physical row is aliased by multiple "
            "logical rows",
            bank=bank,
        )
    seen_physical: Dict[int, int] = {}
    for logical in sorted(forward):
        entry = forward[logical]
        physical = entry.physical
        if logical == physical:
            raise ProtocolViolation(
                "RRS-RIT-BIJECTIVE",
                f"identity entry {logical}->{physical} stored (identity "
                "mappings must be absent)",
                bank=bank,
            )
        if physical in seen_physical:
            raise ProtocolViolation(
                "RRS-RIT-BIJECTIVE",
                f"physical row {physical} is the target of both logical "
                f"rows {seen_physical[physical]} and {logical}",
                bank=bank,
            )
        seen_physical[physical] = logical
        if inverse.get(physical) != logical:
            raise ProtocolViolation(
                "RRS-RIT-BIJECTIVE",
                f"inverse map disagrees: forward {logical}->{physical} "
                f"but inverse says resident of {physical} is "
                f"{inverse.get(physical)}",
                bank=bank,
            )
    if len(forward) > rit.capacity_entries:
        raise ProtocolViolation(
            "RRS-RIT-CAPACITY",
            f"{len(forward)} directional entries exceed capacity "
            f"{rit.capacity_entries}",
            bank=bank,
        )
    cat = rit._cat
    if cat is not None:
        shadow = dict(cat.items())
        expected = {logical: forward[logical].physical for logical in forward}
        if shadow != expected:
            raise ProtocolViolation(
                "RRS-CAT-ALIAS",
                f"CAT shadow ({len(shadow)} entries) diverges from the "
                f"RIT map ({len(expected)} entries)",
                bank=bank,
            )


def _audit_rrs_banks(mitigation) -> None:
    """Audit every per-bank RIT of an RRS-style mitigation."""
    banks = getattr(mitigation, "_banks", None)
    if not banks:
        return
    for bank_key in sorted(banks):
        state = banks[bank_key]
        rit = getattr(state, "rit", None)
        if rit is not None:
            audit_rit(rit, bank=bank_key)


def _checked_destination_picker(mitigation) -> Callable[..., int]:
    """Wrap ``_pick_destination`` to validate each swap destination.

    Section 4.4: the random destination must not already live in the
    RIT, and (when ``exclude_tracked_destinations`` is set) must not be
    a currently-tracked hot row — otherwise a CAT entry would alias a
    live hot row.
    """
    original = mitigation._pick_destination

    def checked(state, row: int, tracked) -> int:
        destination = original(state, row, tracked)
        if state.rit.is_swapped(destination):
            raise ProtocolViolation(
                "RRS-CAT-ALIAS",
                f"swap destination {destination} already resides in the "
                "RIT",
            )
        exclude = getattr(mitigation.config, "exclude_tracked_destinations", False)
        if exclude and tracked(destination):
            raise ProtocolViolation(
                "RRS-CAT-ALIAS",
                f"swap destination {destination} is a live hot row in "
                "the tracker",
            )
        return destination

    return checked


class ProtocolSanitizer:
    """Facade installing every runtime check on a system simulator."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.checkers: List[BankCommandChecker] = []
        self.refresh_checker: Optional[RefreshCadenceChecker] = None
        self.audits = 0

    def install(self, simulator) -> "ProtocolSanitizer":
        """Attach command checkers, the REF checker, and RRS audits."""
        for channel in simulator.channels:
            for rank_index, rank in enumerate(channel.ranks):
                rank_acts: Deque[float] = deque(maxlen=8)
                for bank in rank.banks:
                    checker = BankCommandChecker(
                        self.config,
                        bank=(channel.index, rank_index, bank.index),
                        rank_act_history=rank_acts,
                    )
                    chain_observer(bank.timing, checker)
                    self.checkers.append(checker)
        self.refresh_checker = RefreshCadenceChecker(self.config)
        chain_observer(simulator.refresh, self.refresh_checker)
        mitigation = simulator.mitigation
        if hasattr(mitigation, "_pick_destination"):
            mitigation._pick_destination = _checked_destination_picker(mitigation)
        for controller in simulator.controllers:
            controller.sanitizer = self
        return self

    def audit_mitigation(self, mitigation) -> None:
        """Post-action audit of the RRS swap machinery."""
        self.audits += 1
        _audit_rrs_banks(mitigation)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): checker state is part of sim state
    # under REPRO_SANITIZE=1 — a resumed run must see the same open-row
    # shadow and rank ACT history a from-scratch run would. The per-rank
    # deques are shared across a rank's checkers, so they are deduped by
    # identity in install order and restored in place.
    # ------------------------------------------------------------------
    def _shared_rank_histories(self) -> List[Deque[float]]:
        histories: List[Deque[float]] = []
        for checker in self.checkers:
            acts = checker._rank_acts
            if acts is not None and not any(acts is h for h in histories):
                histories.append(acts)
        return histories

    def snapshot_state(self) -> tuple:
        return (
            self.audits,
            [
                (
                    checker.open_row,
                    checker.last_act_ns,
                    checker.last_pre_ns,
                    checker.commands_seen,
                    [(c.kind, c.row, c.time_ns) for c in checker.recent],
                )
                for checker in self.checkers
            ],
            [list(acts) for acts in self._shared_rank_histories()],
            None
            if self.refresh_checker is None
            else (
                self.refresh_checker.last_burst_ns,
                self.refresh_checker.bursts_seen,
            ),
        )

    def restore_state(self, state: tuple) -> None:
        audits, checkers, rank_histories, refresh = state
        if len(checkers) != len(self.checkers):
            raise ValueError("checker count mismatch in sanitizer snapshot")
        self.audits = audits
        for checker, entry in zip(self.checkers, checkers):
            open_row, last_act, last_pre, seen, recent = entry
            checker.open_row = open_row
            checker.last_act_ns = last_act
            checker.last_pre_ns = last_pre
            checker.commands_seen = seen
            checker.recent.clear()
            checker.recent.extend(
                TracedCommand(kind=kind, row=row, time_ns=t)
                for kind, row, t in recent
            )
        histories = self._shared_rank_histories()
        if len(rank_histories) != len(histories):
            raise ValueError("rank history count mismatch in snapshot")
        for acts, saved in zip(histories, rank_histories):
            acts.clear()
            acts.extend(saved)
        if refresh is not None:
            if self.refresh_checker is None:
                raise ValueError(
                    "snapshot carries refresh-checker state but none is "
                    "installed"
                )
            last_burst_ns, bursts_seen = refresh
            self.refresh_checker.last_burst_ns = last_burst_ns
            self.refresh_checker.bursts_seen = bursts_seen

    @property
    def commands_checked(self) -> int:
        """Commands validated across all banks so far."""
        return sum(checker.commands_seen for checker in self.checkers)
