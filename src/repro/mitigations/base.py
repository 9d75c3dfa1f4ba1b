"""Mitigation interface shared by RRS and every baseline defense.

The memory controller drives mitigations through four hooks, mirroring
where real hardware defenses sit in the pipeline:

1. :meth:`Mitigation.route` — address indirection *before* the bank is
   touched (only RRS's RIT does anything here).
2. :meth:`Mitigation.pre_activate_delay_ns` — throttling *before* an
   ACT issues (only BlockHammer does anything here).
3. :meth:`Mitigation.on_activation` — observation of each ACT plus the
   mitigating action it triggers, returned declaratively as a
   :class:`MitigationOutcome` that the controller applies (victim
   refreshes on the bank, channel blocking for row swaps).
4. :meth:`Mitigation.on_window_end` — epoch rollover (tracker resets,
   RIT lock-bit clearing).

The attack harnesses add a run contract on top: :meth:`run_credit`
proves how many further activations of one row are noops, and
:meth:`on_activation_run` applies that many in one call.

Mitigations are *per-rank* objects managing per-bank state internally,
matching the paper's per-bank HRT/RIT sizing (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

BankKey = Tuple[int, int, int]  # (channel, rank, bank)

# The run credit (``Mitigation.run_credit``) of a mitigation that never
# acts on an activation (``NoMitigation``).
INFINITE_CREDIT = 1 << 60


@dataclass
class MitigationOutcome:
    """Actions a mitigation requests in response to one activation.

    ``refresh_rows``: physical rows the controller must issue targeted
    refreshes to (victim-focused mitigations).
    ``channel_block_ns``: how long the channel is unavailable (row-swap
    streaming in RRS: 2.9us typical, 4.4us worst case).
    ``swaps``: (row_a, row_b) physical pairs whose *contents* moved, so
    fault-model bookkeeping and tests can follow the data.
    ``refresh_all_bank``: preemptive whole-bank refresh (the paper's
    footnote-2 response to a detected attack) — restores every row's
    charge at the cost of a multi-millisecond stall.
    """

    refresh_rows: List[int] = field(default_factory=list)
    channel_block_ns: float = 0.0
    swaps: List[Tuple[int, int]] = field(default_factory=list)
    refresh_all_bank: bool = False

    @property
    def is_noop(self) -> bool:
        """True when no mitigating action was requested."""
        return (
            not self.refresh_rows
            and self.channel_block_ns == 0.0
            and not self.swaps
            and not self.refresh_all_bank
        )


NOOP_OUTCOME = MitigationOutcome()


def tracker_run_credit(tracker, row: int, threshold: int) -> int:
    """The run credit (:meth:`Mitigation.run_credit`) of ``row`` on a
    Misra-Gries ``tracker`` that acts when an estimate lands on a
    non-zero multiple of ``threshold``: ``T - 1 - b % T``, where ``b``
    is the row's estimate or, for an untracked row, the spill counter.

    Proof, for a run of ``k`` activations of ``row`` alone (Figure 3,
    as ``ArrayMisraGries`` implements it):

    * A tracked row's counter moves only by its own hits, so the run's
      estimates are ``b + 1, ..., b + k``.
    * An untracked row spills (estimate 0, a noop) until it is
      installed at ``spill' + 1``, where ``spill0 <= spill' <= spill0 +
      j`` after ``j`` spills, and then only bumps. So every non-zero
      estimate of the run lies in ``[spill0 + 1, spill0 + k]``.

    Either way no estimate of the run reaches the next multiple of T
    above ``b`` while ``k <= T - 1 - b % T``.
    """
    base = tracker.estimate(row) or tracker.spill
    return threshold - 1 - base % threshold


class Mitigation:
    """Base class: observes activations, requests no action."""

    name = "base"

    # Observability slot (repro.obs): when a Tracer is attached the
    # defense may emit events (RRS reports `rrs.swap`). Mitigations
    # must treat the tracer as write-only telemetry — tracing can never
    # change what a defense decides, so traced and untraced runs stay
    # bit-identical. None (the default) costs one attribute test.
    tracer = None

    def route(self, bank_key: BankKey, row: int) -> int:
        """Map a logical row to the physical row to access."""
        return row

    def lookup_latency_ns(self) -> float:
        """Extra critical-path latency added to every memory access."""
        return 0.0

    def pre_activate_delay_ns(
        self, bank_key: BankKey, row: int, now_ns: float
    ) -> float:
        """Delay imposed before an ACT may issue (throttling defenses)."""
        return 0.0

    def on_activation(
        self,
        bank_key: BankKey,
        row: int,
        physical_row: int,
        now_ns: float,
    ) -> MitigationOutcome:
        """Observe one ACT; return requested actions.

        ``row`` is the logical (pre-indirection) row — what RRS's HRT
        indexes in parallel with the RIT (paper Figure 2); victim-
        focused defenses act on ``physical_row``, whose neighbours are
        the rows physically at risk. The two coincide for every defense
        except RRS.
        """
        return NOOP_OUTCOME

    def on_window_end(self, window_index: int) -> None:
        """Refresh-window (epoch) rollover."""

    # ------------------------------------------------------------------
    # Run contract (attack harnesses; DESIGN.md §9.7). A credit of ``k``
    # promises that the next ``k`` activations of ``row`` — with no
    # other activation and no window end in between — are all noops:
    # no action, no ``pre_activate_delay_ns`` and an unchanged
    # ``route``. The harness then charges them in one
    # ``on_activation_run`` call instead of ``k`` ``on_activation``
    # calls. The default 0 keeps every activation on the scalar hook.
    # ------------------------------------------------------------------
    def run_credit(
        self, bank_key: BankKey, row: int, physical_row: int, now_ns: float
    ) -> int:
        """Activations of ``row`` from now on that are guaranteed noops."""
        return 0

    def on_activation_run(
        self, bank_key: BankKey, row: int, physical_row: int, count: int
    ) -> None:
        """Apply ``count`` credited activations of ``row``: the state
        ``count`` noop ``on_activation`` calls would leave."""
        raise NotImplementedError(
            f"{type(self).__name__} grants run credit without applying runs"
        )

    def storage_bits_per_bank(self, rows_per_bank: int) -> int:
        """SRAM bits this defense needs per bank (0 for stateless)."""
        return 0

    # ------------------------------------------------------------------
    # Tracker hand-off (the compiled loop only; DESIGN.md §9). The
    # scalar controller calls ``on_activation`` for every activation.
    # ------------------------------------------------------------------
    def hot_row_tracker(self, bank_key: BankKey) -> Optional[Tuple[object, int]]:
        """This bank's Misra-Gries tracker (an ``ArrayMisraGries``) and
        its action threshold, for the compiled loop to run itself; None
        (the default) keeps the bank on ``on_activation``. RRS and
        Graphene hand theirs over; a test or bench that wants the
        per-activation hook overrides this method on the instance to
        return None.

        The compiled loop consults it, when the class overrides it, at
        each bank's first activation (``block_kernel.replay_hot_rows``
        for its one bank) and then owns the tracker's updates: it
        observes the *logical* row of every activation (RRS's tracker
        index; a mitigation that never routes, like Graphene, sees its
        physical rows) and calls :meth:`on_hot_row` only when the
        estimate lands on a non-zero multiple of the threshold, so an
        override's ``on_activation`` must be exactly that observe, check
        and act. The tracker is loaded with ``snapshot_state`` at loop
        entry and after window ends and written back with
        ``restore_state`` before window callbacks and whenever the loop
        returns; in between it is stale, and :meth:`on_hot_row` reads
        membership from its ``tracked`` predicate."""
        return None

    def on_hot_row(
        self, bank_key: BankKey, row: int, now_ns: float, tracked: Callable[[int], bool]
    ) -> MitigationOutcome:
        """Act on logical ``row``, whose tracker estimate just landed on
        a multiple of the :meth:`hot_row_tracker` threshold, reading
        tracker membership only, through ``tracked(r)``."""
        raise NotImplementedError(
            f"{type(self).__name__} publishes a tracker without acting on it"
        )

    def route_table(self, bank_key: BankKey) -> Optional[Dict[int, int]]:
        """This bank's non-identity routes as a logical->physical dict
        (None or empty: identity), a permutation of rows. The compiled
        loop mirrors it whole at entry and window ends and, after an
        action, only the rows now resident at the physical rows of its
        ``swaps``, so an override must change routes only there and only
        by the swaps it reports; a mitigation that routes without
        overriding this hook gets one :meth:`route` call per access."""
        return None

    # ------------------------------------------------------------------
    # Snapshotable (repro.state). The base class carries no mutable
    # simulation state, so its snapshot is empty; stateful defenses
    # override both methods. Restores happen onto a freshly constructed
    # mitigation.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple:
        return ()

    def restore_state(self, state: Tuple) -> None:
        if state:
            raise ValueError(
                f"{type(self).__name__} has no state to restore, got {state!r}"
            )
