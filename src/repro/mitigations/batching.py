"""Shared machinery for the batched ``on_activation`` path.

The controller defers guaranteed-noop activations into per-bank buffers
(:class:`~repro.mitigations.base.ChannelBatchState`) and calls
:meth:`on_activation_batch` only when a bank's credit runs out or its
deadline passes. This module provides the template implementation every
bank-scoped mitigation shares:

* replay the buffered prefix through a subclass bulk-apply hook
  (``_apply_deferred``) — exact because each element was inside a noop
  horizon when buffered;
* process the final (possibly-triggering) activation through the
  *scalar* ``on_activation`` — the reference oracle, unchanged;
* recompute the bank's credit/deadline via ``_batch_credit``.

Window rollovers flush all buffers first (the replays are still noop),
then let the mitigation reset its trackers, then re-prime credits to
fresh-state values. Results are bit-identical to the scalar path by
construction; the equivalence suites in ``tests/mitigations`` assert it
per mitigation and end-to-end.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.mitigations.base import (
    BankKey,
    ChannelBatchState,
    Mitigation,
    MitigationOutcome,
    NO_DEADLINE,
)


class BankBatchedMitigation(Mitigation):
    """Template for mitigations with per-bank deferral state."""

    batch_scope = "bank"

    # Opt-out guard for the degenerate-batching regime: after
    # ``OPT_OUT_RUNS`` flushes on a bank, if the mean run length
    # (activations per flush) is below ``OPT_OUT_MEAN_RUN`` the bank's
    # credit is pinned to the sentinel -1. Under a sustained hammer at
    # small scaled thresholds the noop horizon sits near zero — with
    # ~W/T live counters some counter is almost always one hit from a
    # threshold multiple — so every "batch" degenerates to a run of one
    # or two and the buffer machinery is pure overhead. The controller
    # then routes the bank's activations straight to the scalar oracle
    # (identical results by definition) until the next window reset
    # re-primes the credit and clears the tally.
    OPT_OUT_RUNS = 16
    OPT_OUT_MEAN_RUN = 6.0

    def make_batch_state(
        self, channel: int, bank_keys: Sequence[BankKey]
    ) -> ChannelBatchState:
        states = getattr(self, "_batch_states", None)
        if states is None:
            states = {}
            self._batch_states: Dict[int, ChannelBatchState] = states
        if getattr(self, "_run_tally", None) is None:
            # bank_key -> [flushes, activations] since the last window
            # reset; feeds the opt-out guard above.
            self._run_tally: Dict[BankKey, list] = {}
        state = ChannelBatchState(channel, bank_keys)
        for i, key in enumerate(state.keys):
            credit, deadline = self._batch_credit(key)
            state.credits[i] = credit
            state.deadlines[i] = deadline
        states[channel] = state
        return state

    # repro-oracle: mitigation-activation -- kernel
    def on_activation_batch(
        self,
        bank_key: BankKey,
        rows: Sequence[int],
        cycles: Sequence[float],
    ) -> MitigationOutcome:
        last = len(rows) - 1
        if last > 0:
            self._apply_deferred(bank_key, rows, cycles, last)
        outcome = self.on_activation(bank_key, rows[last], rows[last], cycles[last])
        state = self._batch_states[bank_key[0]]
        index = state.index_of[bank_key]
        credit, deadline = self._batch_credit(bank_key)
        tally = self._run_tally.get(bank_key)
        if tally is None:
            tally = self._run_tally[bank_key] = [0, 0]
        tally[0] += 1
        tally[1] += last + 1
        if (
            tally[0] >= self.OPT_OUT_RUNS
            and tally[1] < self.OPT_OUT_MEAN_RUN * tally[0]
        ):
            credit = -1
        state.credits[index] = credit
        state.deadlines[index] = deadline
        return outcome

    def run_credit(self, bank_key, row, physical_row, now_ns):
        """The bank's guaranteed-noop horizon (``_batch_credit``) when it
        has no time deadline; a deadline-bound bank (TRR) stays on the
        per-activation hook."""
        credit, deadline = self._batch_credit(bank_key)
        return credit if deadline == NO_DEADLINE else 0

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _apply_deferred(
        self,
        bank_key: BankKey,
        rows: Sequence[int],
        times: Sequence[float],
        count: int,
    ) -> None:
        """Apply the first ``count`` buffered (guaranteed-noop)
        activations to this bank's tracking state."""
        raise NotImplementedError

    def _batch_credit(self, bank_key: BankKey) -> "tuple[int, float]":
        """(noop credit, deadline) for this bank's *current* state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Window-end plumbing
    # ------------------------------------------------------------------
    def _flush_batch_buffers(self) -> None:
        """Drain every buffer (replays are noop by the credit
        contract) — call before resetting window state."""
        states = getattr(self, "_batch_states", None)
        if not states:
            return
        for state in states.values():
            keys = state.keys
            times = state.times
            for i, rows in enumerate(state.rows):
                if rows:
                    self._apply_deferred(keys[i], rows, times[i], len(rows))
                    rows.clear()
                    times[i].clear()

    def prepare_for_snapshot(self) -> None:
        """Flush every deferral buffer and re-prime credits so the
        snapshot sees only tracker state. The replays are noop by the
        credit contract; resetting the opt-out tally only changes which
        execution path later activations take (batched vs scalar
        oracle), never their results."""
        self._flush_batch_buffers()
        self._reset_batch_credits()

    def _reset_batch_credits(self) -> None:
        """Re-prime every bank's credit — call after window resets."""
        states = getattr(self, "_batch_states", None)
        if not states:
            return
        tally = getattr(self, "_run_tally", None)
        if tally:
            tally.clear()
        for state in states.values():
            credits = state.credits
            deadlines = state.deadlines
            for i, key in enumerate(state.keys):
                credits[i], deadlines[i] = self._batch_credit(key)


def drain_batch_state(state: ChannelBatchState) -> List[int]:
    """Testing helper: banks that still hold buffered activations."""
    return [i for i, rows in enumerate(state.rows) if rows]
