"""The per-bank deferral contract of the compiled loop (DESIGN.md §9).

The compiled system loop (:mod:`repro.mem.block_kernel`) owns every
deferral structure: per-bank credits, deadlines and buffers, and the
opt-out tally. A bank-scoped mitigation only answers two questions:

* :meth:`BankBatchedMitigation.batch_credit` — how many further
  activations of the bank are guaranteed noops, and until when (its
  *noop horizon*);
* :meth:`BankBatchedMitigation.apply_deferred` — apply a run of such
  activations to the bank's tracking state in bulk.

:meth:`BankBatchedMitigation.on_activation_batch` is the loop's flush
entry: it replays the buffered prefix through ``apply_deferred`` and
sends the final (possibly acting) activation through the scalar
``on_activation``, the reference oracle. Replaying a prefix early is
exact, because every element was inside a noop horizon when it was
buffered. The equivalence suites in ``tests/mem`` assert bit-identity
against the per-activation scalar loop per mitigation.
"""

from __future__ import annotations

from typing import List

from repro.mitigations.base import (
    BankKey,
    Mitigation,
    MitigationOutcome,
    NO_DEADLINE,
)


class BankBatchedMitigation(Mitigation):
    """Template for mitigations with per-bank deferral."""

    batch_scope = "bank"

    # repro-oracle: mitigation-activation -- kernel
    def on_activation_batch(
        self,
        bank_key: BankKey,
        rows: List[int],
        cycles: List[float],
    ) -> MitigationOutcome:
        """A bank's buffered activations plus the one that ended the
        buffer: every element but the last was inside a noop horizon;
        the last may act, and its outcome is returned. Writes no
        deferral state: the caller re-primes the bank's credit."""
        last = len(rows) - 1
        if last:
            self.apply_deferred(bank_key, rows[:last], cycles[:last])
        return self.on_activation(bank_key, rows[last], rows[last], cycles[last])

    def run_credit(self, bank_key, row, physical_row, now_ns):
        """The bank's guaranteed-noop horizon (``batch_credit``) when it
        has no time deadline; a deadline-bound bank (TRR) stays on the
        per-activation hook."""
        credit, deadline = self.batch_credit(bank_key)
        return credit if deadline == NO_DEADLINE else 0

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def apply_deferred(
        self, bank_key: BankKey, rows: List[int], times: List[float]
    ) -> None:
        """Apply guaranteed-noop activations of logical ``rows``
        (completing at ``times``), in order, to this bank's tracking
        state. Both are plain lists of the same length."""
        raise NotImplementedError

    def batch_credit(self, bank_key: BankKey) -> "tuple[int, float]":
        """(noop credit, deadline) for this bank's *current* state:
        the next ``credit`` activations completing before ``deadline``
        are guaranteed noops."""
        raise NotImplementedError
