"""A patch target with no caller.

The compiled loop no longer defers activations (DESIGN.md §9): a bank
either runs its mitigation's Misra-Gries tracker in C or calls
``on_activation``. Nothing subclasses :class:`BankBatchedMitigation` or
calls :meth:`BankBatchedMitigation.on_activation_batch`; both remain
only because ``perfbench/spans.py`` wraps that method by name, and its
``make_patch`` raises when the method is missing. The next change to
the benchmark deletes the patch and this module with it.
"""

from __future__ import annotations

from typing import List

from repro.mitigations.base import BankKey, Mitigation, MitigationOutcome


class BankBatchedMitigation(Mitigation):
    """Unused; kept as ``perfbench/spans.py``'s patch target."""

    def on_activation_batch(
        self,
        bank_key: BankKey,
        rows: List[int],
        cycles: List[float],
    ) -> MitigationOutcome:
        """Unreached: raises."""
        raise NotImplementedError("the compiled loop defers no activations")
