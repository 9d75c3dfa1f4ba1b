"""The unprotected baseline: observe nothing, do nothing.

Every performance number in the paper is normalized to this
configuration, and the classic-RowHammer demo shows it flipping bits.
"""

from __future__ import annotations

from repro.mitigations.base import INFINITE_CREDIT, Mitigation


class NoMitigation(Mitigation):
    """Baseline memory controller behaviour (no Row Hammer defense)."""

    name = "Baseline"

    def run_credit(self, bank_key, row, physical_row, now_ns):
        """Nothing is ever mitigated: every activation is a noop."""
        return INFINITE_CREDIT

    def on_activation_run(self, bank_key, row, physical_row, count):
        """No state to update."""
