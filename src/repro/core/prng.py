"""Hardware-style pseudo-random number generation for RRS.

The paper generates swap destinations with a low-latency 64-bit PRINCE
cipher run in CTR mode over a cycle counter (Section 4.4). We model the
same construction — a keyed 64-bit block permutation applied to an
incrementing counter — with a SplitMix64-style mix network standing in
for the PRINCE rounds. The properties RRS actually relies on are
preserved: deterministic keyed permutation, uniform outputs, and
independence between differently-keyed instances. (SplitMix64 is not
cryptographically secure; a deployment would drop in PRINCE with the
same interface.)
"""

from __future__ import annotations

from typing import Dict

from repro.utils.hashing import keyed_hash, splitmix64

_MASK64 = (1 << 64) - 1
# Draws pick_row makes before it declares the bank exhausted.
MAX_DRAWS = 10_001
EXHAUSTED = (
    "could not find an eligible swap destination; "
    "exclusion set covers nearly the whole bank"
)

__all__ = ["PrinceStylePRNG", "keyed_hash", "splitmix64"]


class PrinceStylePRNG:
    """CTR-mode keyed permutation, mirroring the paper's PRNG.

    Each call encrypts the next counter value; the 64-bit output is
    reduced to the requested range by rejection sampling (no modulo
    bias — destination rows must be uniform for the security analysis
    of Section 5 to hold).
    """

    def __init__(self, key: int = 0) -> None:
        self.key = key & _MASK64
        self.counter = 0
        # keyed_hash(counter, key) with the key's mix done once.
        self._mixed_key = splitmix64(self.key)
        # bound -> largest multiple of bound that fits in 64 bits.
        self._limits: Dict[int, int] = {}

    def next_u64(self) -> int:
        """Next 64-bit pseudo-random block."""
        block = splitmix64((self.counter & _MASK64) ^ self._mixed_key)
        self.counter += 1
        return block

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): CTR mode means the stream position is
    # exactly the counter; the key is construction-time config.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (self.counter,)

    def restore_state(self, state: tuple) -> None:
        (self.counter,) = state

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        limit = self._limits.get(bound)
        if limit is None:
            if bound <= 0:
                raise ValueError("bound must be positive")
            limit = self._limits[bound] = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % bound

    def pick_row(self, rows: int, is_excluded) -> int:
        """Pick a uniform row index, re-drawing while excluded.

        Mirrors Section 4.4: rows present in the HRT or RIT are not
        valid swap destinations; with >98% of rows eligible the chance
        of needing more than one re-draw is under 1%.
        """
        for _ in range(MAX_DRAWS):
            candidate = self.below(rows)
            if not is_excluded(candidate):
                return candidate
        raise RuntimeError(EXHAUSTED)
