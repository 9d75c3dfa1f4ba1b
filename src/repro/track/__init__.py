"""Aggressor-row tracking structures.

* :class:`MisraGriesTracker` — the Graphene-style frequent-items
  tracker the paper uses for the Hot-Row Tracker (reference
  implementation, Figure 3 semantics, Invariant-1 guarantee).
* :class:`CollisionAvoidanceTable` — the paper's CAT (Section 6): a
  two-table skew-associative structure with over-provisioned ways and
  load-balancing installs, giving conflict-free storage at
  set-associative lookup cost.
* :class:`CountingBloomFilter` — the tracker BlockHammer uses.
"""

from repro.track.misra_gries import MisraGriesTracker
from repro.track.cat import CATConfig, CollisionAvoidanceTable
from repro.track.bloom import CountingBloomFilter

__all__ = [
    "MisraGriesTracker",
    "CATConfig",
    "CollisionAvoidanceTable",
    "CountingBloomFilter",
]
