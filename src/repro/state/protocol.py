"""The ``Snapshotable`` state protocol.

Every class that holds mutable simulation state implements two methods:

* ``snapshot_state() -> tuple`` — a pure-data picture of the object's
  mutable state: nothing but tuples, lists, dicts, scalars, and numpy
  arrays. No live objects, no pickling — sets, deques and Counters are
  converted to ordered plain data by the owning class, because *it*
  knows which iteration orders are semantically load-bearing (the RIT's
  eviction order, a Counter's ``most_common`` tie-break).
* ``restore_state(state)`` — the exact inverse, applied to an object
  freshly constructed from the same configuration. Restore overwrites
  every mutable field; construction supplies everything derivable from
  config (seeds, tables, capacity), which is what makes the scheme
  deterministic without serializing closures or object graphs.

Aliased structures must be restored *in place* — mutate the shared
object, never rebind it — so every alias observes the restored state.

``STATE_SCHEMA_VERSION`` stamps every serialized checkpoint; loading a
payload from a different schema fails loudly instead of misreading it.
"""

from __future__ import annotations

from typing import Any, Protocol, Tuple, runtime_checkable

STATE_SCHEMA_VERSION = 6


class NotSnapshotable(RuntimeError):
    """Raised when live state cannot be captured as a checkpoint.

    Examples: a ``Core`` whose trace source has no ``snapshot_state``
    (a packed record iterator), or a controller with writes still
    buffered in an ablation-only write queue.
    """


@runtime_checkable
class Snapshotable(Protocol):
    """Structural protocol for checkpointable simulation state."""

    def snapshot_state(self) -> Tuple[Any, ...]:
        """Pure-data picture of this object's mutable state."""
        ...

    def restore_state(self, state: Tuple[Any, ...]) -> None:
        """Inverse of :meth:`snapshot_state` on a fresh-built object."""
        ...


def is_snapshotable(obj: Any) -> bool:
    """True when ``obj`` implements both protocol methods."""
    return isinstance(obj, Snapshotable)
