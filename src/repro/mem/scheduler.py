"""Request scheduling policies.

The paper's memory controller uses First-Come-First-Serve (FCFS). We
also provide FR-FCFS (row-buffer-hit-first) as an ablation. Schedulers
order a pending queue; the controller services whatever the scheduler
hands it next. With the system simulator's eager in-order issue the
FCFS policy is exact; FR-FCFS reorders within whatever backlog exists.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.mem.request import MemoryRequest


def _require_drained(scheduler) -> None:
    """Raise NotSnapshotable unless the scheduler's backlog is empty."""
    if len(scheduler):
        from repro.state.protocol import NotSnapshotable

        raise NotSnapshotable(
            f"{scheduler.name} scheduler holds {len(scheduler)} pending "
            "requests; drain the backlog before cutting"
        )


def _trace_queue(tracer, name: str, request: MemoryRequest, depth: int) -> None:
    """Emit one ``exec`` queue event (repro.obs); no-op without tracer."""
    if tracer is None or not tracer.wants("exec"):
        return
    tracer.emit(
        "exec",
        name,
        request.arrival_ns,
        track=("sys", "queue"),
        args={"depth": depth, "core": request.core_id},
    )


def drain_through(
    scheduler,
    controller,
    open_rows: Optional[Dict[tuple, int]] = None,
) -> float:
    """Service a scheduler's entire backlog through ``controller``.

    Repeatedly picks in policy order, services each request, and keeps
    the bank-key -> open-row view current so FR-FCFS sees the row
    buffers it is creating. Returns the completion time of the last
    request serviced (0.0 for an empty backlog). This is the canonical
    backlog-replay loop; ablation drivers should use it rather than
    hand-rolling the pick/service/open-row bookkeeping.
    """
    if open_rows is None:
        open_rows = {}
    finish = 0.0
    while True:
        request = scheduler.pick(open_rows)
        if request is None:
            return finish
        done = controller.service(request)
        if done > finish:
            finish = done
        decoded = request.decoded
        if decoded is not None:
            open_rows[decoded.bank_key] = request.physical_row


class FCFSScheduler:
    """Strict arrival-order scheduling (the paper's baseline policy)."""

    name = "FCFS"

    def __init__(self) -> None:
        self._queue: Deque[MemoryRequest] = deque()
        # Observability slot (repro.obs): queue enqueue/dequeue events.
        self.tracer = None

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, request: MemoryRequest) -> None:
        """Admit one request to the pending queue."""
        self._queue.append(request)
        if self.tracer is not None:
            _trace_queue(self.tracer, "enqueue", request, len(self._queue))

    def pick(self, open_rows: Dict[tuple, int]) -> Optional[MemoryRequest]:
        """Pop the request to service next; None when queue is empty.

        ``open_rows`` maps bank-key -> open row (unused by FCFS, present
        so both policies share a signature).
        """
        if not self._queue:
            return None
        request = self._queue.popleft()
        if self.tracer is not None:
            _trace_queue(self.tracer, "dequeue", request, len(self._queue))
        return request

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): pending requests are live objects
    # with no serialized form, so a cut must land on a drained
    # backlog — the only persistent state is then "empty".
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        _require_drained(self)
        return ()

    def restore_state(self, state: tuple) -> None:
        _require_drained(self)
        if state != ():
            raise ValueError(f"unexpected {self.name} scheduler state")


class FRFCFSScheduler:
    """First-Ready FCFS: row-buffer hits first, then the oldest request.

    Classic open-page optimization: among pending requests, any request
    targeting a currently open row is serviced before older requests
    that would need an activate.
    """

    name = "FR-FCFS"

    def __init__(self) -> None:
        self._queue: Deque[MemoryRequest] = deque()
        # Observability slot (repro.obs): queue enqueue/dequeue events.
        self.tracer = None

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, request: MemoryRequest) -> None:
        """Admit one request to the pending queue."""
        self._queue.append(request)
        if self.tracer is not None:
            _trace_queue(self.tracer, "enqueue", request, len(self._queue))

    def pick(self, open_rows: Dict[tuple, int]) -> Optional[MemoryRequest]:
        """Pop the first row-buffer hit, falling back to the oldest."""
        if not self._queue:
            return None
        picked = None
        for index, request in enumerate(self._queue):
            decoded = request.decoded
            if decoded is None:
                continue
            if open_rows.get(decoded.bank_key, -1) == decoded.row:
                del self._queue[index]
                picked = request
                break
        if picked is None:
            picked = self._queue.popleft()
        if self.tracer is not None:
            _trace_queue(self.tracer, "dequeue", picked, len(self._queue))
        return picked

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): same drained-backlog contract as FCFS.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        _require_drained(self)
        return ()

    def restore_state(self, state: tuple) -> None:
        _require_drained(self)
        if state != ():
            raise ValueError(f"unexpected {self.name} scheduler state")
