"""Chrome/Perfetto trace-event export.

Converts the tracer's event stream into the Trace Event Format JSON
that both ``chrome://tracing`` and https://ui.perfetto.dev load
directly:

* each DRAM **bank** becomes a thread track inside its channel's
  process group (ACT/PRE/CAS as instants, swaps and victim refreshes as
  instants on the same track);
* each **core** becomes a thread track carrying request-lifetime slices
  (arrival to data return);
* refresh bursts, refresh-window frames, and the whole-run span live on
  ``system`` tracks, and a cumulative ``swaps`` counter track plots
  swap pressure over time.

Timestamps convert from simulated ns to the format's microseconds.
:func:`validate_trace` checks an exported document against the schema
expectations Perfetto enforces (the ``trace-smoke`` CI job runs it on a
real export).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import (
    PHASE_COMPLETE,
    PHASE_COUNTER,
    TraceEvent,
)

_SYSTEM_PID = 1
_CORES_PID = 2
_CHANNEL_PID_BASE = 10

_VALID_PHASES = {"B", "E", "X", "i", "I", "C", "M", "b", "e", "n", "s", "t", "f"}


def _ns_to_us(value: float) -> float:
    return value / 1000.0


class _TrackTable:
    """Deterministic track tuple -> (pid, tid) assignment."""

    def __init__(self, tracks: Iterable[Tuple]) -> None:
        self._assignment: Dict[Tuple, Tuple[int, int]] = {}
        self.process_names: Dict[int, str] = {_SYSTEM_PID: "system"}
        self.thread_names: Dict[Tuple[int, int], str] = {}

        sys_names = sorted(
            {track[1] for track in tracks if track and track[0] == "sys"}
        )
        for tid, name in enumerate(sys_names, start=1):
            self._assignment[("sys", name)] = (_SYSTEM_PID, tid)
            self.thread_names[(_SYSTEM_PID, tid)] = str(name)

        cores = sorted(
            {track[1] for track in tracks if track and track[0] == "core"}
        )
        if cores:
            self.process_names[_CORES_PID] = "cores"
        for core in cores:
            key = (_CORES_PID, int(core) + 1)
            self._assignment[("core", core)] = key
            self.thread_names[key] = f"core {core}"

        channels = sorted(
            {track[1] for track in tracks if track and track[0] in ("chan", "bank")}
        )
        for channel in channels:
            pid = _CHANNEL_PID_BASE + int(channel)
            self.process_names[pid] = f"channel {channel}"
            self._assignment[("chan", channel)] = (pid, 0)
            self.thread_names[(pid, 0)] = "bus"
            banks = sorted(
                track[2:]
                for track in tracks
                if track and track[0] == "bank" and track[1] == channel
            )
            for tid, (rank, bank) in enumerate(banks, start=1):
                key = (pid, tid)
                self._assignment[("bank", channel, rank, bank)] = key
                self.thread_names[key] = f"rank {rank} bank {bank}"

    def locate(self, track: Tuple) -> Tuple[int, int]:
        located = self._assignment.get(tuple(track))
        if located is None:
            # Unknown track shapes land on the system process, tid 0.
            return (_SYSTEM_PID, 0)
        return located


def to_trace_events(
    events: Sequence[TraceEvent],
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Render tracer events as a Trace Event Format document."""
    table = _TrackTable([event.track for event in events])
    trace_events: List[Dict[str, Any]] = []

    for pid in sorted(table.process_names):
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": table.process_names[pid]},
            }
        )
    for pid, tid in sorted(table.thread_names):
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": table.thread_names[(pid, tid)]},
            }
        )

    swap_total = 0
    for event in events:
        pid, tid = table.locate(event.track)
        rendered: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "pid": pid,
            "tid": tid,
            "ts": _ns_to_us(event.ts_ns),
        }
        if event.args:
            rendered["args"] = dict(event.args)
        if event.phase == PHASE_COMPLETE:
            rendered["ph"] = "X"
            rendered["dur"] = _ns_to_us(event.dur_ns)
        elif event.phase == PHASE_COUNTER:
            rendered["ph"] = "C"
        else:
            rendered["ph"] = "i"
            rendered["s"] = "t"
        trace_events.append(rendered)
        if event.category == "rrs.swap":
            swap_total += 1
            trace_events.append(
                {
                    "name": "swaps",
                    "cat": "rrs.swap",
                    "ph": "C",
                    "pid": _SYSTEM_PID,
                    "tid": 0,
                    "ts": _ns_to_us(event.ts_ns),
                    "args": {"swaps": swap_total},
                }
            )

    document: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
    }
    if metadata:
        document["otherData"] = dict(metadata)
    return document


def write_trace(
    path: Path,
    events: Sequence[TraceEvent],
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Export ``events`` to a Perfetto-loadable JSON file."""
    path = Path(path)
    document = to_trace_events(events, metadata=metadata)
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Validation (trace-smoke CI gate)
# ----------------------------------------------------------------------
def validate_trace(document: Any) -> List[str]:
    """Schema problems in a trace-event document (empty list == valid).

    Checks the expectations the Perfetto / ``chrome://tracing``
    importers enforce: a ``traceEvents`` array of objects, known phase
    letters, numeric non-negative timestamps, durations on complete
    events, pid/tid integers, and process/thread naming metadata so
    tracks render with labels.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["top level must be a JSON object with a 'traceEvents' array"]
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["'traceEvents' must be a non-empty array"]

    has_process_name = False
    has_thread_name = False
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} must be an integer")
        if phase == "M":
            if event.get("name") == "process_name":
                has_process_name = True
            elif event.get("name") == "thread_name":
                has_thread_name = True
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: complete event needs a non-negative dur"
                )
        if phase in ("i", "I") and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: instant scope must be one of t/p/g")
        if phase == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: counter event needs numeric args")
    if not has_process_name:
        problems.append("no process_name metadata (tracks would be unnamed)")
    if not has_thread_name:
        problems.append("no thread_name metadata (tracks would be unnamed)")
    return problems


def validate_trace_file(path: Path) -> Dict[str, Any]:
    """Load + validate an exported trace; raises ValueError on problems."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    problems = validate_trace(document)
    if problems:
        summary = "; ".join(problems[:8])
        raise ValueError(
            f"{path}: invalid trace-event JSON ({len(problems)} problem(s)): "
            f"{summary}"
        )
    return document
