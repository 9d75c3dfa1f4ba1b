"""Append-only, schema-versioned JSONL run ledger.

Every sweep point executed (or served from cache) by
:class:`~repro.exec.runner.SweepRunner` becomes one line in the ledger:
who ran what, on which worker, how long it took, whether the cache
served it, how much memory the worker peaked at, and a compact
:class:`~repro.mem.metrics.SimMetrics` summary. The ledger is the
fleet-level complement to the in-run tracer — HammerSim-style
evaluation harness bookkeeping that makes sweeps comparable *across*
runs and machines, not just inside one process.

Invariants
----------
* **Observational.** The ledger only records; nothing in the
  simulation ever reads it. A sweep with the ledger enabled produces
  bit-identical :class:`SimMetrics` to one with it disabled (asserted
  by ``tests/exec/test_determinism.py``). Like any package edit, a
  ledger change still misses the result cache once: cache keys carry
  the package's source digest (:func:`repro.exec.cache.source_digest`).
* **Append-only.** :meth:`RunLedger.append` writes one JSON line per
  entry with a single ``write`` call on a line-buffered append handle;
  concurrent sweeps interleave whole lines, never torn ones (POSIX
  O_APPEND semantics for writes of this size). History is never
  rewritten in place — :meth:`RunLedger.compact` replaces the file
  atomically.
* **Schema-versioned.** Every entry carries ``schema_version``;
  readers skip lines they cannot parse instead of aborting, so a
  ledger shared between tool versions stays readable.

Location: ``$REPRO_LEDGER`` when set (a file path, or ``0`` to
disable), else ``<cache-dir>/ledger/ledger.jsonl`` under the result
cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exec.cache import default_cache_dir
from repro.mem.metrics import SimMetrics

LEDGER_SCHEMA_VERSION = 2

_ENV_LEDGER = "REPRO_LEDGER"

# Point lifecycle statuses recorded in the ledger.
STATUS_OK = "ok"                # simulated cleanly on the first attempt
STATUS_CACHED = "cached"        # served from the result cache
STATUS_RETRIED = "retried"      # first attempt failed; retry succeeded
STATUS_FAILED = "failed"        # attempt failed (paired with a retry row)
STATUS_COPIED = "copied"        # same key as an earlier point of its batch

STATUSES = (STATUS_OK, STATUS_CACHED, STATUS_RETRIED, STATUS_FAILED, STATUS_COPIED)


def default_ledger_path() -> Path:
    """Ledger file: ``$REPRO_LEDGER`` or ``<cache-dir>/ledger/ledger.jsonl``."""
    override = os.environ.get(_ENV_LEDGER, "")
    if override and override != "0":
        return Path(override)
    return default_cache_dir() / "ledger" / "ledger.jsonl"


def ledger_enabled_by_env() -> bool:
    """False only when ``REPRO_LEDGER=0`` explicitly opts out."""
    return os.environ.get(_ENV_LEDGER, "") != "0"


def summarize_metrics(metrics: SimMetrics) -> Dict[str, Any]:
    """Compact, drift-comparable summary of one run's metrics.

    Everything here is deterministic simulator output (a pure function
    of the sweep point), so cross-run comparisons of these fields see
    code drift, never host noise. Host-dependent telemetry (wall time,
    RSS) lives in the entry itself, not the summary.
    """
    return {
        "ipc": metrics.ipc,
        "instructions": metrics.instructions,
        "accesses": metrics.accesses,
        "activations": metrics.activations,
        "swaps": metrics.swaps,
        "victim_refreshes": metrics.victim_refreshes,
        "throttle_delay_ns": metrics.throttle_delay_ns,
        "mean_read_latency_ns": metrics.mean_read_latency_ns,
        "sim_time_ns": metrics.sim_time_ns,
        "windows": metrics.windows,
        "bit_flips": metrics.bit_flips,
    }


@dataclass
class LedgerEntry:
    """One sweep point's ledger row (schema v2).

    ``ts`` is host wall-clock seconds (telemetry only — nothing in the
    simulation reads it). ``worker`` is the executing process id (the
    parent's for serial and cached points). ``peak_rss_kb`` is the
    worker's ``ru_maxrss`` after the point ran, 0 when unknown.
    ``summary`` is :func:`summarize_metrics` output for successful
    points, empty for failures.

    Schema v2 adds crash-containment and checkpoint telemetry:
    ``max_retries`` (the retry budget the sweep ran under),
    ``resumed_from`` (serviced requests skipped by resuming from a
    persisted checkpoint; 0 = from scratch), and ``checkpoints`` (cuts
    this execution persisted). v1 rows load with the field defaults.
    """

    run_id: str = ""
    label: str = ""
    point: str = ""
    workload: str = ""
    mitigation: str = ""
    scale: int = 0
    seed: int = 0
    cache_key: str = ""
    status: str = STATUS_OK
    cache_hit: bool = False
    ts: float = 0.0
    wall_seconds: float = 0.0
    worker: int = 0
    peak_rss_kb: int = 0
    straggler: bool = False
    error: str = ""
    summary: Dict[str, Any] = field(default_factory=dict)
    max_retries: int = 0
    resumed_from: int = 0
    checkpoints: int = 0
    schema_version: int = LEDGER_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LedgerEntry":
        """Build an entry, ignoring unknown keys from newer schemas."""
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})

    @property
    def group(self) -> Tuple[str, str, int]:
        """Drift-comparison group: ``(workload, mitigation, scale)``."""
        return (self.workload, self.mitigation, self.scale)

    @property
    def requests_per_second(self) -> Optional[float]:
        """Host throughput for simulated points; None for cached/failed."""
        if self.cache_hit or self.wall_seconds <= 0.0 or not self.summary:
            return None
        accesses = self.summary.get("accesses", 0)
        return accesses / self.wall_seconds if accesses else None


class RunLedger:
    """Append-only JSONL file of :class:`LedgerEntry` rows.

    ``enabled=False`` turns every method into a no-op that reports an
    empty ledger, so callers never need to branch.
    """

    def __init__(
        self,
        path: Optional[Path] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()
        self.enabled = ledger_enabled_by_env() if enabled is None else enabled
        self.appended = 0

    def append(self, entry: LedgerEntry) -> None:
        """Write one entry as a single JSON line (append-only)."""
        if not self.enabled:
            return
        line = json.dumps(entry.to_dict(), sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
        self.appended += 1

    def append_all(self, entries: Iterable[LedgerEntry]) -> None:
        """Append a batch of entries with one file open."""
        if not self.enabled:
            return
        batch = [json.dumps(e.to_dict(), sort_keys=True) for e in entries]
        if not batch:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write("\n".join(batch) + "\n")
        self.appended += len(batch)

    def read(self) -> List[LedgerEntry]:
        """Every parseable entry, in file (chronological) order."""
        if not self.enabled:
            return []
        return read_ledger(self.path)

    def compact(self, keep_failures: bool = True) -> Tuple[int, int]:
        """Rewrite the file keeping the newest entry per logical row.

        A logical row is ``(cache_key, status)`` — re-running a sweep
        appends fresh ``cached`` rows for every hit, so long-lived
        ledgers fill up with duplicates that add no history. Compaction
        keeps the *newest* occurrence of each logical row (preserving
        relative order), drops unparseable lines, and optionally drops
        ``failed`` rows. Returns ``(kept, dropped)``; the rewrite is
        atomic (temp file + ``os.replace``).
        """
        if not self.enabled or not self.path.exists():
            return (0, 0)
        entries = read_ledger(self.path)
        total_lines = sum(
            1 for line in self.path.read_text().splitlines() if line.strip()
        )
        newest: Dict[Tuple[str, str], int] = {}
        for index, entry in enumerate(entries):
            if not keep_failures and entry.status == STATUS_FAILED:
                continue
            newest[(entry.cache_key, entry.status)] = index
        keep_indices = sorted(newest.values())
        kept = [entries[i] for i in keep_indices]

        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=".tmp-ledger-", suffix=".jsonl"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                for entry in kept:
                    handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return (len(kept), total_lines - len(kept))

    def __len__(self) -> int:
        return len(self.read())


def read_ledger(path: Path) -> List[LedgerEntry]:
    """Parse a ledger file; malformed lines are skipped, not fatal.

    A shared ledger may interleave writers of different tool versions;
    one bad line must never make the whole history unreadable.
    """
    path = Path(path)
    entries: List[LedgerEntry] = []
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                continue
            entries.append(LedgerEntry.from_dict(data))
        except (ValueError, TypeError):
            continue
    return entries


def latest_run_id(entries: Iterable[LedgerEntry]) -> str:
    """The run id of the newest entry (file order), or ``""``."""
    run_id = ""
    for entry in entries:
        if entry.run_id:
            run_id = entry.run_id
    return run_id


def split_latest_run(
    entries: List[LedgerEntry],
) -> Tuple[List[LedgerEntry], List[LedgerEntry]]:
    """``(history, fresh)`` where fresh is the newest run's entries."""
    run_id = latest_run_id(entries)
    if not run_id:
        return (list(entries), [])
    fresh = [e for e in entries if e.run_id == run_id]
    history = [e for e in entries if e.run_id != run_id]
    return (history, fresh)
