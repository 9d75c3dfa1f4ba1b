"""Parallel sweep executor.

Every performance experiment in the paper — Figure 6/10/11, Tables 4-7
— is a sweep of *independent* full-system runs (workload x mitigation x
threshold). :class:`SweepRunner` fans those runs out across worker
processes and memoizes each one in the content-addressed
:class:`~repro.exec.cache.ResultCache`.

Determinism: a run is a pure function of its :class:`SweepPoint` — the
trace generators and the RRS destination picker all draw from named
streams derived from the point's seed (``repro.utils.rng``), so results
are bit-identical whether a point executes in-process, in a worker, or
comes back from the cache. A parallel sweep therefore reproduces a
serial one exactly, and the determinism suite asserts it. Retries lean
on the same property: a crashed worker's point is re-executed (up to
``$REPRO_MAX_RETRIES`` times, default 1) and yields the metrics the
first attempt would have produced. With ``REPRO_CHECKPOINT=1`` a retry
resumes from the point's deepest persisted cut instead of replaying
from scratch — still bit-identical, by the repro.state round-trip
oracle.

Fleet telemetry: every point (simulated, cached, retried, failed) is
recorded in the append-only :class:`~repro.obs.ledger.RunLedger`
(``$REPRO_LEDGER``; ``0`` disables), with worker pid, wall time, peak
RSS, and a compact metrics summary. While futures drain, a
:class:`~repro.obs.health.StragglerDetector` flags points that outlive
``straggler_k`` times the median completed duration, live on the
progress line. All of it is observational — results with the ledger
enabled are bit-identical to disabled.

Crash containment: a worker that dies (or raises) fails only its
point(s); each is retried in a fresh pool until its retry budget
(``$REPRO_MAX_RETRIES``, validated, default 1) is spent, the failure is
recorded in the ledger, and the sweep completes. Only a point that
fails on every allowed attempt aborts the sweep — a partial result set
must never masquerade as a complete one.

Worker count: the ``jobs`` argument, else ``$REPRO_JOBS``, else 1.

Test hooks: ``REPRO_TEST_FAULT_ONCE=<path>`` makes the next point whose
executor sees the file consume it and fail — hard (``os._exit``) by
default, or by raising when the file body is ``raise``. The crash/
retry suites use it to kill exactly one worker attempt.
``REPRO_TEST_FAULT_AFTER_CKPT=<path>`` has the same file-body contract
but fires right after a checkpoint is persisted, so the resume-on-retry
tests can kill a run that provably has state on disk.
"""

from __future__ import annotations

import copy
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from repro.dram.config import DRAMConfig
from repro.exec.cache import ResultCache, canonical_key
from repro.exec.specs import MitigationSpec
from repro.mem.cpu import CoreConfig
from repro.mem.metrics import SimMetrics
from repro.mem.system import SystemConfig

_ENV_JOBS = "REPRO_JOBS"
_ENV_PROGRESS = "REPRO_PROGRESS"
_ENV_FAULT = "REPRO_TEST_FAULT_ONCE"
_ENV_MAX_RETRIES = "REPRO_MAX_RETRIES"
_ENV_CHECKPOINT_EVERY = "REPRO_CHECKPOINT_EVERY"
_ENV_FAULT_AFTER_CKPT = "REPRO_TEST_FAULT_AFTER_CKPT"

# Retries allowed per point when $REPRO_MAX_RETRIES is unset.
DEFAULT_MAX_RETRIES = 1

# How long one poll of the in-flight future set may block before the
# straggler check runs again (seconds; telemetry cadence only).
_POLL_SECONDS = 0.25

# Sequence number folded into run ids so two runners created in the
# same second in the same process stay distinguishable.
_RUN_SEQ = 0


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (min 1; bad values mean 1)."""
    try:
        jobs = int(os.environ.get(_ENV_JOBS, "1"))
    except ValueError:
        return 1
    return max(1, jobs)


def max_retries_from_env() -> int:
    """Retries per point from ``$REPRO_MAX_RETRIES`` (validated).

    Unset means :data:`DEFAULT_MAX_RETRIES`; anything that is not a
    non-negative integer is rejected loudly — a typo here must not
    silently change crash-containment behaviour.
    """
    raw = os.environ.get(_ENV_MAX_RETRIES, "")
    if not raw:
        return DEFAULT_MAX_RETRIES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_MAX_RETRIES} must be a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(
            f"{_ENV_MAX_RETRIES} must be a non-negative integer, got {raw!r}"
        )
    return value


def _new_run_id() -> str:
    """Telemetry-only run identifier: wall second + pid + sequence."""
    global _RUN_SEQ
    _RUN_SEQ += 1
    return f"{int(time.time())}-{os.getpid()}-{_RUN_SEQ}"


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB (0 where unavailable)."""
    if resource is None:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _maybe_inject_fault(env: str) -> None:
    """Consume the one-shot fault file named by ``$env`` and fail.

    Test hook (see module docstring): the file is unlinked first, so
    exactly one attempt fails — by raising when its body is ``raise``,
    else by a hard ``os._exit(3)``.
    """
    path = os.environ.get(env, "")
    if not path:
        return
    try:
        with open(path) as handle:
            mode = handle.read().strip()
        os.unlink(path)
    except OSError:
        # Missing or already consumed by a sibling worker: no fault.
        return
    if mode == "raise":
        raise RuntimeError(f"injected worker fault ({env}, repro test hook)")
    os._exit(3)


@dataclass(frozen=True)
class SweepPoint:
    """Complete description of one independent simulation run.

    ``records_per_core=None`` means "size the run to cover ~1.3 scaled
    refresh windows" (:func:`repro.analysis.perf.records_for_windows`);
    it is resolved to a concrete count before hashing so the cache key
    never depends on an implicit default.
    """

    workload: str
    mitigation: MitigationSpec
    scale: int = 32
    records_per_core: Optional[int] = None
    max_records: int = 120_000
    cores: int = 8
    seed: int = 0
    with_faults: bool = False
    t_rh: float = 4800.0

    def resolved(self) -> "SweepPoint":
        """This point with ``records_per_core`` made concrete."""
        if self.records_per_core is not None:
            return self
        from repro.analysis.perf import records_for_windows
        from repro.workloads.suites import get_workload

        records = records_for_windows(
            get_workload(self.workload), self.scale, max_records=self.max_records
        )
        return replace(self, records_per_core=records)

    def system_config(self) -> SystemConfig:
        """The :class:`SystemConfig` this point runs under."""
        return SystemConfig(
            dram=DRAMConfig().scaled(self.scale),
            core=CoreConfig(),
            cores=self.cores,
            with_faults=self.with_faults,
            t_rh=self.t_rh,
        )

    def cache_key(self) -> str:
        """Content hash over every input that shapes the result."""
        point = self.resolved()
        description = {
            "workload": point.workload,
            "mitigation": point.mitigation.canonical(),
            "system": asdict(point.system_config()),
            "records_per_core": point.records_per_core,
            "seed": point.seed,
        }
        return canonical_key(description)

    def checkpoint_fingerprint(self) -> str:
        """Fingerprint naming the *stream* this point simulates.

        Deliberately excludes ``records_per_core``: trace generators
        are seeded independently of length, so two points differing
        only in record count replay bit-identical prefixes and may fork
        from each other's warm-start checkpoints. It *includes*
        ``REPRO_SANITIZE``, which the result cache rightly ignores:
        sanitizer state is part of a checkpoint.
        """
        from repro.state.checkpoint import run_fingerprint

        point = self.resolved()
        return run_fingerprint(
            {
                "workload": point.workload,
                "mitigation": point.mitigation.canonical(),
                "system": asdict(point.system_config()),
                "seed": point.seed,
                "env": {
                    "REPRO_SANITIZE": os.environ.get("REPRO_SANITIZE", "0"),
                },
            }
        )


def _checkpoint_every(total_requests: int) -> int:
    """Cut interval: ``$REPRO_CHECKPOINT_EVERY`` or block-aligned quarters."""
    raw = os.environ.get(_ENV_CHECKPOINT_EVERY, "")
    if raw:
        try:
            every = int(raw)
        except ValueError:
            raise ValueError(
                f"{_ENV_CHECKPOINT_EVERY} must be a non-negative integer, "
                f"got {raw!r}"
            ) from None
        if every < 0:
            raise ValueError(
                f"{_ENV_CHECKPOINT_EVERY} must be a non-negative integer, "
                f"got {raw!r}"
            )
        return every
    from repro.workloads.trace import TRACE_BLOCK_RECORDS

    quarter = (total_requests // 4 // TRACE_BLOCK_RECORDS) * TRACE_BLOCK_RECORDS
    return max(quarter, TRACE_BLOCK_RECORDS)


def _resume_usable(checkpoint, records_per_core: int) -> bool:
    """Whether a persisted cut may seed this point's run.

    Same-length checkpoints resume at any cut. A cross-length
    warm-start fork needs two more guarantees:

    * the origin's per-core record count is a multiple of
      :data:`~repro.workloads.trace.TRACE_BLOCK_RECORDS` — trace
      generators draw RNG batches at full block size and truncate the
      final block, so a snapshot taken after a *partial* block cannot
      regenerate that batch's dropped tail, and only full-block state
      is shared bit-for-bit between lengths;
    * the cut sits strictly before the origin's per-core count —
      global serviced < per-core count means no core can have
      exhausted its (shorter) trace, and exhaustion is core state a
      longer run must never inherit.
    """
    origin = checkpoint.meta.get("records_per_core")
    if not isinstance(origin, int):
        return False
    if origin == records_per_core:
        return True
    from repro.workloads.trace import TRACE_BLOCK_RECORDS

    if origin % TRACE_BLOCK_RECORDS != 0:
        return False
    return checkpoint.serviced < origin


def _checkpoint_session(point: SweepPoint):
    """A :class:`~repro.state.checkpoint.CheckpointSession` for one
    point, or None unless ``REPRO_CHECKPOINT=1`` opts the sweep in."""
    from repro.state.checkpoint import (
        CheckpointSession,
        CheckpointStore,
        checkpoint_enabled_by_env,
    )

    if not checkpoint_enabled_by_env():
        return None
    point = point.resolved()
    total = point.records_per_core * point.cores
    store = CheckpointStore()
    fingerprint = point.checkpoint_fingerprint()
    resume = store.latest(
        fingerprint,
        max_serviced=total,
        accept=lambda ckpt: _resume_usable(ckpt, point.records_per_core),
    )

    def sink(checkpoint) -> None:
        store.put(checkpoint)
        _maybe_inject_fault(_ENV_FAULT_AFTER_CKPT)

    return CheckpointSession(
        fingerprint=fingerprint,
        every=_checkpoint_every(total),
        sink=sink,
        resume=resume,
        meta={
            "records_per_core": point.records_per_core,
            "workload": point.workload,
            "mitigation": point.mitigation.kind,
        },
    )


def execute_point(point: SweepPoint, checkpoints=None) -> SimMetrics:
    """Run one sweep point to completion (no caching).

    Module-level so worker processes can unpickle it by reference.
    ``checkpoints`` threads an explicit session through; None builds
    one from the env (``REPRO_CHECKPOINT=1``) or runs plain.
    """
    from repro.analysis.perf import run_workload
    from repro.workloads.suites import get_workload

    point = point.resolved()
    if checkpoints is None:
        checkpoints = _checkpoint_session(point)
    return run_workload(
        get_workload(point.workload),
        point.mitigation.build(),
        scale=point.scale,
        records_per_core=point.records_per_core,
        cores=point.cores,
        seed=point.seed,
        with_faults=point.with_faults,
        t_rh=point.t_rh,
        checkpoints=checkpoints,
    )


def _timed_execute_point(
    point: SweepPoint,
) -> Tuple[SimMetrics, float, int, int, int, int]:
    """Worker wrapper: result plus worker-measured seconds, pid, RSS,
    and checkpoint telemetry (requests resumed past, cuts persisted).

    The pid and peak-RSS reading let the parent's progress reporter and
    the run ledger attribute work to workers after a parallel sweep
    (all of it telemetry only — it never feeds the cache or the
    metrics).
    """
    _maybe_inject_fault(_ENV_FAULT)
    started = time.perf_counter()
    point = point.resolved()
    session = _checkpoint_session(point)
    metrics = execute_point(point, checkpoints=session)
    resumed_from = session.resumed_from if session is not None else 0
    saved = len(session.saved) if session is not None else 0
    return (
        metrics,
        time.perf_counter() - started,
        os.getpid(),
        _peak_rss_kb(),
        resumed_from,
        saved,
    )


def _describe_point(point: SweepPoint) -> str:
    """Short human label for progress lines and error messages."""
    return f"{point.workload}/{point.mitigation.kind}@1/{point.scale}"


@dataclass
class PointOutcome:
    """Execution telemetry for one point's trip through ``_execute``.

    ``metrics=None`` means the point failed on every allowed attempt;
    ``error`` then holds the first failure's description. ``attempts``
    counts executions (2 = retried once).
    """

    metrics: Optional[SimMetrics]
    seconds: float = 0.0
    worker: int = 0
    peak_rss_kb: int = 0
    attempts: int = 1
    error: str = ""
    straggler: bool = False
    # Host wall-clock completion time (telemetry; feeds the ledger's
    # ``ts`` so dashboards can reconstruct per-worker timelines).
    completed_ts: float = 0.0
    # Checkpoint telemetry (REPRO_CHECKPOINT=1): how many serviced
    # requests the run skipped by resuming from a persisted cut, and
    # how many cuts it persisted itself.
    resumed_from: int = 0
    checkpoints_saved: int = 0


@dataclass
class SweepStats:
    """Bookkeeping for one :meth:`SweepRunner.run` call (cumulative)."""

    points: int = 0
    cache_hits: int = 0
    simulated: int = 0
    copied: int = 0
    retried: int = 0
    stragglers: int = 0
    failed: int = 0
    resumed: int = 0
    checkpoints_saved: int = 0
    wall_seconds: float = 0.0
    per_label_seconds: Dict[str, float] = field(default_factory=dict)


class SweepRunner:
    """Executes batches of :class:`SweepPoint` with fan-out + caching.

    ``jobs=1`` runs in-process (no executor overhead); ``jobs>1`` uses a
    :class:`ProcessPoolExecutor`. ``cache=None`` with ``use_cache=True``
    opens the default on-disk cache; pass ``use_cache=False`` for pure
    timing runs. ``ledger=None`` with ``use_ledger=True`` opens the
    default run ledger (``$REPRO_LEDGER``; set it to ``0`` to disable);
    pass ``use_ledger=False`` to opt this runner out entirely.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        progress: Optional[bool] = None,
        ledger=None,
        use_ledger: bool = True,
        straggler_k: float = 4.0,
        max_retries: Optional[int] = None,
    ) -> None:
        self.jobs = max(1, jobs) if jobs is not None else default_jobs()
        # Retries allowed per failing point: explicit argument, else the
        # validated $REPRO_MAX_RETRIES (default 1).
        if max_retries is not None and max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.max_retries = (
            max_retries if max_retries is not None else max_retries_from_env()
        )
        if cache is not None:
            self.cache = cache
        elif use_cache:
            self.cache = ResultCache()
        else:
            self.cache = ResultCache(enabled=False)
        # Live heartbeat on stderr: explicit flag, else $REPRO_PROGRESS.
        if progress is None:
            progress = os.environ.get(_ENV_PROGRESS, "0") == "1"
        self.progress = progress
        # Fleet telemetry: run ledger + worker health. Imported lazily
        # so `import repro.exec` never drags repro.obs in eagerly.
        from repro.obs.health import WorkerHealth
        from repro.obs.ledger import RunLedger

        if ledger is not None:
            self.ledger = ledger
        elif use_ledger:
            self.ledger = RunLedger()
        else:
            self.ledger = RunLedger(enabled=False)
        self.health = WorkerHealth()
        self.straggler_k = straggler_k
        self.run_id = _new_run_id()
        self.stats = SweepStats()

    def run(
        self,
        points: Sequence[SweepPoint],
        label: str = "",
    ) -> List[SimMetrics]:
        """Execute every point; results come back in input order.

        A cache key requested more than once runs once, and its later
        indices get copies of the first one's result. Cached points are
        served without simulating; the rest fan out over ``jobs``
        workers. Every fresh result is stored back, and every point —
        cached, simulated, retried, failed, copied — is appended to the
        run ledger. Raises :class:`RuntimeError` naming the
        first failed point if any point finishes without a result — a
        partial sweep must never masquerade as a complete one.
        """
        started = time.perf_counter()
        resolved = [point.resolved() for point in points]
        keys = [point.cache_key() for point in resolved]
        results: List[Optional[SimMetrics]] = [None] * len(resolved)
        first_of: Dict[str, int] = {}
        copies: List[Tuple[int, int]] = []
        for index, key in enumerate(keys):
            first = first_of.setdefault(key, index)
            if first != index:
                copies.append((index, first))
        reporter = self._reporter(len(first_of), label)
        entries = []

        pending: List[Tuple[int, SweepPoint]] = []
        hits = 0
        for key, index in first_of.items():
            point = resolved[index]
            cached = self.cache.get(key)
            if cached is not None:
                results[index] = cached
                hits += 1
                entries.append(
                    self._ledger_entry(
                        point,
                        key,
                        label,
                        outcome=PointOutcome(
                            metrics=cached,
                            worker=os.getpid(),
                            completed_ts=time.time(),
                        ),
                        cache_hit=True,
                    )
                )
            else:
                pending.append((index, point))
        self.stats.cache_hits += hits
        if reporter is not None:
            reporter.cache_hits(hits)

        if pending:
            raw = self._execute([point for _, point in pending], reporter)
            # Tolerate subclasses whose _execute still returns bare
            # SimMetrics/None per point (the pre-ledger contract).
            outcomes = [
                item
                if isinstance(item, PointOutcome)
                else PointOutcome(metrics=item)
                for item in raw
            ]
            for (index, point), outcome in zip(pending, outcomes):
                results[index] = outcome.metrics
                if outcome.metrics is not None:
                    self.cache.put(keys[index], outcome.metrics)
                entries.extend(
                    self._ledger_entries_for_outcome(
                        point, keys[index], label, outcome
                    )
                )
                if outcome.attempts > 1 and outcome.metrics is not None:
                    self.stats.retried += 1
                if outcome.metrics is None:
                    self.stats.failed += 1
                if outcome.straggler:
                    self.stats.stragglers += 1
                if outcome.resumed_from > 0:
                    self.stats.resumed += 1
                self.stats.checkpoints_saved += outcome.checkpoints_saved
            self.stats.simulated += len(pending)

        from repro.obs.ledger import STATUS_COPIED

        for index, first in copies:
            metrics = results[first]
            results[index] = copy.deepcopy(metrics)
            entries.append(
                self._ledger_entry(
                    resolved[index],
                    keys[index],
                    label,
                    outcome=PointOutcome(
                        metrics=metrics,
                        worker=os.getpid(),
                        completed_ts=time.time(),
                    ),
                    status=STATUS_COPIED,
                )
            )
        self.stats.copied += len(copies)

        self.ledger.append_all(entries)

        missing = [index for index, metrics in enumerate(results) if metrics is None]
        if missing:
            first = resolved[missing[0]]
            raise RuntimeError(
                f"sweep{':' + label if label else ''} produced no result for "
                f"{len(missing)} of {len(resolved)} point(s); first missing: "
                f"{_describe_point(first)} (index {missing[0]}, "
                f"seed {first.seed}, records {first.records_per_core})"
            )

        self.stats.points += len(resolved)
        elapsed = time.perf_counter() - started
        self.stats.wall_seconds += elapsed
        if label:
            self.stats.per_label_seconds[label] = (
                self.stats.per_label_seconds.get(label, 0.0) + elapsed
            )
        if reporter is not None:
            reporter.finish(elapsed)
        return list(results)

    def run_one(self, point: SweepPoint) -> SimMetrics:
        """Convenience wrapper for a single point."""
        return self.run([point])[0]

    # ------------------------------------------------------------------
    def _reporter(self, total: int, label: str):
        """A :class:`~repro.obs.progress.SweepProgress`, or None."""
        if not self.progress or total == 0:
            return None
        from repro.obs.progress import SweepProgress

        return SweepProgress(
            total, jobs=self.jobs, label=label, max_retries=self.max_retries
        )

    def _ledger_entry(
        self,
        point: SweepPoint,
        key: str,
        label: str,
        outcome: PointOutcome,
        cache_hit: bool = False,
        status: Optional[str] = None,
        error: str = "",
    ):
        """One ledger row for ``point`` with ``outcome`` telemetry."""
        from repro.obs.ledger import (
            STATUS_CACHED,
            STATUS_FAILED,
            STATUS_OK,
            STATUS_RETRIED,
            LedgerEntry,
            summarize_metrics,
        )

        if status is None:
            if cache_hit:
                status = STATUS_CACHED
            elif outcome.metrics is None:
                status = STATUS_FAILED
            elif outcome.attempts > 1:
                status = STATUS_RETRIED
            else:
                status = STATUS_OK
        summary = (
            summarize_metrics(outcome.metrics)
            if outcome.metrics is not None
            else {}
        )
        return LedgerEntry(
            run_id=self.run_id,
            label=label,
            point=_describe_point(point),
            workload=point.workload,
            mitigation=point.mitigation.kind,
            scale=point.scale,
            seed=point.seed,
            cache_key=key,
            status=status,
            cache_hit=cache_hit,
            ts=outcome.completed_ts or time.time(),
            wall_seconds=outcome.seconds,
            worker=outcome.worker,
            peak_rss_kb=outcome.peak_rss_kb,
            straggler=outcome.straggler,
            error=error or (outcome.error if outcome.metrics is None else ""),
            summary=summary,
            max_retries=self.max_retries,
            resumed_from=outcome.resumed_from,
            checkpoints=outcome.checkpoints_saved,
        )

    def _ledger_entries_for_outcome(
        self, point: SweepPoint, key: str, label: str, outcome: PointOutcome
    ) -> list:
        """Ledger rows for one executed point (failure row + final row).

        A retried point leaves *two* rows: the first attempt's
        ``failed`` row (with the error) and the final ``retried`` (or
        second ``failed``) row, so fleet history never hides flaky
        workers behind successful retries.
        """
        from repro.obs.ledger import STATUS_FAILED

        entries = []
        if outcome.attempts > 1:
            entries.append(
                self._ledger_entry(
                    point,
                    key,
                    label,
                    outcome=PointOutcome(
                        metrics=None, attempts=1, error=outcome.error
                    ),
                    status=STATUS_FAILED,
                    error=outcome.error,
                )
            )
        entries.append(self._ledger_entry(point, key, label, outcome=outcome))
        return entries

    # ------------------------------------------------------------------
    def _execute(
        self, points: Sequence[SweepPoint], reporter=None
    ) -> List[PointOutcome]:
        points = list(points)
        if self.jobs == 1 or len(points) <= 1:
            return self._execute_serial(points, reporter)
        return self._execute_parallel(points, reporter)

    def _execute_serial(
        self, points: Sequence[SweepPoint], reporter=None
    ) -> List[PointOutcome]:
        """In-process execution with ``max_retries`` retries per point."""
        outcomes: List[PointOutcome] = []
        allowed = 1 + self.max_retries
        for point in points:
            outcome = None
            first_error = ""
            errors = ""
            for attempt in range(1, allowed + 1):
                try:
                    (
                        metrics, seconds, worker, rss, resumed, saved,
                    ) = _timed_execute_point(point)
                    outcome = PointOutcome(
                        metrics, seconds, worker, rss,
                        attempts=attempt, error=first_error,
                        completed_ts=time.time(),
                        resumed_from=resumed, checkpoints_saved=saved,
                    )
                    break
                except Exception as exc:  # crash containment: retry
                    if not errors:
                        first_error = repr(exc)
                        errors = first_error
                    else:
                        errors = f"{errors}; retry: {exc!r}"
                    if attempt < allowed and reporter is not None:
                        reporter.point_retried(
                            _describe_point(point), repr(exc)
                        )
            if outcome is None:
                outcome = PointOutcome(
                    None,
                    worker=os.getpid(),
                    attempts=allowed,
                    error=errors,
                    completed_ts=time.time(),
                )
            if reporter is not None and outcome.metrics is not None:
                reporter.point_done(_describe_point(point), outcome.seconds)
            if outcome.metrics is not None:
                self.health.beat(
                    outcome.worker, time.time(), outcome.seconds,
                    outcome.peak_rss_kb,
                )
            outcomes.append(outcome)
        return outcomes

    def _execute_parallel(
        self, points: Sequence[SweepPoint], reporter=None
    ) -> List[PointOutcome]:
        """Pool execution: straggler watch, crash containment, retries.

        A worker death poisons its pool (every pending future resolves
        with ``BrokenProcessPool``), so each round runs in a fresh pool
        and re-submits only the points that failed and still have
        retry budget (``max_retries``) left.
        """
        from repro.obs.health import StragglerDetector

        total = len(points)
        outcomes: List[Optional[PointOutcome]] = [None] * total
        attempts = [0] * total
        first_error = [""] * total
        detector = StragglerDetector(k=self.straggler_k)
        flagged: set = set()
        remaining = list(range(total))

        while remaining:
            workers = min(self.jobs, len(remaining))
            round_failed: List[int] = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_timed_execute_point, points[index]): index
                    for index in remaining
                }
                for index in remaining:
                    attempts[index] += 1
                # Estimated dispatch times for the straggler watch: the
                # pool starts the first `workers` submissions at once
                # and feeds the queue in order as slots free up.
                queue = deque(remaining[workers:])
                started = {
                    index: time.monotonic() for index in remaining[:workers]
                }
                pending_set = set(futures)
                while pending_set:
                    done, _ = wait(
                        pending_set,
                        timeout=_POLL_SECONDS,
                        return_when=FIRST_COMPLETED,
                    )
                    now = time.monotonic()
                    for future in done:
                        pending_set.discard(future)
                        index = futures[future]
                        started.pop(index, None)
                        if queue:
                            started[queue.popleft()] = now
                        exc = future.exception()
                        if exc is not None:
                            round_failed.append(index)
                            first_error[index] = (
                                first_error[index] or repr(exc)
                            )
                            self.health.beat(0, time.time(), failed=True)
                            continue
                        (
                            metrics, seconds, worker, rss, resumed, saved,
                        ) = future.result()
                        detector.record(seconds)
                        self.health.beat(worker, time.time(), seconds, rss)
                        outcomes[index] = PointOutcome(
                            metrics,
                            seconds,
                            worker,
                            rss,
                            attempts=attempts[index],
                            error=first_error[index],
                            completed_ts=time.time(),
                            resumed_from=resumed,
                            checkpoints_saved=saved,
                        )
                        if reporter is not None:
                            reporter.point_done(
                                _describe_point(points[index]),
                                seconds,
                                worker=worker,
                            )
                    # Live straggler watch over the still-running set.
                    inflight = {
                        index: now - since for index, since in started.items()
                    }
                    for index in detector.check(inflight):
                        flagged.add(index)
                        if reporter is not None:
                            reporter.straggler(
                                _describe_point(points[index]),
                                inflight[index],
                                detector.median or 0.0,
                            )

            allowed = 1 + self.max_retries
            retry = [
                index for index in round_failed if attempts[index] < allowed
            ]
            for index in round_failed:
                if attempts[index] >= allowed and index not in retry:
                    outcomes[index] = PointOutcome(
                        None, attempts=attempts[index],
                        error=first_error[index],
                    )
            if reporter is not None:
                for index in retry:
                    reporter.point_retried(
                        _describe_point(points[index]), first_error[index]
                    )
            remaining = retry

        finished: List[PointOutcome] = []
        for index, outcome in enumerate(outcomes):
            if outcome is None:  # pragma: no cover - defensive
                outcome = PointOutcome(
                    None, attempts=attempts[index], error=first_error[index]
                )
            if index in flagged:
                outcome.straggler = True
            finished.append(outcome)
        return finished
