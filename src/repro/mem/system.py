"""Full-system simulator: cores + controllers + refresh + mitigation.

This is the harness every performance experiment runs through: it
replays one trace per core through per-channel FCFS memory controllers,
advances refresh, lets the installed mitigation observe and act, and
returns a :class:`SimMetrics` bundle. The paper's Figure 6/10/11 runs
are exactly "run baseline, run defense, divide IPCs".
"""

from __future__ import annotations

import functools
import heapq
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.dram.device import Channel
from repro.dram.refresh import RefreshScheduler
from repro.mem import block_kernel
from repro.mem.block_kernel import run_block_loop
from repro.mem.controller import MemoryController
from repro.mem.cpu import Core, CoreConfig
from repro.mem.metrics import SimMetrics
from repro.mitigations.base import Mitigation
from repro.mitigations.none import NoMitigation
from repro.workloads.trace import TraceRecord


@dataclass(frozen=True)
class SystemConfig:
    """Knobs for one full-system run (defaults = paper Table 2)."""

    dram: DRAMConfig = field(default_factory=DRAMConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    cores: int = 8
    with_faults: bool = False
    t_rh: float = 4800.0


class SystemSimulator:
    """Replays per-core traces against the DRAM model and a mitigation."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        mitigation: Optional[Mitigation] = None,
        obs=None,
    ) -> None:
        # Resolved here rather than as a def-time default so simulators
        # never alias one shared SystemConfig instance.
        config = config if config is not None else SystemConfig()
        self.config = config
        self.mitigation = mitigation if mitigation is not None else NoMitigation()
        self.mapper = AddressMapper(config.dram)
        self.channels: List[Channel] = [
            Channel(
                config.dram,
                index=i,
                with_faults=config.with_faults,
                t_rh=config.t_rh,
            )
            for i in range(config.dram.channels)
        ]
        self.controllers: List[MemoryController] = [
            MemoryController(config.dram, channel, self.mitigation, self.mapper)
            for channel in self.channels
        ]
        self.refresh = RefreshScheduler(
            config.dram,
            self.channels,
            window_callbacks=[self.mitigation.on_window_end],
        )
        # Opt-in runtime protocol checking (REPRO_SANITIZE=1): every
        # bank's command stream and the mitigation's swap machinery are
        # validated online, raising ProtocolViolation on the first
        # break. Imported lazily so the hot path never pays for it.
        self.sanitizer = None
        if os.environ.get("REPRO_SANITIZE", "0") == "1":
            from repro.check.sanitizer import ProtocolSanitizer

            self.sanitizer = ProtocolSanitizer(config.dram).install(self)
        # Opt-in observability (REPRO_TRACE=... or an explicit obs
        # object): read-only tracing/metrics probes on every layer.
        # Installed after the sanitizer so its bank observers chain
        # behind the protocol checks. Lazily imported — an untraced run
        # never loads repro.obs.
        if obs is None and os.environ.get("REPRO_TRACE"):
            from repro.obs.install import Observability

            obs = Observability.from_env()
        self.obs = obs.install(self) if obs is not None else None

    def run(
        self,
        traces: Sequence[Iterator[TraceRecord]],
        workload: str = "",
        checkpoints=None,
    ) -> SimMetrics:
        """Replay one (finite) trace per core; returns run metrics.

        Each trace is a :class:`~repro.workloads.trace.TraceChunks`
        source (``generator.chunks(n)``) or a finite iterable of
        :class:`~repro.workloads.trace.TraceRecord` (``generator.records(n)``,
        ``read_trace(path)``), which the core packs into blocks; both
        feed the same loop. The run ends when every trace is exhausted
        and drained. Checkpointing needs snapshotable sources
        (``generator.chunks(n)``).

        ``checkpoints`` is an optional
        :class:`~repro.state.checkpoint.CheckpointSession`: the run
        restores the session's resume checkpoint before the first
        request and cuts wherever the session asks, in whichever loop
        it would take without one (both stop between any two requests
        and leave identical state there, so cuts and results do not
        depend on the loop).
        """
        if len(traces) != self.config.cores:
            raise ValueError(
                f"expected {self.config.cores} traces, got {len(traces)}"
            )
        cores = [
            Core(core_id, trace, self.config.core, mapper=self.mapper)
            for core_id, trace in enumerate(traces)
        ]
        if self._block_loop_eligible(cores):
            loop = functools.partial(run_block_loop, self, cores)
        else:
            loop = functools.partial(self._run_scalar, cores)
        if checkpoints is None:
            loop()
        else:
            self._run_with_cuts(loop, cores, checkpoints)
        for core in cores:
            core.drain()
        return self._collect(cores, workload)

    # ------------------------------------------------------------------
    # Checkpoint/restore (repro.state)
    # ------------------------------------------------------------------
    def checkpoint_payload(self, cores: List[Core]) -> tuple:
        """Pure-data snapshot of every layer of this simulator + cores.

        Either loop leaves every activation applied to the live objects
        when it returns (the compiled loop writes its C trackers back),
        so the mitigation's state is complete here."""
        return (
            [core.snapshot_state() for core in cores],
            [channel.snapshot_state() for channel in self.channels],
            [controller.snapshot_state() for controller in self.controllers],
            self.refresh.snapshot_state(),
            self.mitigation.snapshot_state(),
            None
            if self.sanitizer is None
            else self.sanitizer.snapshot_state(),
        )

    def restore_payload(self, cores: List[Core], payload: tuple) -> None:
        """Inverse of :meth:`checkpoint_payload` on a fresh simulator."""
        (
            core_states,
            channel_states,
            controller_states,
            refresh_state,
            mitigation_state,
            sanitizer_state,
        ) = payload
        if len(core_states) != len(cores):
            raise ValueError(
                f"checkpoint carries {len(core_states)} cores, this run "
                f"has {len(cores)}"
            )
        if len(channel_states) != len(self.channels):
            raise ValueError("channel count mismatch in checkpoint")
        for core, state in zip(cores, core_states):
            core.restore_state(state)
        for channel, state in zip(self.channels, channel_states):
            channel.restore_state(state)
        for controller, state in zip(self.controllers, controller_states):
            controller.restore_state(state)
        self.refresh.restore_state(refresh_state)
        self.mitigation.restore_state(mitigation_state)
        if sanitizer_state is not None:
            if self.sanitizer is None:
                raise ValueError(
                    "checkpoint was taken under REPRO_SANITIZE=1 but this "
                    "run has no sanitizer installed"
                )
            self.sanitizer.restore_state(sanitizer_state)
        elif self.sanitizer is not None:
            raise ValueError(
                "this run has REPRO_SANITIZE=1 but the checkpoint was "
                "taken without it"
            )

    def checkpoint(
        self,
        cores: List[Core],
        serviced: int,
        fingerprint: str = "",
        meta=None,
    ):
        """One :class:`~repro.state.checkpoint.SimCheckpoint` of this
        simulator mid-run (``cores`` are the run's Core objects)."""
        from repro.state.checkpoint import SimCheckpoint

        return SimCheckpoint(
            fingerprint=fingerprint,
            serviced=serviced,
            payload=self.checkpoint_payload(cores),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint,
        traces: Sequence[Iterator[TraceRecord]],
        config: Optional[SystemConfig] = None,
        mitigation: Optional[Mitigation] = None,
        workload: str = "",
        checkpoints=None,
    ) -> SimMetrics:
        """Build a fresh simulator, restore ``checkpoint``, finish the run.

        ``traces`` and ``config``/``mitigation`` must describe the same
        run the checkpoint was cut from (the caller vouches via the
        fingerprint); the returned :class:`SimMetrics` is bit-identical
        to the uninterrupted run's. ``checkpoints`` optionally supplies
        a pre-built session (for extra cuts while finishing); its
        ``resume`` is set to ``checkpoint``.
        """
        from repro.state.checkpoint import CheckpointSession

        simulator = cls(config=config, mitigation=mitigation)
        if checkpoints is None:
            checkpoints = CheckpointSession(
                fingerprint=checkpoint.fingerprint, resume=checkpoint
            )
        else:
            checkpoints.resume = checkpoint
            checkpoints.resumed_from = checkpoint.serviced
        return simulator.run(traces, workload=workload, checkpoints=checkpoints)

    def _run_with_cuts(self, loop, cores: List[Core], session) -> None:
        """Drive ``loop(stop_at) -> serviced`` from cut to cut.

        A cut lands *between* requests, where a resume re-enters (the
        issue heap is rebuilt from each core's ``next_issue_time``;
        ``(issue_at, core_id)`` is a strict total order, so pop order
        is independent of heap layout). A resumed run never re-cuts at
        its own resume point.
        """
        serviced = 0
        resume = session.resume
        if resume is not None:
            self.restore_payload(cores, resume.payload)
            serviced = resume.serviced
        cut = session.next_cut(serviced if resume is None else serviced + 1)
        while True:
            if cut == serviced:
                session.save(serviced, self.checkpoint_payload(cores))
                cut = session.next_cut(serviced + 1)
            serviced += loop(-1 if cut < 0 else cut - serviced)
            if serviced != cut:
                return

    def _block_loop_eligible(self, cores: List[Core]) -> bool:
        """Whether this run can take the compiled block loop.

        The loop (repro.mem.block_kernel) is bit-identical to
        ``_run_scalar`` but covers only what every Figure run uses: no
        postponed refresh, and open-page banks with no command observer
        and no fault model. Observed runs, the sanitizer and
        ``with_faults`` need per-command callbacks, so they stay scalar,
        as does a host where the loop cannot be compiled. Either trace
        form (chunks or records) and checkpoint cuts are supported.
        Nothing outside the run itself picks the loop, so result-cache
        keys never depend on which loop ran.
        """
        if self.obs is not None or self.sanitizer is not None:
            return False
        refresh = self.refresh
        if refresh.max_postponed != 0 or refresh.postponed != 0:
            return False
        if refresh.observer is not None:
            return False
        if self.config.dram.page_policy == "closed":
            return False
        if any(controller.obs is not None for controller in self.controllers):
            return False
        if not all(
            bank.kernel_inlineable
            for channel in self.channels
            for bank in channel.iter_banks()
        ):
            return False
        return block_kernel.load() is not None

    # repro-oracle: system-loop -- oracle
    def _run_scalar(self, cores: List[Core], stop_at: int = -1) -> int:
        """Reference per-request loop (the compiled block loop's oracle).

        Returns the number of requests serviced, stopping once that
        reaches ``stop_at`` (-1: run to the end).
        """
        # A core sits in the heap iff it has a pending record
        # (next_issue_time is +inf exactly when it is done), so the loop
        # needs no explicit done checks.
        infinity = float("inf")
        heap = []
        for core in cores:
            issue_at = core.next_issue_time()
            if issue_at < infinity:
                heap.append((issue_at, core.core_id))
        heapq.heapify(heap)

        # Hot loop: one iteration per memory request. Bound lookups are
        # hoisted to locals — at tens of millions of requests per sweep
        # the attribute traffic is measurable. Refresh is gated on the
        # scheduler's next-due time so the common iteration skips the
        # call entirely.
        heappop = heapq.heappop
        heappush = heapq.heappush
        refresh = self.refresh
        advance_refresh = refresh.advance_to
        refresh_due = refresh.next_due_ns
        controllers = self.controllers
        serviced = 0

        while heap:
            _, core_id = heappop(heap)
            core = cores[core_id]
            request = core.issue()
            arrival = request.arrival_ns
            if arrival >= refresh_due:
                advance_refresh(arrival)
                refresh_due = refresh.next_due_ns
            controllers[request.decoded.channel].service(request)
            core.complete(request)
            issue_at = core.next_issue_time()
            if issue_at < infinity:
                heappush(heap, (issue_at, core_id))
            serviced += 1
            if serviced == stop_at:
                break
        return serviced

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _collect(self, cores: List[Core], workload: str) -> SimMetrics:
        metrics = SimMetrics(workload=workload, mitigation=self.mitigation.name)
        metrics.core_ipcs = [core.ipc for core in cores]
        metrics.instructions = sum(core.instructions_retired for core in cores)
        metrics.sim_time_ns = max((core.time_ns for core in cores), default=0.0)
        metrics.windows = self.refresh.windows_completed
        total_latency = 0.0
        for controller in self.controllers:
            stats = controller.stats
            metrics.activations += stats.activations
            metrics.row_buffer_hits += stats.row_buffer_hits
            metrics.accesses += stats.accesses
            metrics.swaps += stats.swaps
            metrics.swap_blocked_ns += stats.swap_blocked_ns
            metrics.victim_refreshes += stats.victim_refreshes
            metrics.throttle_delay_ns += stats.throttle_delay_ns
            total_latency += stats.total_latency_ns
        if metrics.accesses:
            metrics.mean_read_latency_ns = total_latency / metrics.accesses
        metrics.swap_history = list(getattr(self.mitigation, "swap_history", []))
        metrics.bit_flips = self.flip_count
        if self.obs is not None:
            self.obs.finalize(metrics, self)
        return metrics

    @property
    def flip_count(self) -> int:
        """Bit flips recorded by the fault model across all banks."""
        return sum(
            bank.disturbance.flip_count
            for channel in self.channels
            for bank in channel.iter_banks()
            if bank.disturbance is not None
        )
