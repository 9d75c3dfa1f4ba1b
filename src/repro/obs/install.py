"""Wires observability into a :class:`~repro.mem.system.SystemSimulator`.

:class:`Observability` bundles a :class:`~repro.obs.tracer.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` and installs read-only
probes on every layer of the memory system:

* per-bank command observers (chained onto the
  :class:`~repro.dram.timing.BankTimingState` observer hook) for the
  ``dram.cmd`` category;
* a request-completion hook on every
  :class:`~repro.mem.controller.MemoryController` feeding the
  read-latency histogram, per-bank row-buffer hit counters, the
  per-row ACT counts behind ``dram.acts_per_row``, and ``exec``
  request-lifetime events;
* mitigation hooks: throttle delays, victim refreshes, channel blocks
  (``mitigation``) and the RRS swap stream (``rrs.swap``, emitted by
  :class:`~repro.core.rrs.RandomizedRowSwap` through the tracer slot on
  :class:`~repro.mitigations.base.Mitigation`);
* refresh-burst and refresh-window probes on the
  :class:`~repro.dram.refresh.RefreshScheduler` (``refresh``) that also
  snapshot the per-window swap/refresh/throttle time series.

The invariant enforced by construction: every probe only *reads*
simulator state and writes to obs-private storage, so an instrumented
run produces bit-identical :class:`~repro.mem.metrics.SimMetrics`
(asserted by ``tests/obs/test_obs_determinism.py``).

``export_extra`` controls whether :meth:`finalize` serializes the
registry into ``SimMetrics.extra["obs"]``. It defaults to off for
env-driven tracing so sweep results stored in the shared cache stay
byte-identical to untraced runs; the ``repro trace`` CLI turns it on.
"""

from __future__ import annotations

import gc
import os
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    DEFAULT_COUNT_BOUNDS,
    MetricsRegistry,
)
from repro.obs.tracer import BUFFER_FLUSH_AT as FLUSH_AT
from repro.obs.tracer import BUFFER_FLUSH_BACKSTOP as FLUSH_BACKSTOP
from repro.obs.tracer import Tracer, tracer_from_env

_ENV_EXTRA = "REPRO_TRACE_EXTRA"

BankKey = Tuple[int, int, int]


def _bank_label(bank_key: BankKey) -> str:
    channel, rank, bank = bank_key
    return f"ch{channel}.rk{rank}.bk{bank}"


class Observability:
    """Tracer + metrics registry, installable on one system simulator."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        export_extra: bool = True,
    ) -> None:
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()
        self.export_extra = export_extra
        self.installed = False
        self._simulator = None
        # Per-bank ACT counts (physical row -> count) in counter-table
        # order, bumped by the request probe on every row-buffer miss
        # and folded into the acts-per-row histogram at finalize time.
        self._row_acts: List[Dict[int, int]] = []
        # Totals at the last window boundary, for per-window deltas.
        self._marks = {
            "swaps": 0,
            "victim_refreshes": 0,
            "throttle_delay_ns": 0.0,
            "activations": 0,
            "accesses": 0,
            "refresh_bursts": 0,
        }
        self._read_latency = self.registry.histogram("latency.read_ns")
        # Fast-path state built by install() once the geometry is known:
        # flat (channel-major) per-bank counter tables, per-channel
        # read/write counters, precomposed track tuples, and the
        # category decisions hoisted out of the per-event probes.
        self._chan_reads: list = []
        self._chan_writes: list = []
        self._bank_access: list = []
        self._bank_hits: list = []
        self._bank_act_counters: list = []
        self._bank_key_args: list = []
        # (bank_key, Bank) pairs in counter-table order, for the
        # finalize-time counter derivations.
        self._banks: list = []
        self._core_tracks: list = []
        # Read latencies buffered here and folded into the histogram in
        # blocks (Histogram.observe_bulk) instead of one observe() per
        # request.
        self._latency_buffer: List[float] = []
        self._ranks_per_channel = 0
        self._banks_per_rank = 0
        self._trace_exec = False
        self._trace_cmds = False
        self._trace_mitigation = False
        self._trace_refresh = False
        # Saved gc thresholds while event recording is active (see
        # install()); None whenever no adjustment is in force.
        self._gc_threshold: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["Observability"]:
        """Env-driven observability (``REPRO_TRACE=...``); None when off.

        ``REPRO_TRACE_EXTRA=1`` additionally exports the registry into
        ``SimMetrics.extra`` — off by default so results cached during a
        traced sweep stay byte-identical to untraced ones.
        """
        env = os.environ if environ is None else environ
        tracer = tracer_from_env(env)
        if tracer is None:
            return None
        return cls(tracer=tracer, export_extra=env.get(_ENV_EXTRA, "0") == "1")

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, simulator) -> "Observability":
        """Attach every probe to ``simulator``; returns self."""
        if self.installed:
            raise RuntimeError("Observability is already installed on a simulator")
        self.installed = True
        self._simulator = simulator

        from repro.dram.timing import chain_observer

        # The per-command timing observer exists solely to record
        # ``dram.cmd`` events: every counter it used to maintain is
        # recovered exactly at finalize from state the banks already
        # track, or counted by the request probe (see finalize() and
        # _make_request_probe()). When the category is off, no observer
        # is installed and commands cost the simulator nothing.
        tracer = self.tracer
        trace_cmds = tracer is not None and tracer.wants("dram.cmd")
        self._trace_cmds = trace_cmds
        for channel in simulator.channels:
            for rank_index, rank in enumerate(channel.ranks):
                for bank in rank.banks:
                    bank_key = (channel.index, rank_index, bank.index)
                    self._banks.append((bank_key, bank))
                    if trace_cmds:
                        chain_observer(bank.timing, self._bank_probe(bank_key))

        for controller in simulator.controllers:
            controller.obs = self

        refresh = simulator.refresh
        chain_observer(refresh, self._on_refresh_burst)
        refresh.window_callbacks.append(self._on_window_end)

        mitigation = simulator.mitigation
        mitigation.tracer = self.tracer
        if hasattr(mitigation, "engine_observer"):
            mitigation.engine_observer = self._on_swap_op
            for engine in getattr(mitigation, "_engines", {}).values():
                engine.observer = self._on_swap_op

        # Precreate every per-channel and per-bank counter the request
        # probe touches, flat-indexed channel-major so on_request does
        # integer math instead of f-string name construction and
        # registry dict lookups per request. Category filters are fixed
        # for the tracer's lifetime, so the wants() decisions hoist to
        # install time too.
        dram = simulator.config.dram
        registry = self.registry
        self._ranks_per_channel = dram.ranks_per_channel
        self._banks_per_rank = dram.banks_per_rank
        self._chan_reads = [
            registry.counter(f"controller.ch{c}.reads")
            for c in range(dram.channels)
        ]
        self._chan_writes = [
            registry.counter(f"controller.ch{c}.writes")
            for c in range(dram.channels)
        ]
        for kind in ("act", "pre", "cas"):
            registry.counter(f"dram.cmd.{kind}")
        for ch in range(dram.channels):
            for rk in range(dram.ranks_per_channel):
                for bk in range(dram.banks_per_rank):
                    label = f"ch{ch}.rk{rk}.bk{bk}"
                    self._bank_access.append(
                        registry.counter(f"bank.{label}.accesses")
                    )
                    self._bank_hits.append(
                        registry.counter(f"bank.{label}.row_hits")
                    )
                    self._bank_act_counters.append(
                        registry.counter(f"dram.{label}.act")
                    )
                    self._bank_key_args.append((ch, rk, bk))
                    self._row_acts.append(defaultdict(int))
        self._core_tracks = [
            ("core", core_id) for core_id in range(simulator.config.cores)
        ]
        tracer = self.tracer
        self._trace_exec = tracer is not None and tracer.wants("exec")
        self._trace_mitigation = tracer is not None and tracer.wants("mitigation")
        self._trace_refresh = tracer is not None and tracer.wants("refresh")
        # Shadow the bound method with the precomposed closure — the
        # controllers call whatever ``obs.on_request`` resolves to.
        self.on_request = self._make_request_probe()

        # Event recording retains a few small objects per event, and
        # CPython's allocation-count-triggered cyclic GC rescans the
        # growing buffer/ring on every young-gen pass — measured as the
        # single largest tracer cost, without ever finding garbage
        # (events are reachable until export, and the simulator itself
        # is cycle-free on its hot path). Raise the young-gen threshold
        # while recording is active; finalize()/close() restore it.
        # Reference counting still frees all acyclic garbage promptly.
        if tracer is not None and tracer.enabled and (
            tracer.categories is None or tracer.categories
        ):
            self._gc_threshold = gc.get_threshold()
            gc.set_threshold(1_000_000, *self._gc_threshold[1:])
        return self

    def _restore_gc_threshold(self) -> None:
        if self._gc_threshold is not None:
            gc.set_threshold(*self._gc_threshold)
            self._gc_threshold = None

    def _bank_probe(self, bank_key: BankKey):
        """``dram.cmd`` command observer for one bank (events only).

        Installed solely when the category records; the closure does no
        counter work at all — every command counter is derived exactly
        from bank state afterwards (see finalize()). One command costs
        one compact 4-tuple display (``RAW_CMD_FIELDS``: category,
        duration, and phase are implied) plus one C-level append into
        the shared tracer buffer. The retained tuple holds only
        immutables — no dict allocation, nothing for the cyclic GC to
        keep rescanning. The regular block drain is driven by the
        request-completion probe (one length check per request instead
        of one per command); the backstop here only catches
        request-free command streams such as attack-driver ACT loops.
        """
        tracer = self.tracer
        track = ("bank",) + bank_key
        buffer = tracer.buffer
        buffer_event = buffer.append
        flush_events = tracer.flush_buffer

        def probe(kind: str, row: int, time_ns: float) -> None:
            buffer_event((kind, time_ns, track, row))
            if len(buffer) >= FLUSH_BACKSTOP:
                flush_events()

        return probe

    # ------------------------------------------------------------------
    # Probes (called from the instrumented hot paths)
    # ------------------------------------------------------------------
    def _make_request_probe(self):
        """Build the per-request probe closure (``on_request``).

        The single hottest obs entry point — called for every serviced
        request even when all trace categories are off, as
        ``on_request(request, decoded, latency, hit)``: the controller
        passes the values it already holds as locals so the probe
        re-reads almost nothing through attributes. Everything else it
        needs is captured as closure locals: the flat per-bank counter
        tables install() built (pure integer indexing, no name
        formatting), the latency buffer's bound append, and — when the
        ``exec`` category records — the tracer's shared event buffer,
        so one event costs one tuple display plus one list append
        (batches drain to the sink, see ``Tracer.buffer``). Per-channel
        read/write counters are not touched here at all: finalize()
        copies them from ``ControllerStats``, which counts the same
        requests. Read latencies accumulate in a plain list and fold
        into the histogram in blocks (observe_bulk).
        """
        ranks_per_channel = self._ranks_per_channel
        banks_per_rank = self._banks_per_rank
        bank_access = self._bank_access
        bank_hits = self._bank_hits
        row_acts = self._row_acts
        bank_key_args = self._bank_key_args
        latency_buffer = self._latency_buffer
        buffer_latency = latency_buffer.append
        flush_latencies = self._flush_latencies
        core_tracks = self._core_tracks
        n_tracks = len(core_tracks)
        trace_exec = self._trace_exec
        event_buffer = buffer_event = flush_events = None
        # The completion probe drives the shared buffer's regular drain
        # whenever *any* hot category records: one length check per
        # request covers this request's exec event and the command
        # events its bank access just produced.
        drain_buffer = trace_exec or self._trace_cmds
        if drain_buffer:
            event_buffer = self.tracer.buffer
            flush_events = self.tracer.flush_buffer
        if trace_exec:
            buffer_event = event_buffer.append

        def on_request(request, decoded, latency, hit) -> None:
            flat = (
                decoded.channel * ranks_per_channel + decoded.rank
            ) * banks_per_rank + decoded.bank
            if request.is_write:
                name = "W"
            else:
                name = "R"
                buffer_latency(latency)
                if len(latency_buffer) >= 8192:
                    flush_latencies()
            bank_access[flat].value += 1
            if hit:
                bank_hits[flat].value += 1
            else:
                # Every row-buffer miss is one ACT of the routed row.
                row_acts[flat][request.physical_row] += 1
            if trace_exec:
                core_id = request.core_id
                buffer_event(
                    (
                        "exec",
                        name,
                        request.arrival_ns,
                        core_tracks[core_id]
                        if core_id < n_tracks
                        else ("core", core_id),
                        latency,  # completion never precedes arrival
                        # Flat exec-quad args shorthand: one immutable
                        # tuple, no GC-tracked objects retained (see
                        # RAW_EVENT_FIELDS).
                        (decoded.row, request.physical_row,
                         bank_key_args[flat], hit),
                        "X",
                    )
                )
            if drain_buffer and len(event_buffer) >= FLUSH_AT:
                flush_events()

        return on_request

    def _flush_latencies(self) -> None:
        """Fold buffered read latencies into the histogram."""
        buffer = self._latency_buffer
        if buffer:
            self._read_latency.observe_bulk(buffer)
            buffer.clear()

    def on_throttle(
        self, bank_key: BankKey, row: int, now_ns: float, delay_ns: float
    ) -> None:
        """A pre-activation throttle stall (BlockHammer-style)."""
        self.registry.counter("mitigation.throttle.events").inc()
        tracer = self.tracer
        if self._trace_mitigation:
            tracer.complete(
                "mitigation",
                "throttle",
                now_ns,
                delay_ns,
                track=("chan", bank_key[0]),
                args={"row": row, "bank": list(bank_key)},
            )

    def on_mitigation(self, action, bank_key: BankKey, now_ns: float) -> None:
        """One applied :class:`MitigationOutcome` (non-noop)."""
        tracer = self.tracer
        trace_on = self._trace_mitigation
        track = ("bank",) + bank_key
        if action.refresh_rows:
            self.registry.counter("mitigation.victim_refreshes").inc(
                len(action.refresh_rows)
            )
            if trace_on:
                tracer.emit(
                    "mitigation",
                    "victim_refresh",
                    now_ns,
                    track=track,
                    args={"rows": list(action.refresh_rows)},
                )
        if action.channel_block_ns > 0.0:
            self.registry.counter("mitigation.channel_blocks").inc()
            if trace_on:
                tracer.complete(
                    "mitigation",
                    "swap_block",
                    now_ns,
                    action.channel_block_ns,
                    track=("chan", bank_key[0]),
                    args={"bank": list(bank_key)},
                )
        if action.refresh_all_bank:
            self.registry.counter("mitigation.preemptive_bank_refreshes").inc()
            if trace_on:
                tracer.emit("mitigation", "refresh_all_bank", now_ns, track=track)

    def _on_swap_op(self, op, latency_ns: float) -> None:
        """One physical row exchange executed by a swap engine."""
        self.registry.counter(f"rrs.ops.{op.kind}").inc()

    def _on_refresh_burst(self, start_ns: float, bursts: int) -> None:
        self.registry.counter("refresh.bursts").inc(bursts)
        tracer = self.tracer
        if self._trace_refresh:
            simulator = self._simulator
            t_rfc = simulator.config.dram.t_rfc if simulator is not None else 0.0
            tracer.complete(
                "refresh",
                "refresh_burst",
                start_ns,
                bursts * t_rfc,
                track=("sys", "refresh"),
                args={"bursts": bursts},
            )

    def _on_window_end(self, window_index: int) -> None:
        """Refresh-window boundary: snapshot the per-window series."""
        self._snapshot_window(window_index, partial=False)

    def _snapshot_window(self, window_index: int, partial: bool) -> None:
        simulator = self._simulator
        if simulator is None:
            return
        totals = {
            "swaps": 0,
            "victim_refreshes": 0,
            "throttle_delay_ns": 0.0,
            "activations": 0,
            "accesses": 0,
        }
        for controller in simulator.controllers:
            stats = controller.stats
            totals["swaps"] += stats.swaps
            totals["victim_refreshes"] += stats.victim_refreshes
            totals["throttle_delay_ns"] += stats.throttle_delay_ns
            totals["activations"] += stats.activations
            totals["accesses"] += stats.accesses
        totals["refresh_bursts"] = simulator.refresh.refresh_bursts
        for name in sorted(totals):
            delta = totals[name] - self._marks[name]
            self.registry.series(f"window.{name}").append(delta)
            self._marks[name] = totals[name]
        tracer = self.tracer
        if not partial and tracer is not None and tracer.wants("refresh"):
            window_ns = simulator.config.dram.refresh_window_ns
            tracer.complete(
                "refresh",
                f"window {window_index}",
                window_index * window_ns,
                window_ns,
                track=("sys", "windows"),
                args={"window": window_index},
            )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, metrics, simulator) -> None:
        """Fold end-of-run aggregates into the registry and, when
        ``export_extra`` is set, into ``metrics.extra["obs"]``."""
        self._restore_gc_threshold()
        # Tail of the run since the last completed window (partial).
        if any(
            controller.stats.accesses for controller in simulator.controllers
        ):
            self._snapshot_window(simulator.refresh.windows_completed, partial=True)

        self._flush_latencies()

        # Counters the hot probes deliberately do not maintain,
        # recovered exactly from authoritative per-layer totals:
        #  * per-channel reads/writes — ControllerStats counts exactly
        #    the requests on_request saw;
        #  * per-bank and global ACT — every ACT (request misses,
        #    attack drivers, swap streams) increments
        #    ``Bank.total_activations``, which is never reset;
        #  * PRE — each ACT onto an open bank is preceded by one PRE,
        #    and explicit/auto precharges close the bank so the next
        #    ACT is not; the open/close transitions telescope to
        #    ``PRE = ACT - (banks left open at the end)`` under any
        #    page policy;
        #  * CAS — every CAS comes from a Bank.access call, one per
        #    serviced access (activate-only paths issue no CAS).
        if self._banks:
            cas_total = 0
            for controller in simulator.controllers:
                stats = controller.stats
                index = controller.channel.index
                self._chan_reads[index].value = stats.reads
                self._chan_writes[index].value = stats.writes
                cas_total += stats.accesses
            act_total = 0
            open_banks = 0
            for (_, bank), act_counter in zip(
                self._banks, self._bank_act_counters
            ):
                act_counter.value = bank.total_activations
                act_total += bank.total_activations
                if bank.timing.open_row >= 0:
                    open_banks += 1
            registry = self.registry
            registry.counter("dram.cmd.cas").value = cas_total
            registry.counter("dram.cmd.act").value = act_total
            registry.counter("dram.cmd.pre").value = act_total - open_banks

        acts_hist = self.registry.histogram(
            "dram.acts_per_row", DEFAULT_COUNT_BOUNDS
        )
        for acts in self._row_acts:
            for row in sorted(acts):
                acts_hist.observe(float(acts[row]))

        for controller in simulator.controllers:
            stats = controller.stats
            self.registry.gauge(
                f"controller.ch{controller.channel.index}.row_hit_rate"
            ).set(stats.row_buffer_hit_rate)
        self.registry.gauge("run.sim_time_ns").set(metrics.sim_time_ns)
        self.registry.gauge("run.windows").set(float(metrics.windows))
        self.registry.gauge("run.ipc").set(metrics.ipc)

        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                "exec",
                "run",
                0.0,
                metrics.sim_time_ns,
                track=("sys", "run"),
                args={
                    "workload": metrics.workload,
                    "mitigation": metrics.mitigation,
                },
            )
            tracer.flush()
        if self.export_extra:
            extra: Dict[str, Any] = {"metrics": self.registry.to_dict()}
            if tracer is not None:
                extra["trace"] = {
                    "emitted": tracer.emitted,
                    "dropped": tracer.dropped,
                }
            metrics.extra["obs"] = extra

    def close(self) -> None:
        """Release the tracer's sink (flushes a JSONL file)."""
        self._restore_gc_threshold()
        if self.tracer is not None:
            self.tracer.close()
