"""Span tracing for the benchmark's traced run.

The traced run wraps the public entry points of each simulator layer
*from the benchmark's side* (the program itself carries no probes): a
wrapper opens a span on entry and closes it on exit, so every span has a
name, start, end, parent span and the benchmark operation ("point") it
ran under. Spans live in compact in-memory arrays and are written out
once, when the run ends.

A layer's self time is the summed duration of its spans minus the part
of each span covered by its direct child spans. The calls are
synchronous, so direct children never overlap and "covered" is the sum
of their durations.

Two rules keep tracing from changing what runs:

* only functions defined in a class's own ``__dict__`` are wrapped — the
  memory controller picks dispatch paths by comparing a mitigation's
  hooks against ``Mitigation``'s, so a hook must never be wrapped on a
  class that inherits it (``NoMitigation`` stays untouched);
* wrappers are installed before a simulation starts (the block loop
  binds mitigation hooks once, at loop start) and every patched
  attribute is restored afterwards, checked by identity.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

# Span names for each layer's public entry points.
SPAN_GEN = "workloads.gen"
SPAN_DECODE = "dram.decode"
SPAN_FAULTS = "dram.faults"
SPAN_MEM = "mem.loop"
SPAN_MITIGATION = "mitigations.hook"
SPAN_TRACK = "track.observe"
SPAN_ATTACK = "attacks.loop"
SPAN_MC = "analysis.mc"
SPAN_RUNNER = "exec.run"
SPAN_POINT = "exec.point"
SPAN_SNAPSHOT = "state.snapshot"
SPAN_WRITE = "state.write"
SPAN_RESTORE = "state.restore"


class Tracer:
    """In-memory span recorder plus named counters and samples."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.points: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.point = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[tuple]] = {}
        self._stack: List[int] = []
        self._point = -1

    # -- recording ----------------------------------------------------
    def name_id(self, name: str) -> int:
        """Interned id of a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_point(self, label: str) -> None:
        """Tag the spans opened from now on with an operation label."""
        self.points.append(label)
        self._point = len(self.points) - 1

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        """Record ``value`` under ``key``, tagged with the current point."""
        self.samples.setdefault(key, []).append((self._point, value))

    def sampled(self, key: str, point: Optional[str] = None) -> List[float]:
        """Values sampled under ``key`` (only those of ``point``, if given)."""
        return [
            value
            for index, value in self.samples.get(key, [])
            if point is None or (index >= 0 and self.points[index] == point)
        ]

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", Any, tuple, dict], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after`` sees the result."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        names, parents, points = self.name, self.parent, self.point
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            points.append(tracer._point)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def wrap_counter(self, fn: Callable, key: str) -> Callable:
        """``fn`` counting its calls under ``key`` (no span)."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.name)

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds."""
        per_name = self_times_by_name(
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            len(self.names),
        )
        return {name: float(per_name[i]) / 1e9 for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span (plus names and point labels) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                point=np.frombuffer(self.point, dtype=np.int32),
                start_ns=np.frombuffer(self.start, dtype=np.int64),
                end_ns=np.frombuffer(self.end, dtype=np.int64),
                names=np.array(json.dumps(self.names)),
                points=np.array(json.dumps(self.points)),
            )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def self_times_by_name(
    name: np.ndarray,
    parent: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    names: int,
) -> np.ndarray:
    """Self time summed per span-name id."""
    own = self_times(parent, start, end)
    return np.bincount(name, weights=own, minlength=names)


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
@dataclass
class Patch:
    """One attribute replaced on a class or module."""

    owner: Any
    attr: str
    original: Any
    replacement: Any


def make_patch(owner: Any, attr: str, build: Callable[[Callable], Callable]) -> Patch:
    """Patch a function the owner defines itself (never an inherited one)."""
    own = vars(owner)
    if attr not in own:
        raise ValueError(f"{owner!r} does not define {attr!r} itself")
    original = own[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"{owner!r}.{attr} is not a plain function")
    return Patch(owner, attr, original, build(original))


def install(patches: List[Patch]) -> None:
    for patch in patches:
        setattr(patch.owner, patch.attr, patch.replacement)


def restore(patches: List[Patch]) -> None:
    """Put every original back and check it by identity."""
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)
    for patch in patches:
        if vars(patch.owner)[patch.attr] is not patch.original:
            raise RuntimeError(f"failed to restore {patch.owner!r}.{patch.attr}")


def layer_patches(tracer: Tracer) -> List[Patch]:
    """Wrappers around each layer's public entry points."""
    from repro.analysis.buckets import BucketsAndBalls
    from repro.attacks.base import AttackHarness
    from repro.attacks.multibank import MultiBankAttackHarness
    from repro.core.rrs import RandomizedRowSwap
    from repro.dram.address import AddressMapper
    from repro.dram.faults import DisturbanceModel
    from repro.exec import runner as runner_module
    from repro.exec.runner import SweepRunner
    from repro.mem.controller import MemoryController
    from repro.mem.system import SystemSimulator
    from repro.mitigations.batching import BankBatchedMitigation
    from repro.mitigations.ideal_vfm import IdealVictimRefresh
    from repro.state.checkpoint import CheckpointStore
    from repro.track.array_state import ArrayMisraGries
    from repro.workloads.synthetic import ActivationProfile, GeneratorChunks

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    def count_block(t, block, args, kwargs):
        if block is not None:
            t.count("workloads.records", len(block))

    def count_stream(t, stream, args, kwargs):
        t.count("workloads.records", len(stream))

    def count_decoded(t, columns, args, kwargs):
        t.count("dram.decoded", len(args[1]))

    def count_call(key):
        def after(t, result, args, kwargs):
            t.count(key)

        return after

    def count_observed_block(t, result, args, kwargs):
        t.count("track.observed", args[2] if len(args) > 2 else kwargs["count"])

    def count_attack(t, result, args, kwargs):
        t.count("attacks.activations", result.activations)

    def count_trials(t, result, args, kwargs):
        t.count("analysis.trials", args[1] if len(args) > 1 else kwargs.get("trials", 200))

    def occupancy_sampler(fn):
        # Occupancy is sampled when a window ends, just before the reset.
        @functools.wraps(fn)
        def reset(self):
            tracer.sample("track.occupancy", len(self) / self.entries)
            return fn(self)

        return reset

    patches = [
        make_patch(GeneratorChunks, "next_block", span(SPAN_GEN, count_block)),
        make_patch(ActivationProfile, "bank_stream", span(SPAN_GEN, count_stream)),
        make_patch(AddressMapper, "decode_batch", span(SPAN_DECODE, count_decoded)),
        make_patch(SystemSimulator, "run", span(SPAN_MEM)),
        make_patch(
            MemoryController,
            "service",
            lambda fn: tracer.wrap_counter(fn, "mem.scalar_requests"),
        ),
        make_patch(ArrayMisraGries, "observe", span(SPAN_TRACK, count_call("track.observed"))),
        make_patch(ArrayMisraGries, "observe_block", span(SPAN_TRACK, count_observed_block)),
        make_patch(ArrayMisraGries, "reset", occupancy_sampler),
        make_patch(AttackHarness, "run", span(SPAN_ATTACK, count_attack)),
        make_patch(MultiBankAttackHarness, "run_adaptive", span(SPAN_ATTACK, count_attack)),
        make_patch(BucketsAndBalls, "success_probability", span(SPAN_MC, count_trials)),
        make_patch(SweepRunner, "run", span(SPAN_RUNNER)),
        make_patch(runner_module, "execute_point", span(SPAN_POINT)),
        make_patch(SystemSimulator, "checkpoint_payload", span(SPAN_SNAPSHOT)),
        make_patch(SystemSimulator, "restore_payload", span(SPAN_RESTORE)),
        make_patch(CheckpointStore, "put", span(SPAN_WRITE, count_call("state.cuts"))),
        make_patch(CheckpointStore, "get", span(SPAN_RESTORE)),
    ]
    for method in ("on_activate", "on_activate_many", "on_refresh_row", "end_window", "refresh_all"):
        patches.append(make_patch(DisturbanceModel, method, span(SPAN_FAULTS)))
    mitigation_span = tracer.name_id(SPAN_MITIGATION)

    def calls(t, result, args, kwargs):
        # One call per caller: the on_activation a batch call makes
        # inside its own span is not counted again.
        if not t._stack or t.name[t._stack[-1]] != mitigation_span:
            t.count("mitigations.calls")

    hooks = (
        (RandomizedRowSwap, "route", None),
        (RandomizedRowSwap, "on_activation", calls),
        (RandomizedRowSwap, "on_window_end", None),
        (BankBatchedMitigation, "on_activation_batch", calls),
        (IdealVictimRefresh, "on_activation", calls),
        (IdealVictimRefresh, "on_window_end", None),
    )
    for owner, method, after in hooks:
        patches.append(make_patch(owner, method, span(SPAN_MITIGATION, after)))
    return patches


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[List[Patch]]:
    """Install every layer wrapper for the duration of the block."""
    patches = layer_patches(tracer)
    install(patches)
    try:
        yield patches
    finally:
        restore(patches)
