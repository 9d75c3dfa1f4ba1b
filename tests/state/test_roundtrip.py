"""The checkpoint round-trip oracle.

For every mitigation: snapshot at a cut, serialize through strict JSON
(exactly what a fresh process would load from disk), restore into a
freshly constructed simulator, run to completion — the resulting
:class:`SimMetrics` must be bit-identical to the uninterrupted run.
Cut points are fuzzed over the whole run, including the degenerate
cut-before-the-first-request (0) and cut-after-the-last-request
(total) ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mem.system import SystemConfig, SystemSimulator
from repro.mitigations import (
    PARA,
    BlockHammer,
    BlockHammerConfig,
    Graphene,
    IdealVictimRefresh,
    NoMitigation,
    TWiCe,
    TargetedRowRefresh,
)
from repro.state.checkpoint import CheckpointSession, SimCheckpoint
from repro.state.protocol import NotSnapshotable
from repro.workloads.suites import get_workload
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import TraceChunks

SCALE = 128
CORES = 2
RECORDS = 600
TOTAL = RECORDS * CORES
SEED = 1
# Cut grid: both degenerate ends, an odd mid-run point, a block-unaligned
# early point, and the penultimate request.
CUT_GRID = (0, 1, 257, 600, TOTAL - 1, TOTAL)

MITIGATIONS = (
    "none",
    "rrs",
    "para",
    "graphene",
    "twice",
    "trr",
    "ideal_vfm",
    "blockhammer",
)


def _mitigation(name: str):
    """A fresh mitigation instance (state is never shared across runs)."""
    dram = DRAMConfig().scaled(SCALE)
    rows = DRAMConfig().rows_per_bank
    t_rh = max(12, 4800 // SCALE)
    if name == "none":
        return NoMitigation()
    if name == "rrs":
        return RandomizedRowSwap(
            RRSConfig.for_threshold(4800, DRAMConfig()).scaled(SCALE), dram
        )
    if name == "rrs_scalar":
        # RRS on on_activation for every activation: the compiled loop
        # runs no tracker for a bank whose hot_row_tracker is None.
        mitigation = _mitigation("rrs")
        mitigation.hot_row_tracker = lambda bank_key: None
        return mitigation
    if name == "para":
        return PARA(probability=0.02, rows_per_bank=rows, seed=SEED)
    if name == "graphene":
        return Graphene(
            t_rh=t_rh,
            window_activations=dram.acts_per_refresh_window,
            rows_per_bank=rows,
        )
    if name == "twice":
        return TWiCe(t_rh=t_rh, window_ns=dram.refresh_window_ns, rows_per_bank=rows)
    if name == "trr":
        return TargetedRowRefresh(rows_per_bank=rows)
    if name == "ideal_vfm":
        return IdealVictimRefresh(t_rh=t_rh, rows_per_bank=rows)
    if name == "blockhammer":
        return BlockHammer(
            BlockHammerConfig(
                t_rh=t_rh,
                blacklist_threshold=4,
                window_ns=dram.refresh_window_ns,
            )
        )
    raise ValueError(name)


def _run(name: str, session=None, with_faults: bool = False):
    return run_workload(
        get_workload("lbm"),
        _mitigation(name),
        scale=SCALE,
        records_per_core=RECORDS,
        cores=CORES,
        seed=SEED,
        with_faults=with_faults,
        checkpoints=session,
    )


@functools.lru_cache(maxsize=None)
def _scratch(name: str, with_faults: bool = False):
    """One uninterrupted run capturing a JSON checkpoint at every cut."""
    captured = {}
    session = CheckpointSession(
        cuts=CUT_GRID,
        sink=lambda ckpt: captured.setdefault(ckpt.serviced, ckpt.dumps()),
    )
    metrics = _run(name, session, with_faults=with_faults)
    assert sorted(captured) == sorted(CUT_GRID)
    return metrics, captured


def _resume(name: str, cut: int, with_faults: bool = False):
    baseline, captured = _scratch(name, with_faults)
    reloaded = SimCheckpoint.loads(captured[cut])
    resumed = _run(
        name,
        CheckpointSession(resume=reloaded),
        with_faults=with_faults,
    )
    return baseline, resumed


# ----------------------------------------------------------------------
# The oracle, per mitigation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", MITIGATIONS)
@pytest.mark.parametrize("cut", [0, TOTAL])
def test_degenerate_cuts_roundtrip(name, cut):
    """Cut before the first request and after the last one."""
    baseline, resumed = _resume(name, cut)
    assert resumed == baseline


@pytest.mark.parametrize("name", MITIGATIONS)
@settings(max_examples=4, deadline=None)
@given(cut=st.sampled_from(CUT_GRID))
def test_fuzzed_cuts_roundtrip(name, cut):
    baseline, resumed = _resume(name, cut)
    assert resumed == baseline


# ----------------------------------------------------------------------
# Behaviour-shaping toggles
# ----------------------------------------------------------------------
def test_roundtrip_with_fault_model():
    baseline, resumed = _resume("rrs", 257, with_faults=True)
    assert resumed == baseline


def test_roundtrip_under_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _scratch.cache_clear()  # sanitizer state must be inside the payload
    try:
        baseline, resumed = _resume("rrs", 257)
        assert resumed == baseline
    finally:
        _scratch.cache_clear()


def test_roundtrip_with_scalar_mitigation_path():
    baseline, resumed = _resume("rrs_scalar", 257)
    assert resumed == baseline
    assert baseline == _scratch("rrs")[0]


def test_roundtrip_matches_block_controller_loop(scalar_loop):
    """Checkpointed runs take the same loop as plain runs; a resume
    under either loop must be bit-identical to the plain run under
    either (scalar == block is pinned by tests/mem)."""
    baseline, _ = _scratch("rrs")
    for forced in (contextlib.nullcontext, scalar_loop):
        with forced():
            _, resumed = _resume("rrs", 257)
            plain = _run("rrs")
        assert plain == baseline == resumed


def _swapping_rrs(session=None):
    """An xz_17 run; under RRS it swaps by request 80 and keeps
    revisiting the swapped rows after it (lbm at this scale never
    swaps)."""
    return run_workload(
        get_workload("xz_17"),
        _mitigation("rrs"),
        scale=SCALE,
        records_per_core=1_000,
        cores=CORES,
        seed=SEED,
        checkpoints=session,
    )


def test_rrs_resume_with_swapped_rows_matches_on_both_loops(scalar_loop):
    """Cut after the first swaps, while the RIT holds entries, then
    resume under either loop: the compiled loop must route through the
    restored RIT (``RandomizedRowSwap.route_table``) and finish exactly
    as the uninterrupted run. The final cut's text holds each bank's
    per-physical-row activation counts, so a misrouted access shows
    even where timing would not."""
    end = CORES * 1_000
    texts = {}
    session = CheckpointSession(
        cuts=(80, end),
        sink=lambda ckpt: texts.setdefault(ckpt.serviced, ckpt.dumps()),
    )
    with scalar_loop():
        baseline = _swapping_rrs(session)
    reloaded = SimCheckpoint.loads(texts[80])
    restored = _mitigation("rrs")
    restored.restore_state(reloaded.payload[4])
    assert restored.total_swaps > 0
    assert any(state.rit.forward for state in restored._banks.values())
    for forced in (contextlib.nullcontext, scalar_loop):
        finals = []
        with forced():
            resumed = _swapping_rrs(
                CheckpointSession(
                    resume=reloaded,
                    cuts=(end,),
                    sink=lambda ckpt: finals.append(ckpt.dumps()),
                )
            )
            plain = _swapping_rrs()
        assert plain == baseline == resumed
        assert finals == [texts[end]]


def _cut_texts(name: str) -> dict:
    texts = {}
    session = CheckpointSession(
        cuts=CUT_GRID,
        sink=lambda ckpt: texts.setdefault(ckpt.serviced, ckpt.dumps()),
    )
    _run(name, session)
    return texts


@pytest.mark.parametrize("name", MITIGATIONS)
def test_cut_payloads_match_across_loops(name, scalar_loop):
    """The block loop stops with exactly the state the scalar oracle
    has between the same two requests: every cut serializes to the
    same text under either loop."""
    block = _cut_texts(name)
    with scalar_loop():
        scalar = _cut_texts(name)
    assert sorted(block) == sorted(CUT_GRID)
    for cut in CUT_GRID:
        assert block[cut] == scalar[cut], f"cut {cut} differs"


class _SmallBlocks(TraceChunks):
    """A snapshotable chunk source serving pre-built short blocks, so a
    tiny run crosses many block boundaries."""

    __slots__ = ("_list", "_next")

    def __init__(self, blocks):
        super().__init__(())
        self._list = list(blocks)
        self._next = 0

    def next_block(self):
        if self._next >= len(self._list):
            return None
        self._next += 1
        return self._list[self._next - 1]

    def snapshot_state(self):
        return (self._next,)

    def restore_state(self, state):
        (self._next,) = state


def _small_block_run(session=None):
    dram = DRAMConfig().scaled(SCALE)
    sim = SystemSimulator(
        SystemConfig(dram=dram, cores=CORES), mitigation=_mitigation("rrs")
    )
    traces = []
    for core_id in range(CORES):
        generator = SyntheticTraceGenerator(
            get_workload("lbm"), core_id=core_id, cores=CORES, config=dram,
            seed=SEED,
        )
        (block,) = generator.blocks(SMALL_RECORDS[core_id])
        traces.append(_SmallBlocks(np.array_split(block, len(block) // 16)))
    return sim.run(traces, workload="lbm", checkpoints=session)


# Unequal lengths: one core exhausts while the other still issues.
SMALL_RECORDS = (160, 97)


def test_cuts_at_every_request_match_across_loops(scalar_loop):
    """A cut after every request of a run with 16-record blocks covers
    stops on a block's last record, on a core's last record and at the
    end of the run: the loops agree on each, and resumes from either
    loop's cuts finish bit-identically under the other."""
    loops = {"block": contextlib.nullcontext, "scalar": scalar_loop}
    texts = {}
    for loop, forced in loops.items():
        cuts = texts[loop] = {}
        session = CheckpointSession(
            every=1,
            cuts=(0,),
            sink=lambda ckpt: cuts.setdefault(ckpt.serviced, ckpt.dumps()),
        )
        with forced():
            baseline = _small_block_run(session)
    assert sorted(texts["block"]) == list(range(sum(SMALL_RECORDS) + 1))
    assert texts["block"] == texts["scalar"]
    for source, cut in (
        ("block", 16), ("scalar", 17), ("block", 200), ("scalar", 257)
    ):
        other = "scalar" if source == "block" else "block"
        reloaded = SimCheckpoint.loads(texts[source][cut])
        with loops[other]():
            resumed = _small_block_run(CheckpointSession(resume=reloaded))
        assert resumed == baseline, (source, cut)


def test_checkpointed_run_dispatches_block_loop(monkeypatch):
    """Cutting and resuming stay on the block loop: it is re-entered at
    each cut with the distance to the next one, then run to the end."""
    from repro.mem import system as system_module

    real = system_module.run_block_loop
    stops = []

    def spy(sim, cores, stop_at=-1):
        stops.append(stop_at)
        return real(sim, cores, stop_at)

    baseline, _ = _scratch("rrs")
    monkeypatch.setattr(system_module, "run_block_loop", spy)
    cuts = []
    session = CheckpointSession(cuts=(257, 600), sink=cuts.append)
    assert _run("rrs", session) == baseline
    assert [c.serviced for c in cuts] == [257, 600]
    assert stops == [257, 600 - 257, -1]
    stops.clear()
    _, resumed = _resume("rrs", 600)
    assert resumed == baseline
    assert stops == [-1]


def test_record_iterator_run_is_not_snapshotable():
    """A ``.records()`` trace is packed into plain chunks that have no
    position to capture, so the first cut refuses to snapshot it."""
    dram = DRAMConfig().scaled(SCALE)
    sim = SystemSimulator(
        SystemConfig(dram=dram, cores=CORES), mitigation=_mitigation("rrs")
    )
    traces = [
        SyntheticTraceGenerator(
            get_workload("lbm"), core_id=core_id, cores=CORES, config=dram,
            seed=SEED,
        ).records(RECORDS)
        for core_id in range(CORES)
    ]
    with pytest.raises(NotSnapshotable, match="TraceChunks is not Snapshotable"):
        sim.run(traces, checkpoints=CheckpointSession(cuts=(257,)))


def test_sanitizer_presence_mismatch_is_refused(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    _, captured = _scratch("none")
    reloaded = SimCheckpoint.loads(captured[257])
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.raises(ValueError, match="REPRO_SANITIZE"):
        _run("none", CheckpointSession(resume=reloaded))


# ----------------------------------------------------------------------
# Cross-process: restore in a fresh interpreter
# ----------------------------------------------------------------------
def test_resume_in_fresh_process_is_bit_identical(tmp_path):
    baseline, captured = _scratch("rrs")
    checkpoint_path = tmp_path / "cut.json"
    checkpoint_path.write_text(captured[600])
    script = (
        "import json, sys\n"
        "from repro.analysis.perf import run_workload\n"
        "from repro.state.checkpoint import CheckpointSession, SimCheckpoint\n"
        "from repro.workloads.suites import get_workload\n"
        "sys.path.insert(0, {helper!r})\n"
        "from test_roundtrip import SCALE, CORES, RECORDS, SEED, _mitigation\n"
        "ckpt = SimCheckpoint.loads(open({path!r}).read())\n"
        "metrics = run_workload(get_workload('lbm'), _mitigation('rrs'),\n"
        "    scale=SCALE, records_per_core=RECORDS, cores=CORES, seed=SEED,\n"
        "    checkpoints=CheckpointSession(resume=ckpt))\n"
        "print(json.dumps(metrics.to_dict(), sort_keys=True))\n"
    ).format(helper=str(Path(__file__).parent), path=str(checkpoint_path))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    resumed = json.loads(result.stdout.strip().splitlines()[-1])
    assert resumed == json.loads(
        json.dumps(baseline.to_dict(), sort_keys=True)
    )
