"""Tests for the benchmark's own machinery (tracing, restore, dispatch).

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src", HERE.parent):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import reference  # noqa: E402
import spans  # noqa: E402
from repro.exec import MitigationSpec, SweepPoint  # noqa: E402
from repro.exec import runner as runner_module  # noqa: E402
from repro.mem.controller import MemoryController  # noqa: E402
from repro.mem.system import SystemSimulator  # noqa: E402
from repro.mitigations.base import Mitigation  # noqa: E402
from repro.mitigations.none import NoMitigation  # noqa: E402
from repro.state.checkpoint import CheckpointSession, CheckpointStore  # noqa: E402


def _tiny_point(kind="rrs", records=4096):
    mitigation = MitigationSpec.rrs(t_rh=4800, scale=32) if kind == "rrs" else MitigationSpec.none()
    return SweepPoint(
        workload="hmmer", mitigation=mitigation, scale=32, records_per_core=records, cores=2
    ).resolved()


def test_self_time_arithmetic_on_nested_spans():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,70]
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0, 10, 15, 50], dtype=np.int64)
    end = np.array([100, 40, 25, 70], dtype=np.int64)
    assert spans.self_times(parent, start, end).tolist() == [50.0, 20.0, 10.0, 20.0]
    name = np.array([0, 1, 2, 1], dtype=np.int32)
    by_name = spans.self_times_by_name(name, parent, start, end, 3)
    assert by_name.tolist() == [50.0, 40.0, 10.0]
    # Self times partition the root span's duration.
    assert by_name.sum() == 100.0


def test_tracer_records_parents_and_partitions_time():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    tracer.set_point("p")
    tracer.wrap(outer, "root")()
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["root", "outer", "inner", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 1, 1, 1]
    assert set(tracer.point) == {0}
    selfs = tracer.self_seconds()
    root = (tracer.end[0] - tracer.start[0]) / 1e9
    assert sum(selfs.values()) == pytest.approx(root)
    assert all(value >= 0 for value in selfs.values())


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._stack == []


def test_only_own_functions_are_patched():
    with pytest.raises(ValueError):
        spans.make_patch(NoMitigation, "on_activation", lambda fn: fn)


def _patched_originals():
    return [(p.owner, p.attr, p.original) for p in spans.layer_patches(spans.Tracer())]


def test_wrappers_are_fully_restored(tmp_path):
    before = _patched_originals()
    tracer = spans.Tracer()
    with spans.traced(tracer) as patches:
        assert all(vars(p.owner)[p.attr] is p.replacement for p in patches)
        runner_module.execute_point(_tiny_point())
    assert len(tracer) > 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
    # ... also when the traced block raises.
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("inside")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def _run_all(store_root):
    """Tiny versions of every path the benchmark traces."""
    from repro.attacks.base import AttackHarness
    from repro.attacks.patterns import HalfDoubleAttack
    from repro.analysis.security import validate_window_model
    from repro.core.rrs import RandomizedRowSwap
    from repro.mitigations.ideal_vfm import IdealVictimRefresh

    out = {}
    for kind in ("rrs", "none"):
        out[kind] = runner_module.execute_point(_tiny_point(kind)).to_dict()
    point = _tiny_point("rrs", records=8192)
    store = CheckpointStore(root=store_root)
    fingerprint = point.checkpoint_fingerprint()
    session = CheckpointSession(fingerprint=fingerprint, every=4096, sink=store.put)
    out["checkpointed"] = runner_module.execute_point(point, checkpoints=session).to_dict()
    resume = CheckpointSession(
        fingerprint=fingerprint, resume=store.get(fingerprint, session.saved[1])
    )
    out["resumed"] = runner_module.execute_point(point, checkpoints=resume).to_dict()
    for label, mitigation in (
        ("vfm", IdealVictimRefresh(t_rh=4800, mitigation_threshold=16)),
        ("rrs-attack", RandomizedRowSwap()),
    ):
        result = AttackHarness(mitigation).run(
            HalfDoubleAttack(victim=1000, dose_interval=10**9).rows(), max_activations=20_000
        )
        out[label] = (result.activations, result.swaps, result.elapsed_ns, len(result.flips))
    mc = validate_window_model(target_balls=6, trials=2_000)
    out["mc"] = (mc.hits, mc.measured)
    return out


def test_traced_outputs_equal_untraced(tmp_path):
    untraced = _run_all(tmp_path / "a")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = _run_all(tmp_path / "b")
    assert traced == untraced
    assert traced["checkpointed"] == traced["resumed"]
    selfs = tracer.self_seconds()
    for span in ("mem.loop", "mitigations.hook", "track.observe", "dram.faults",
                 "attacks.loop", "analysis.mc", "state.snapshot", "state.write",
                 "state.restore", "workloads.gen", "dram.decode", "exec.point"):
        assert span in selfs, span


def _dispatch_flags(mitigation):
    sim = SystemSimulator(mitigation=mitigation)
    controller = sim.controllers[0]
    return (
        controller._has_route,
        controller._has_pre_delay,
        controller._mitigates_acts,
        controller._batch is None,
    )


def test_no_mitigation_dispatch_flags_unchanged_while_traced():
    from repro.core.rrs import RandomizedRowSwap

    plain = (_dispatch_flags(NoMitigation()), _dispatch_flags(RandomizedRowSwap()))
    with spans.traced(spans.Tracer()):
        traced = (_dispatch_flags(NoMitigation()), _dispatch_flags(RandomizedRowSwap()))
        assert NoMitigation.on_activation is Mitigation.on_activation
        assert NoMitigation.route is Mitigation.route
    assert traced == plain
    assert plain[0] == (False, False, False, True)


def test_block_loop_still_dispatched_while_traced():
    from repro.mem.cpu import Core
    from repro.workloads.suites import get_workload
    from repro.workloads.synthetic import SyntheticTraceGenerator

    sim = SystemSimulator()
    cores = [
        Core(i, SyntheticTraceGenerator(get_workload("hmmer"), core_id=i).chunks(64),
             sim.config.core, mapper=sim.mapper)
        for i in range(sim.config.cores)
    ]
    with spans.traced(spans.Tracer()):
        assert sim._block_loop_eligible(cores)
        assert all(isinstance(c, MemoryController) for c in sim.controllers)


def test_benchmark_json_lists_every_reported_metric():
    import json

    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _) in run.LAYER_MAP.items()
    }
    import jobs

    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)


def test_reference_samples_during_work_and_restores_the_timer():
    meter = reference.Reference()
    handler = signal.getsignal(signal.SIGPROF)
    with meter.sampling():
        started = time.process_time()
        while time.process_time() - started < 20 * reference.INTERVAL:
            sum(range(1000))
    during = list(meter.samples)
    assert len(during) >= 5
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    burst = meter.burst()
    assert len(burst) == reference.BURST
    assert reference.speed(during + burst) > 0
