"""The cardinal invariant: tracing never perturbs simulation results.

A Figure-6-style point run with full tracing enabled must produce a
``SimMetrics.to_dict()`` bit-identical to the untraced run — observers
only read simulator state. These tests pin that, the ``extra`` export
hygiene, and the env-driven install path.
"""

import pytest

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mem.metrics import SimMetrics
from repro.obs import Observability, RingSink, Tracer
from repro.obs.metrics import DEFAULT_COUNT_BOUNDS, Histogram
from repro.workloads.suites import get_workload

SCALE = 128


def _mitigation():
    return RandomizedRowSwap(
        RRSConfig.for_threshold(4800, DRAMConfig()).scaled(SCALE)
    )


def _run(obs=None):
    return run_workload(
        get_workload("hmmer"),
        _mitigation(),
        scale=SCALE,
        records_per_core=2000,
        cores=2,
        obs=obs,
    )


@pytest.fixture(scope="module")
def untraced():
    return _run().to_dict()


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
def test_traced_run_is_bit_identical(untraced):
    """Figure-6 point, tracing on vs off: identical to_dict()."""
    obs = Observability(tracer=Tracer(RingSink()), export_extra=False)
    traced = _run(obs=obs).to_dict()
    assert traced == untraced
    assert obs.tracer.emitted > 0  # the tracer really was live


def test_metrics_only_observability_is_bit_identical(untraced):
    """No tracer at all — registry-only probes must not perturb either."""
    obs = Observability(tracer=None, export_extra=False)
    assert _run(obs=obs).to_dict() == untraced


def test_export_extra_differs_only_in_extra(untraced):
    obs = Observability(tracer=Tracer(RingSink()), export_extra=True)
    exported = _run(obs=obs).to_dict()
    extra = exported.pop("extra")
    assert exported == untraced
    assert "metrics" in extra["obs"]
    assert extra["obs"]["trace"]["emitted"] == obs.tracer.emitted


def test_env_driven_tracing_is_bit_identical(untraced, monkeypatch):
    """REPRO_TRACE=all through SystemSimulator's env opt-in path."""
    monkeypatch.setenv("REPRO_TRACE", "all")
    monkeypatch.setenv("REPRO_TRACE_SINK", "ring")
    metrics = _run()
    # export defaults off for env-driven tracing: cacheable results
    # stay byte-identical to untraced ones.
    assert metrics.extra == {}
    assert metrics.to_dict() == untraced


def test_tracing_composes_with_sanitizer(untraced, monkeypatch):
    """Bank observers chain: sanitizer + tracer together, same results."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    obs = Observability(tracer=Tracer(RingSink()), export_extra=False)
    assert _run(obs=obs).to_dict() == untraced


# ----------------------------------------------------------------------
# Trace content sanity
# ----------------------------------------------------------------------
def test_traced_run_covers_expected_categories():
    obs = Observability(tracer=Tracer(RingSink()), export_extra=False)
    metrics = _run(obs=obs)
    categories = {event.category for event in obs.tracer.events}
    assert {"dram.cmd", "exec", "refresh"} <= categories
    if metrics.swaps:
        assert "rrs.swap" in categories
        swaps = [e for e in obs.tracer.events if e.category == "rrs.swap"]
        assert len(swaps) == metrics.swaps
        for event in swaps:
            assert set(event.args) >= {"row", "destination", "ops",
                                       "blocked_ns"}


def test_acts_per_row_matches_the_act_command_stream():
    """``dram.acts_per_row`` holds one observation per (bank, physical
    row) activated in the run, valued at that row's ACT count: the same
    counts the ``dram.cmd`` ACT events give, across a window end."""
    obs = Observability(
        tracer=Tracer(RingSink(capacity=10**7), categories=["dram.cmd"]),
        export_extra=False,
    )
    metrics = run_workload(
        get_workload("hmmer"),
        _mitigation(),
        scale=SCALE,
        records_per_core=8000,
        cores=2,
        obs=obs,
    )
    assert metrics.windows >= 1 and metrics.swaps > 0
    assert obs.tracer.dropped == 0
    acts: dict = {}
    for event in obs.tracer.events:
        if event.name == "ACT":
            key = (event.track, event.args["row"])
            acts[key] = acts.get(key, 0) + 1
    expected = Histogram("expected", DEFAULT_COUNT_BOUNDS)
    for key in sorted(acts):
        expected.observe(float(acts[key]))
    histogram = obs.registry.get("dram.acts_per_row")
    assert sum(acts.values()) == metrics.activations
    assert histogram.to_value() == expected.to_value()


def test_category_filter_limits_stream():
    obs = Observability(
        tracer=Tracer(RingSink(), categories=["rrs.swap"]), export_extra=False
    )
    _run(obs=obs)
    assert {event.category for event in obs.tracer.events} <= {"rrs.swap"}


def test_observability_refuses_double_install():
    obs = Observability(tracer=Tracer(RingSink()))
    _run(obs=obs)
    with pytest.raises(RuntimeError, match="already installed"):
        _run(obs=obs)


# ----------------------------------------------------------------------
# SimMetrics.extra hygiene
# ----------------------------------------------------------------------
def test_empty_extra_is_omitted_from_to_dict():
    assert "extra" not in SimMetrics(workload="x").to_dict()


def test_nonempty_extra_round_trips():
    metrics = SimMetrics(workload="x")
    metrics.extra["obs"] = {"metrics": {"a": 1}}
    data = metrics.to_dict()
    assert data["extra"]["obs"]["metrics"] == {"a": 1}
    # deep copy: mutating the dict view must not touch the original
    data["extra"]["obs"]["metrics"]["a"] = 99
    assert metrics.extra["obs"]["metrics"]["a"] == 1
    restored = SimMetrics.from_dict(metrics.to_dict())
    assert restored.extra == metrics.extra
