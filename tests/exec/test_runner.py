"""SweepRunner: spec building, caching behaviour, ordering, env knobs."""

import pytest

from repro.core.rrs import RandomizedRowSwap
from repro.exec import (
    MitigationSpec,
    ResultCache,
    SweepPoint,
    SweepRunner,
    execute_point,
    registered_kinds,
)
from repro.exec.runner import default_jobs
from repro.mitigations.blockhammer import BlockHammer
from repro.mitigations.ideal_vfm import IdealVictimRefresh
from repro.mitigations.none import NoMitigation


def _point(workload="stream", records=800, cores=2, **overrides):
    kwargs = dict(
        workload=workload,
        mitigation=MitigationSpec.none(),
        scale=32,
        records_per_core=records,
        cores=cores,
    )
    kwargs.update(overrides)
    return SweepPoint(**kwargs)


# ----------------------------------------------------------------------
# Mitigation specs
# ----------------------------------------------------------------------
def test_builtin_kinds_registered():
    assert set(registered_kinds()) >= {"none", "rrs", "blockhammer", "ideal_vfm"}


def test_spec_builders_produce_right_types():
    assert isinstance(MitigationSpec.none().build(), NoMitigation)
    assert isinstance(
        MitigationSpec.rrs(t_rh=4800, scale=32).build(), RandomizedRowSwap
    )
    assert isinstance(
        MitigationSpec.blockhammer(
            t_rh=150, blacklist_threshold=16, window_ns=2_000_000
        ).build(),
        BlockHammer,
    )
    assert isinstance(
        MitigationSpec.ideal_vfm(t_rh=150, mitigation_threshold=12).build(),
        IdealVictimRefresh,
    )


def test_rrs_spec_matches_manual_derivation():
    """The 'rrs' builder must reproduce the Figure 6 factory exactly."""
    from repro.core.config import RRSConfig
    from repro.dram.config import DRAMConfig

    built = MitigationSpec.rrs(t_rh=4800, scale=32).build()
    manual = RRSConfig.for_threshold(4800, DRAMConfig()).scaled(32)
    assert built.config == manual


def test_unknown_kind_raises():
    with pytest.raises(ValueError, match="unknown mitigation kind"):
        MitigationSpec.make("warp-drive").build()


def test_non_scalar_param_rejected():
    with pytest.raises(TypeError):
        MitigationSpec.make("rrs", rows=[1, 2])


def test_spec_is_hashable_and_order_independent():
    a = MitigationSpec.make("rrs", t_rh=4800, scale=32)
    b = MitigationSpec.make("rrs", scale=32, t_rh=4800)
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical() == {"kind": "rrs", "params": {"scale": 32, "t_rh": 4800}}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_serial_run_matches_direct_execution(tmp_path):
    point = _point()
    runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    assert runner.run([point]) == [execute_point(point)]


def test_results_preserve_input_order(tmp_path):
    points = [_point(workload=name) for name in ("stream", "gromacs", "hmmer")]
    runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    results = runner.run(points)
    assert [metrics.workload for metrics in results] == [
        "stream",
        "gromacs",
        "hmmer",
    ]


def test_rerun_is_served_entirely_from_cache(tmp_path):
    points = [_point(), _point(mitigation=MitigationSpec.rrs(t_rh=4800, scale=32))]
    first = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    before = first.run(points)
    assert first.stats.simulated == 2

    second = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    after = second.run(points)
    assert second.stats.simulated == 0
    assert second.stats.cache_hits == 2
    assert after == before


def test_partial_cache_only_simulates_changed_points(tmp_path):
    cache_root = tmp_path / "cache"
    warm = SweepRunner(jobs=1, cache=ResultCache(root=cache_root))
    warm.run([_point()])

    mixed = SweepRunner(jobs=1, cache=ResultCache(root=cache_root))
    mixed.run([_point(), _point(seed=7)])
    assert mixed.stats.cache_hits == 1
    assert mixed.stats.simulated == 1


def test_repeated_point_in_a_batch_is_simulated_once(tmp_path):
    from repro.obs.ledger import STATUS_COPIED, STATUS_OK, RunLedger

    runner = SweepRunner(
        jobs=1,
        cache=ResultCache(enabled=False),
        ledger=RunLedger(path=tmp_path / "ledger.jsonl", enabled=True),
    )
    point = _point()
    first, second = runner.run([point, point])
    assert runner.stats.simulated == 1
    assert runner.stats.copied == 1
    assert runner.stats.points == 2
    assert first == second == execute_point(point)
    assert first is not second
    rows = runner.ledger.read()
    assert [row.status for row in rows] == [STATUS_OK, STATUS_COPIED]
    assert rows[0].cache_key == rows[1].cache_key
    assert rows[1].summary == rows[0].summary


def test_copies_keep_input_order_around_other_points(tmp_path):
    runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    a, b = _point(), _point(seed=5)
    results = runner.run([a, b, a, b, a])
    assert runner.stats.simulated == 2
    assert runner.stats.copied == 3
    assert results[0] == results[2] == results[4] != results[1]
    assert results[1] == results[3]


def test_stats_accumulate_and_label(tmp_path):
    runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    runner.run([_point()], label="first")
    runner.run([_point(seed=3)], label="first")
    assert runner.stats.points == 2
    assert set(runner.stats.per_label_seconds) == {"first"}
    assert runner.stats.wall_seconds > 0


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert default_jobs() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() == 1


def test_runner_jobs_argument_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert SweepRunner(jobs=2, use_cache=False).jobs == 2
    assert SweepRunner(use_cache=False).jobs == 6


# ----------------------------------------------------------------------
# Missing-result detection and progress reporting
# ----------------------------------------------------------------------
class _BrokenRunner(SweepRunner):
    """Runner whose execution stage loses every result."""

    def _execute(self, points, reporter=None):
        return [None for _ in points]


def test_missing_result_raises_identifying_the_point(tmp_path):
    runner = _BrokenRunner(jobs=1, cache=ResultCache(root=tmp_path))
    with pytest.raises(RuntimeError) as excinfo:
        runner.run([_point(workload="hmmer")], label="fig6")
    message = str(excinfo.value)
    assert "hmmer/none@1/32" in message
    assert "fig6" in message
    assert "1 of 1" in message


def test_missing_result_counts_every_missing_point(tmp_path):
    runner = _BrokenRunner(jobs=1, cache=ResultCache(root=tmp_path))
    points = [_point(workload=name) for name in ("stream", "hmmer")]
    with pytest.raises(RuntimeError, match=r"2 of 2.*stream/none@1/32"):
        runner.run(points)


def test_parallel_results_preserve_input_order(tmp_path):
    names = ["stream", "gromacs", "hmmer", "mcf"]
    points = [_point(workload=name) for name in names]
    runner = SweepRunner(jobs=2, cache=ResultCache(root=tmp_path))
    results = runner.run(points)
    assert [metrics.workload for metrics in results] == names


def test_progress_heartbeat_and_summary(tmp_path, capsys):
    points = [_point(), _point(seed=5)]
    runner = SweepRunner(
        jobs=1, cache=ResultCache(root=tmp_path), progress=True
    )
    runner.run(points, label="demo")
    err = capsys.readouterr().err
    assert "[sweep:demo] 1/2 points (0 cached, 1 simulated)" in err
    assert "[sweep:demo] 2/2 points (0 cached, 2 simulated)" in err
    assert "done: 2 points" in err

    again = SweepRunner(
        jobs=1, cache=ResultCache(root=tmp_path), progress=True
    )
    again.run(points, label="demo")
    err = capsys.readouterr().err
    assert "2/2 points (2 cached, 0 simulated)" in err


def test_progress_defaults_from_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    assert SweepRunner(jobs=1, cache=ResultCache(root=tmp_path)).progress is False
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    assert SweepRunner(jobs=1, cache=ResultCache(root=tmp_path)).progress is True


def test_progress_silent_by_default(tmp_path, capsys):
    runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    runner.run([_point()])
    assert capsys.readouterr().err == ""
