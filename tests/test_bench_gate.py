"""``scripts/bench_gate.py`` compares only like with like.

The throughput history holds one entry per (phase, ``records_per_core``)
measurement; the gate judges a fresh serial rate only against the
newest committed serial entry of the same run length.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(phase, records, rate, sha="abc"):
    return {
        "phase": phase,
        "records_per_core": records,
        "requests_per_second": rate,
        "git_sha": sha,
        "date": "2026-01-01",
    }


HISTORY = [
    _entry("serial", 6000, 100.0, "old"),
    _entry("serial", 800, 10.0),
    _entry("traced", 6000, 50.0),
    _entry("serial", 6000, 200.0, "new"),
    _entry("attack", 6000, 900.0),
]


def test_latest_entry_matches_phase_and_run_length(gate):
    assert gate.latest_entry(HISTORY, "serial", 6000)["git_sha"] == "new"
    assert gate.latest_entry(HISTORY, "serial", 800)["requests_per_second"] == 10.0
    assert gate.latest_entry(HISTORY, "traced", 800) is None
    assert gate.latest_entry(HISTORY, "parallel", 6000) is None


def _files(tmp_path, records, rate):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"records_per_core": 6000, "history": HISTORY}))
    fresh = tmp_path / "fresh.json"
    fresh.write_text(
        json.dumps({"records_per_core": records, "serial_requests_per_second": rate})
    )
    mitigation = tmp_path / "mitigation.json"
    mitigation.write_text(json.dumps({"records_per_core": 6000, "mitigations": {}}))
    return [
        "--baseline", str(baseline),
        "--fresh", str(fresh),
        "--mitigation-baseline", str(mitigation),
        "--mitigation-fresh", str(tmp_path / "absent.json"),
    ]


def test_gates_against_the_matching_run_length(gate, tmp_path, capsys):
    # 170 clears 0.8 x 200 (the newest 6000-record serial entry) ...
    assert gate.main(_files(tmp_path, 6000, 170.0)) == 0
    assert "baseline new" in capsys.readouterr().out
    # ... 150 does not, though it beats the older 100.
    assert gate.main(_files(tmp_path, 6000, 150.0)) == 1


def test_short_runs_compare_with_short_runs(gate, tmp_path):
    assert gate.main(_files(tmp_path, 800, 9.0)) == 0
    assert gate.main(_files(tmp_path, 800, 7.0)) == 1


def test_run_length_without_history_is_skipped(gate, tmp_path, capsys):
    assert gate.main(_files(tmp_path, 1234, 1.0)) == 0
    assert "skipping the throughput gate" in capsys.readouterr().out
