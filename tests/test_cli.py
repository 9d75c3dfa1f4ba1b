"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.check.cli import find_repo_root
from repro.cli import build_parser, main

BAD_FIXTURE = Path(__file__).parent / "check" / "fixtures" / "bad_module.py"


def test_parser_subcommands():
    parser = build_parser()
    for argv in (
        ["run", "--workload", "bzip2"],
        ["attack", "--pattern", "half-double"],
        ["security", "--t-rh", "4800"],
        ["info"],
        ["check"],
        ["check", "--rules", "--format", "json"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_info_lists_everything(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "bzip2" in out
    assert "rrs" in out
    assert "half-double" in out


def test_security_prints_table4(capsys):
    assert main(["security", "--t-rh", "4800", "--k", "6"]) == 0
    out = capsys.readouterr().out
    assert "800 (k=6)" in out
    assert "years" in out


def test_attack_rrs_defends(capsys):
    code = main(
        ["attack", "--pattern", "half-double", "--defense", "rrs",
         "--t-rh", "480", "--budget", "200000"]
    )
    assert code == 0
    assert "no flips" in capsys.readouterr().out


def test_attack_unprotected_flips(capsys):
    code = main(
        ["attack", "--pattern", "single", "--defense", "none",
         "--t-rh", "480", "--budget", "5000"]
    )
    assert code == 0  # 'none' is expected to flip
    assert "BIT FLIP" in capsys.readouterr().out


def test_attack_vfm_loses_to_half_double(capsys):
    code = main(
        ["attack", "--pattern", "half-double", "--defense", "ideal-vfm",
         "--t-rh", "480", "--budget", "400000"]
    )
    assert code == 1  # defense failed
    assert "BIT FLIP" in capsys.readouterr().out


def test_run_produces_comparison(capsys):
    code = main(
        ["run", "--workload", "gromacs", "--defense", "rrs",
         "--scale", "64", "--records", "2000"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "normalized" in out


def test_unknown_defense_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--defense", "magic"])


@pytest.mark.parametrize(
    "defense", ["graphene", "twice", "trr", "blockhammer", "ideal-vfm"]
)
def test_attack_command_supports_every_defense(defense, capsys):
    code = main(
        ["attack", "--pattern", "double", "--defense", defense,
         "--t-rh", "480", "--budget", "30000"]
    )
    out = capsys.readouterr().out
    assert "vs " + defense in out
    assert code in (0, 1)  # outcome-dependent, but must not crash


def test_check_clean_tree_exit_zero(capsys):
    assert main(["check", "--rules"]) == 0
    assert "ok: no findings" in capsys.readouterr().out


def test_check_json_findings_on_seeded_fixture(capsys):
    code = main(
        ["check", "--rules", "--paths", str(BAD_FIXTURE), "--format", "json"]
    )
    assert code == 1
    out = capsys.readouterr().out
    payload = json.loads(out)  # whole stdout must be one JSON document
    assert payload["count"] == len(payload["findings"]) > 0
    rules = {finding["rule"] for finding in payload["findings"]}
    assert {"RRS001", "RRS002", "RRS004", "RRS005", "RRS006", "RRS008"} <= rules
    for finding in payload["findings"]:
        assert finding["path"].endswith("bad_module.py")
        assert finding["line"] > 0


def test_check_sanitize_smoke_exit_zero(capsys):
    assert main(["check", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer smoke" in out
    assert "ok: no findings" in out


def test_check_parser_accepts_flow_flags():
    parser = build_parser()
    assert parser.parse_args(["check", "--flow"]).flow
    assert not parser.parse_args(["check"]).flow
    # The check keeps no committed manifest, so no re-bless verb is left.
    rebless = [f"--update-{name}" for name in ("oracles", "baseline", "salt")]
    for retired in ["--salt", *rebless]:
        with pytest.raises(SystemExit):
            parser.parse_args(["check", "--flow", retired])


def test_repo_root_discovery():
    repo_root = Path(__file__).resolve().parents[1]
    assert find_repo_root(repo_root) == repo_root
    assert find_repo_root(repo_root / "src" / "repro") == repo_root


def test_check_flow_clean_tree_exit_zero(capsys):
    assert main(["check", "--flow"]) == 0
    assert "ok: no findings" in capsys.readouterr().out


def test_check_flow_json_reports_severity_counts(capsys):
    assert main(["check", "--flow", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"error": 0, "warn": 0, "advice": 0}


def test_check_flow_error_finding_fails(capsys, tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    lonely = tmp_path / "src" / "repro" / "lonely.py"
    lonely.parent.mkdir(parents=True)
    lonely.write_text(
        "# repro-oracle: lonely -- oracle\n"
        "def slow(x):\n"
        "    return x\n"
    )
    code = main(["check", "--flow", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "ORA001" in out and "[error]" in out


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def test_trace_parser_accepts_positional_defense():
    parser = build_parser()
    args = parser.parse_args(["trace", "hmmer"])
    assert args.workload == "hmmer"
    assert args.defense == "rrs"
    args = parser.parse_args(
        ["trace", "mcf", "none", "--out", "t.json", "--categories", "rrs.swap"]
    )
    assert args.defense == "none"
    assert args.categories == "rrs.swap"


def test_trace_writes_valid_perfetto_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(
        ["trace", "hmmer", "rrs", "--records", "1500", "--out", str(out)]
    ) == 0
    text = capsys.readouterr().out
    assert "timeline:" in text
    assert str(out) in text

    from repro.obs import validate_trace_file

    document = validate_trace_file(out)
    assert document["otherData"]["workload"] == "hmmer"
    categories = {
        e.get("cat") for e in document["traceEvents"] if e.get("ph") != "M"
    }
    assert "dram.cmd" in categories


def test_trace_jsonl_stream(tmp_path, capsys):
    out = tmp_path / "trace.json"
    jsonl = tmp_path / "events.jsonl"
    assert main(
        ["trace", "hmmer", "rrs", "--records", "1000",
         "--out", str(out), "--jsonl", str(jsonl)]
    ) == 0
    from repro.obs import read_jsonl

    events = read_jsonl(str(jsonl))
    assert events
    assert {e.category for e in events} >= {"dram.cmd", "exec"}


def test_trace_category_filter(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(
        ["trace", "hmmer", "rrs", "--records", "1500",
         "--out", str(out), "--categories", "rrs.swap,refresh"]
    ) == 0
    document = json.loads(out.read_text())
    categories = {
        e.get("cat") for e in document["traceEvents"] if e.get("ph") != "M"
    }
    assert categories <= {"rrs.swap", "refresh"}


def test_trace_timeline_display_filters(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(
        ["trace", "hmmer", "rrs", "--records", "1500", "--out", str(out),
         "--category", "rrs.swap", "--limit", "5"]
    ) == 0
    text = capsys.readouterr().out
    assert "timeline filtered to 5 of" in text
    # The display filter must not narrow the trace file itself.
    document = json.loads(out.read_text())
    categories = {
        e.get("cat") for e in document["traceEvents"] if e.get("ph") != "M"
    }
    assert "dram.cmd" in categories


def test_trace_limit_zero_means_unfiltered(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(
        ["trace", "hmmer", "rrs", "--records", "1000", "--out", str(out)]
    ) == 0
    assert "timeline filtered" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def test_report_smoke_on_four_point_sweep(tmp_path, capsys):
    """End-to-end: sweep 4 points into the ledger, render the dashboard."""
    from repro.exec import MitigationSpec, ResultCache, SweepPoint, SweepRunner
    from repro.obs.reportgen import validate_report_file

    points = [
        SweepPoint(
            workload=workload,
            mitigation=MitigationSpec.none(),
            scale=32,
            records_per_core=500,
            cores=2,
            seed=seed,
        )
        for workload in ("stream", "hmmer")
        for seed in (0, 1)
    ]
    runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path / "cache"))
    runner.run(points, label="smoke")

    out = tmp_path / "report.html"
    code = main(
        ["report", "--out", str(out), "--bench-dir", str(tmp_path / "nope")]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "4 ledger entries" in text
    assert f"wrote {out}" in text

    payload = validate_report_file(out)
    assert len(payload["entries"]) == 4
    assert payload["latest_run_points"] == 4
    html = out.read_text()
    assert "stream/none@1/32" in html


def test_report_on_empty_ledger_is_fine(tmp_path, capsys):
    out = tmp_path / "report.html"
    assert main(
        ["report", "--ledger", str(tmp_path / "empty.jsonl"),
         "--out", str(out), "--bench-dir", str(tmp_path)]
    ) == 0
    assert "0 ledger entries" in capsys.readouterr().out
    assert out.exists()


def test_report_strict_fails_on_error_findings(tmp_path, capsys):
    from repro.obs.ledger import LedgerEntry, RunLedger

    ledger_path = tmp_path / "drift.jsonl"
    ledger = RunLedger(path=ledger_path, enabled=True)
    summary = {"ipc": 0.5, "accesses": 1000, "swaps": 4,
               "victim_refreshes": 0, "throttle_delay_ns": 0, "bit_flips": 0}
    for run in range(6):
        ledger.append(LedgerEntry(
            run_id=f"r{run}", point="bzip2/rrs@1/32", workload="bzip2",
            mitigation="rrs", scale=32, cache_key=f"k{run}", status="ok",
            ts=float(run), wall_seconds=2.0, worker=1, summary=dict(summary),
        ))
    ledger.append(LedgerEntry(
        run_id="fresh", point="bzip2/rrs@1/32", workload="bzip2",
        mitigation="rrs", scale=32, cache_key="fresh", status="ok",
        ts=99.0, wall_seconds=2.0, worker=1,
        summary={**summary, "ipc": 0.4},  # 20% regression
    ))

    out = tmp_path / "report.html"
    code = main(
        ["report", "--ledger", str(ledger_path), "--out", str(out),
         "--bench-dir", str(tmp_path), "--strict"]
    )
    assert code == 1
    assert "1 error" in capsys.readouterr().out
    assert "REG001" in out.read_text()


# ----------------------------------------------------------------------
# checkpoint verb
# ----------------------------------------------------------------------
def test_checkpoint_parser_accepts_flags():
    parser = build_parser()
    for argv in (
        ["checkpoint", "stream"],
        ["checkpoint", "stream", "none", "--records", "300", "--cores", "2"],
        ["checkpoint", "lbm", "rrs", "--verify", "--cut", "100"],
        ["checkpoint", "stream", "blockhammer", "--list", "--store", "/tmp/x"],
        ["checkpoint", "stream", "ideal-vfm", "--fresh", "--every", "64"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_checkpoint_verify_roundtrip_passes(capsys):
    code = main(
        ["checkpoint", "stream", "none",
         "--records", "300", "--cores", "2", "--verify"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "bit-identical" in out


def test_checkpoint_verify_unreachable_cut_fails(capsys):
    code = main(
        ["checkpoint", "stream", "none",
         "--records", "300", "--cores", "2", "--verify", "--cut", "999999"]
    )
    assert code == 1
    assert "never reached" in capsys.readouterr().out


def test_checkpoint_persist_then_resume_and_list(tmp_path, capsys):
    store = str(tmp_path / "store")
    base = ["checkpoint", "stream", "none", "--records", "300",
            "--cores", "2", "--every", "200", "--store", store]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert "from scratch" in first
    assert "persisted 3 cut(s)" in first  # cuts at 200, 400, 600 of 600

    # Second run warm-starts from the deepest persisted cut.
    assert main(base) == 0
    second = capsys.readouterr().out
    assert "resumed from cut 600" in second

    assert main(base + ["--list"]) == 0
    listing = capsys.readouterr().out
    assert "cut      200 / 600" in listing
    assert "cut      600 / 600" in listing

    # --fresh ignores the store for resuming.
    assert main(base + ["--fresh"]) == 0
    assert "from scratch" in capsys.readouterr().out
