#!/usr/bin/env python3
"""CI bench gate: fail when bench throughput regresses vs the baseline.

Two gated baselines, both compared against the committed version of
the results file at ``HEAD`` (so the gate works after a bench run has
overwritten the working-tree copy):

* ``BENCH_throughput.json`` — the serial sweep's requests/second from
  ``bench_throughput.py``;
* ``BENCH_mitigation.json`` — per-mitigation
  ``batched_activations_per_second`` from ``bench_mitigation.py``
  (skipped with a note when either side lacks the file, so the gate
  still runs on branches that predate it).

The gate fails when a fresh number falls more than ``--tolerance``
(default 20%) below its baseline. The tolerance absorbs shared-runner
noise that the benchmark's min-of-N timing cannot: CI machines differ
in clock speed and neighbours, so only a regression well outside that
band is attributable to the code. Genuine hot-path regressions land
far beyond 20%; see the ``history`` array in the results files for the
trajectory.

Only like is compared with like. The throughput file's ``history``
holds one entry per (phase, ``records_per_core``) measurement, and the
fresh serial rate is gated against the newest committed ``serial``
entry with the fresh run's ``records_per_core`` — requests/second is a
rate, but short runs amortize startup differently, so comparing
mismatched run lengths would make the gate flaky. With no such entry
the gate is skipped with a note. The mitigation file has no history;
its two runs must use the same ``records_per_core``.

``--ledger`` switches the gate to a third, statistical mode: instead
of comparing bench files, it judges the newest sweep recorded in the
run ledger against the ledger's own history via
:mod:`repro.obs.regress` (median/MAD robust z-scores per workload,
mitigation, and scale group). Error-tier findings (``REG001``) fail
the gate; warn and advice findings are printed but never build-
failing — mirroring the ``repro check`` severity contract.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results" / "BENCH_throughput.json"
MITIGATION_RESULTS = REPO_ROOT / "benchmarks" / "results" / "BENCH_mitigation.json"
METRIC = "requests_per_second"
PHASE = "serial"
MITIGATION_METRIC = "batched_activations_per_second"


def _committed_baseline(path: Path = RESULTS) -> dict:
    """A results file as committed at HEAD."""
    probe = subprocess.run(
        ["git", "show", f"HEAD:{path.relative_to(REPO_ROOT).as_posix()}"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    if probe.returncode != 0:
        raise SystemExit(
            f"bench-gate: cannot read committed baseline: {probe.stderr.strip()}"
        )
    return json.loads(probe.stdout)


def latest_entry(history: list, phase: str, records_per_core: int) -> dict | None:
    """The newest history entry measured in ``phase`` at this run length."""
    for entry in reversed(history):
        if (
            entry.get("phase") == phase
            and entry.get("records_per_core") == records_per_core
        ):
            return entry
    return None


def _committed_mitigation_baseline() -> dict | None:
    """HEAD's mitigation baseline, or None when it predates the file."""
    probe = subprocess.run(
        ["git", "show", f"HEAD:{MITIGATION_RESULTS.relative_to(REPO_ROOT).as_posix()}"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    if probe.returncode != 0:
        return None
    return json.loads(probe.stdout)


def _gate(label: str, base: float, now: float, tolerance: float) -> bool:
    """Print one gate line; True when ``now`` clears the floor."""
    floor = base * (1.0 - tolerance)
    ratio = now / base if base else float("inf")
    print(
        f"bench-gate: {label} {now:,.0f} vs baseline {base:,.0f} "
        f"= {ratio:.2f}x; floor {floor:,.0f} (tolerance {tolerance:.0%})"
    )
    if now < floor:
        print(
            f"bench-gate: FAIL — {label} regressed {1.0 - ratio:.0%} "
            f"(> {tolerance:.0%} allowed)",
            file=sys.stderr,
        )
        return False
    return True


def _gate_mitigations(args) -> bool:
    """Gate every mitigation's batched activation rate; True on pass.

    Missing files (either side) skip the gate rather than failing: the
    mitigation baseline arrived later than the throughput one, and a
    bench run may legitimately produce only the throughput file.
    """
    if args.mitigation_baseline is None:
        baseline = _committed_mitigation_baseline()
        baseline_name = "HEAD:benchmarks/results/BENCH_mitigation.json"
    else:
        baseline = json.loads(Path(args.mitigation_baseline).read_text())
        baseline_name = args.mitigation_baseline
    fresh_path = Path(args.mitigation_fresh)
    if baseline is None:
        print("bench-gate: no committed mitigation baseline yet — skipping")
        return True
    if not fresh_path.exists():
        print(
            f"bench-gate: no fresh mitigation results at {fresh_path} — "
            "run benchmarks/bench_mitigation.py to gate the activation path"
        )
        return True
    fresh = json.loads(fresh_path.read_text())
    if fresh["records_per_core"] != baseline["records_per_core"]:
        raise SystemExit(
            "bench-gate: mitigation run lengths differ — baseline "
            f"records_per_core={baseline['records_per_core']}, fresh="
            f"{fresh['records_per_core']}; rerun the bench with "
            f"REPRO_BENCH_RECORDS={baseline['records_per_core']}"
        )
    ok = True
    for name, base_row in sorted(baseline["mitigations"].items()):
        fresh_row = fresh["mitigations"].get(name)
        if fresh_row is None:
            print(
                f"bench-gate: FAIL — mitigation {name!r} present in "
                f"{baseline_name} but missing from the fresh run",
                file=sys.stderr,
            )
            ok = False
            continue
        ok &= _gate(
            f"{name} {MITIGATION_METRIC}",
            base_row[MITIGATION_METRIC],
            fresh_row[MITIGATION_METRIC],
            args.tolerance,
        )
    return ok


def _gate_ledger(args) -> int:
    """Statistical gate over the sweep run ledger; process exit code."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs.ledger import default_ledger_path, read_ledger, split_latest_run
    from repro.obs.regress import detect_drift

    ledger_path = Path(args.ledger_path) if args.ledger_path else default_ledger_path()
    entries = read_ledger(ledger_path)
    if not entries:
        print(f"bench-gate: ledger {ledger_path} is empty — nothing to gate")
        return 0
    history, fresh = split_latest_run(entries)
    findings = detect_drift(
        history,
        fresh,
        warn_z=args.warn_z,
        error_z=args.error_z,
        min_history=args.min_history,
        path=str(ledger_path),
    )
    print(
        f"bench-gate: ledger mode — {len(fresh)} fresh point(s) vs "
        f"{len(history)} historical entries in {ledger_path}"
    )
    errors = 0
    for finding in findings:
        stream = sys.stderr if finding.severity == "error" else sys.stdout
        print(f"bench-gate: {finding}", file=stream)
        errors += finding.severity == "error"
    if errors:
        print(
            f"bench-gate: FAIL — {errors} error-tier drift finding(s)",
            file=sys.stderr,
        )
        return 1
    print("bench-gate: OK (no error-tier drift)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: the committed results file at HEAD)",
    )
    parser.add_argument(
        "--fresh",
        default=str(RESULTS),
        help=f"fresh results JSON to gate (default: {RESULTS})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression before failing (default: 0.20)",
    )
    parser.add_argument(
        "--mitigation-baseline",
        default=None,
        help="mitigation baseline JSON (default: committed file at HEAD)",
    )
    parser.add_argument(
        "--mitigation-fresh",
        default=str(MITIGATION_RESULTS),
        help=f"fresh mitigation results to gate (default: {MITIGATION_RESULTS})",
    )
    parser.add_argument(
        "--ledger",
        action="store_true",
        help="gate the newest sweep in the run ledger against its history "
        "instead of comparing bench result files",
    )
    parser.add_argument(
        "--ledger-path",
        default=None,
        help="ledger JSONL path (default: $REPRO_LEDGER or the cache dir)",
    )
    parser.add_argument("--warn-z", type=float, default=3.5)
    parser.add_argument("--error-z", type=float, default=6.0)
    parser.add_argument(
        "--min-history",
        type=int,
        default=4,
        help="distinct historical runs required before judging a group",
    )
    args = parser.parse_args(argv)

    if args.ledger:
        return _gate_ledger(args)

    if args.baseline is None:
        baseline = _committed_baseline()
        baseline_name = "HEAD:benchmarks/results/BENCH_throughput.json"
    else:
        baseline = json.loads(Path(args.baseline).read_text())
        baseline_name = args.baseline
    fresh_path = Path(args.fresh)
    if not fresh_path.exists():
        raise SystemExit(
            f"bench-gate: no fresh results at {fresh_path}; "
            "run benchmarks/bench_throughput.py first"
        )
    fresh = json.loads(fresh_path.read_text())
    records = fresh["records_per_core"]
    base_entry = latest_entry(baseline.get("history", []), PHASE, records)

    print(f"bench-gate: throughput baseline {baseline_name}")
    if base_entry is None:
        print(
            f"bench-gate: no {PHASE} entry at records_per_core={records} "
            "in the baseline history — skipping the throughput gate"
        )
        ok = True
    else:
        ok = _gate(
            f"{PHASE} {METRIC} at records_per_core={records} "
            f"(baseline {base_entry.get('git_sha', '?')})",
            base_entry[METRIC],
            fresh[f"{PHASE}_{METRIC}"],
            args.tolerance,
        )
    ok &= _gate_mitigations(args)
    if not ok:
        return 1
    print("bench-gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
