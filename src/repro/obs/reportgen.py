"""Self-contained HTML dashboard for sweep-fleet observability.

``python -m repro report`` renders one single-file dashboard — inline
CSS, inline SVG, and the full data payload embedded as JSON in a
``<script type="application/json">`` block; **no external assets, no
network fetches** — so the file can be archived as a CI artifact and
opened years later, anywhere.

Sections:

* a KPI row (points, cache hit-rate, simulated/retried/failed counts,
  workers seen) from the ledger;
* a per-worker sweep timeline for the newest run (Gantt lanes built
  from each entry's completion timestamp and wall time);
* throughput trajectories from the committed ``BENCH_*.json`` history
  arrays (serial headline + per-mitigation batched rates);
* the cross-run drift findings table from :mod:`repro.obs.regress`,
  severity rendered as icon + label (never color alone), plus the
  per-group comparison table.

The embedded payload is the machine-readable contract: CI's
``report-smoke`` job extracts it with :func:`extract_embedded_json`
and validates it against the ledger schema via
:func:`validate_report`, so the dashboard can never silently drift
from the data it claims to show.
"""

from __future__ import annotations

import html as _html
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    STATUSES,
    LedgerEntry,
    split_latest_run,
)

EMBED_ID = "repro-data"

# Validated default palette (light / dark), reference instance of the
# house dataviz method: categorical slots in fixed order, reserved
# status colors, text tokens. Swapping brands means swapping values
# here only.
_CATEGORICAL_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4")
_CATEGORICAL_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500", "#d55181")

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
  --series-5: #e87ba4;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:not([data-theme="light"]) {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
    --series-5: #d55181;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0;
  padding: 24px;
  background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 8px; color: var(--text-primary); }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px;
  margin: 0 0 16px;
}
.kpis { display: flex; flex-wrap: wrap; gap: 16px; }
.tile { min-width: 130px; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .note { color: var(--text-muted); font-size: 12px; }
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left;
  padding: 6px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 600; font-size: 12px; }
tr:hover td { background: var(--page); }
.sev { font-weight: 600; white-space: nowrap; }
.sev-error { color: var(--status-critical); }
.sev-warn { color: var(--status-serious); }
.sev-advice { color: var(--text-muted); }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 6px 0 2px; }
.legend .key { display: inline-flex; align-items: center; gap: 6px;
  color: var(--text-secondary); font-size: 12px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
.axis-note { color: var(--text-muted); font-size: 12px; margin-top: 4px; }
svg text { fill: var(--text-muted); font-size: 11px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .lane-label { fill: var(--text-secondary); }
svg .grid-line { stroke: var(--grid); stroke-width: 1; }
svg .baseline { stroke: var(--baseline); stroke-width: 1; }
.bar:hover, .dot:hover { opacity: 0.8; }
.empty { color: var(--text-muted); }
"""


def _fmt(value: float) -> str:
    """Compact human number (1,284 / 12.9K / 4.2M)."""
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 10_000:
        return f"{value / 1_000:.1f}K"
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}"


def _esc(text: Any) -> str:
    return _html.escape(str(text), quote=True)


# ----------------------------------------------------------------------
# Payload (the machine-readable half of the dashboard)
# ----------------------------------------------------------------------
def build_payload(
    entries: Sequence[LedgerEntry],
    drift: Optional[Dict[str, Any]] = None,
    bench: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The embedded-JSON document: ledger rows + drift + bench data."""
    history, fresh = split_latest_run(list(entries))
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "entries": [entry.to_dict() for entry in entries],
        "latest_run_id": fresh[0].run_id if fresh else "",
        "latest_run_points": len(fresh),
        "history_points": len(history),
        "drift": drift if drift is not None else {"findings": [], "groups": []},
        "bench": bench if bench is not None else {},
    }


def extract_embedded_json(html: str) -> Dict[str, Any]:
    """The payload back out of a rendered dashboard."""
    pattern = (
        r'<script type="application/json" id="%s">(.*?)</script>' % EMBED_ID
    )
    match = re.search(pattern, html, re.DOTALL)
    if match is None:
        raise ValueError(f"no embedded payload (script#{EMBED_ID}) in report")
    return json.loads(match.group(1))


def validate_report(html: str) -> Dict[str, Any]:
    """Validate a dashboard's embedded payload against the ledger schema.

    Returns the payload on success; raises :class:`ValueError` naming
    the first violation. This is what CI's ``report-smoke`` job runs
    against the generated artifact.
    """
    payload = extract_embedded_json(html)
    if payload.get("schema_version") != LEDGER_SCHEMA_VERSION:
        raise ValueError(
            f"payload schema_version {payload.get('schema_version')!r} != "
            f"{LEDGER_SCHEMA_VERSION}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValueError("payload entries must be a list")
    required = {
        "run_id", "point", "workload", "mitigation", "scale", "seed",
        "cache_key", "status", "cache_hit", "ts", "wall_seconds",
        "worker", "summary", "schema_version",
    }
    for index, row in enumerate(entries):
        if not isinstance(row, dict):
            raise ValueError(f"entry {index} is not an object")
        missing = required - set(row)
        if missing:
            raise ValueError(f"entry {index} missing keys {sorted(missing)}")
        if row["status"] not in STATUSES:
            raise ValueError(
                f"entry {index} has unknown status {row['status']!r}"
            )
        if row["schema_version"] != LEDGER_SCHEMA_VERSION:
            raise ValueError(f"entry {index} has a foreign schema_version")
    for key in ("drift", "bench"):
        if not isinstance(payload.get(key), dict):
            raise ValueError(f"payload {key} must be an object")
    return payload


def validate_report_file(path) -> Dict[str, Any]:
    """:func:`validate_report` over a file on disk."""
    return validate_report(Path(path).read_text())


# ----------------------------------------------------------------------
# SVG builders (server-side; native <title> tooltips carry the hover)
# ----------------------------------------------------------------------
def _svg_timeline(fresh: Sequence[LedgerEntry]) -> str:
    """Per-worker Gantt lanes for the newest run's entries."""
    timed = [e for e in fresh if e.ts > 0]
    if not timed:
        return '<p class="empty">no timed entries in the newest run</p>'
    t0 = min(e.ts - e.wall_seconds for e in timed)
    t1 = max(e.ts for e in timed)
    span = max(t1 - t0, 1e-6)
    workers = sorted({e.worker for e in timed})
    lane_h, left, width = 28, 90, 860
    height = len(workers) * lane_h + 30
    parts = [
        f'<svg viewBox="0 0 {left + width + 10} {height}" '
        f'role="img" aria-label="per-worker sweep timeline" '
        f'style="width:100%;height:auto">'
    ]
    for tick in range(5):
        x = left + width * tick / 4
        parts.append(
            f'<line class="grid-line" x1="{x:.0f}" y1="0" '
            f'x2="{x:.0f}" y2="{height - 22}"/>'
        )
        parts.append(
            f'<text x="{x:.0f}" y="{height - 8}" text-anchor="middle">'
            f"{span * tick / 4:.1f}s</text>"
        )
    for lane, worker in enumerate(workers):
        y = lane * lane_h
        parts.append(
            f'<text class="lane-label" x="0" y="{y + 18}">worker {worker}</text>'
        )
        for entry in timed:
            if entry.worker != worker:
                continue
            x0 = left + width * max(entry.ts - entry.wall_seconds - t0, 0) / span
            bar_w = max(width * entry.wall_seconds / span, 2.0)
            if entry.status == "failed":
                fill = "var(--status-critical)"
            elif entry.status == "retried":
                fill = "var(--status-warning)"
            elif entry.cache_hit:
                fill = "var(--baseline)"
            else:
                fill = "var(--series-1)"
            title = (
                f"{entry.point} seed {entry.seed} — {entry.status}, "
                f"{entry.wall_seconds:.2f}s"
            )
            parts.append(
                f'<rect class="bar" x="{x0:.1f}" y="{y + 5}" '
                f'width="{bar_w:.1f}" height="{lane_h - 10}" rx="4" '
                f'fill="{fill}" stroke="var(--surface-1)" stroke-width="2">'
                f"<title>{_esc(title)}</title></rect>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _svg_lines(
    series: Sequence[Tuple[str, List[Optional[float]]]],
    x_labels: Sequence[str],
    y_label: str,
) -> str:
    """Multi-series line chart (2px lines, ringed >=8px markers)."""
    points = [v for _, values in series for v in values if v is not None]
    if not points or len(x_labels) < 1:
        return '<p class="empty">no history yet</p>'
    vmax = max(points) * 1.08
    vmin = 0.0
    left, top, width, height = 60, 10, 820, 200
    n = max(len(x_labels) - 1, 1)

    def sx(i: int) -> float:
        return left + width * (i / n if n else 0.5)

    def sy(v: float) -> float:
        return top + height - height * (v - vmin) / (vmax - vmin or 1.0)

    parts = [
        f'<svg viewBox="0 0 {left + width + 20} {top + height + 40}" '
        f'role="img" aria-label="{_esc(y_label)}" style="width:100%;height:auto">'
    ]
    for tick in range(4):
        v = vmin + (vmax - vmin) * tick / 3
        y = sy(v)
        parts.append(
            f'<line class="grid-line" x1="{left}" y1="{y:.1f}" '
            f'x2="{left + width}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end">'
            f"{_fmt(v)}</text>"
        )
    parts.append(
        f'<line class="baseline" x1="{left}" y1="{sy(vmin):.1f}" '
        f'x2="{left + width}" y2="{sy(vmin):.1f}"/>'
    )
    for i, label in enumerate(x_labels):
        parts.append(
            f'<text x="{sx(i):.1f}" y="{top + height + 18}" '
            f'text-anchor="middle">{_esc(label)}</text>'
        )
    for slot, (name, values) in enumerate(series):
        color = f"var(--series-{slot % 5 + 1})"
        path = []
        for i, value in enumerate(values):
            if value is None:
                continue
            cmd = "M" if not path else "L"
            path.append(f"{cmd}{sx(i):.1f} {sy(value):.1f}")
        if path:
            parts.append(
                f'<path d="{" ".join(path)}" fill="none" stroke="{color}" '
                f'stroke-width="2" stroke-linejoin="round" '
                f'stroke-linecap="round"/>'
            )
        for i, value in enumerate(values):
            if value is None:
                continue
            title = f"{name} @ {x_labels[i]}: {_fmt(value)}"
            parts.append(
                f'<circle class="dot" cx="{sx(i):.1f}" cy="{sy(value):.1f}" '
                f'r="4" fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{_esc(title)}</title></circle>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _legend(names: Sequence[str]) -> str:
    if len(names) < 2:
        return ""
    keys = []
    for slot, name in enumerate(names):
        color = f"var(--series-{slot % 5 + 1})"
        keys.append(
            f'<span class="key"><span class="swatch" '
            f'style="background:{color}"></span>{_esc(name)}</span>'
        )
    return f'<div class="legend">{"".join(keys)}</div>'


# ----------------------------------------------------------------------
# HTML sections
# ----------------------------------------------------------------------
def _tile(label: str, value: str, note: str = "") -> str:
    note_html = f'<div class="note">{_esc(note)}</div>' if note else ""
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div>{note_html}</div>'
    )


def _kpi_row(entries: Sequence[LedgerEntry]) -> str:
    total = len(entries)
    hits = sum(1 for e in entries if e.cache_hit)
    simulated = sum(
        1 for e in entries if not e.cache_hit and e.status != "copied" and e.summary
    )
    retried = sum(1 for e in entries if e.status == "retried")
    failed = sum(1 for e in entries if e.status == "failed")
    stragglers = sum(1 for e in entries if e.straggler)
    workers = {e.worker for e in entries if e.worker}
    runs = {e.run_id for e in entries if e.run_id}
    hit_rate = f"{100.0 * hits / total:.0f}%" if total else "n/a"
    tiles = [
        _tile("Runs", _fmt(len(runs))),
        _tile("Points", _fmt(total)),
        _tile("Cache hit-rate", hit_rate, f"{hits} of {total}"),
        _tile("Simulated", _fmt(simulated)),
        _tile("Retried", _fmt(retried), "succeeded on 2nd attempt"),
        _tile("Failed", _fmt(failed)),
        _tile("Stragglers", _fmt(stragglers)),
        _tile("Workers", _fmt(len(workers))),
    ]
    return f'<div class="card kpis">{"".join(tiles)}</div>'


_SEVERITY_GLYPH = {
    "error": ("✖", "sev-error"),    # ✖
    "warn": ("⚠", "sev-warn"),      # ⚠
    "advice": ("○", "sev-advice"),  # ○
}


def _findings_table(drift: Dict[str, Any]) -> str:
    findings = drift.get("findings", [])
    if not findings:
        return (
            '<p class="empty">no drift findings — the newest sweep sits '
            "inside its ledger history</p>"
        )
    rows = []
    for finding in findings:
        severity = finding.get("severity", "error")
        glyph, css = _SEVERITY_GLYPH.get(severity, ("✖", "sev-error"))
        rows.append(
            f'<tr><td class="sev {css}">{glyph} {_esc(severity)}</td>'
            f'<td>{_esc(finding.get("rule", ""))}</td>'
            f'<td>{_esc(finding.get("message", ""))}</td></tr>'
        )
    return (
        "<table><thead><tr><th>severity</th><th>rule</th><th>finding</th>"
        f'</tr></thead><tbody>{"".join(rows)}</tbody></table>'
    )


def _groups_table(drift: Dict[str, Any]) -> str:
    groups = drift.get("groups", [])
    if not groups:
        return ""
    rows = []
    for group in groups:
        metrics = group.get("metrics", {})
        for name, row in sorted(metrics.items()):
            z = row.get("z")
            med = row.get("history_median")
            rows.append(
                f'<tr><td>{_esc(group.get("group", ""))}</td>'
                f"<td>{_esc(name)}</td>"
                f'<td>{_fmt(row.get("value", 0.0))}</td>'
                f'<td>{_fmt(med) if med is not None else "—"}</td>'
                f'<td>{f"{z:+.1f}" if z is not None else "—"}</td></tr>'
            )
    return (
        "<details><summary>per-group comparison</summary>"
        "<table><thead><tr><th>group</th><th>metric</th><th>fresh</th>"
        "<th>history median</th><th>robust z</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table></details>'
    )


def _bench_sections(bench: Dict[str, Any]) -> str:
    """Throughput trajectory charts from BENCH_*.json history arrays."""
    sections = []
    throughput = bench.get("throughput") or {}
    history = throughput.get("history") or []
    if history:
        labels = [
            f'{row.get("git_sha", "?")}' for row in history
        ]
        values = [row.get("serial_requests_per_second") for row in history]
        sections.append(
            '<div class="card"><h2>Serial throughput trajectory</h2>'
            + _svg_lines([("serial req/s", values)], labels, "requests/second")
            + '<p class="axis-note">requests/second by commit, from '
            "BENCH_throughput.json history</p></div>"
        )
    mitigation = bench.get("mitigation") or {}
    mhistory = mitigation.get("history") or []
    if mhistory:
        names = sorted(
            {
                key[: -len("_batched_activations_per_second")]
                for row in mhistory
                for key in row
                if key.endswith("_batched_activations_per_second")
            }
        )
        labels = [f'{row.get("git_sha", "?")}' for row in mhistory]
        series = [
            (
                name,
                [
                    row.get(f"{name}_batched_activations_per_second")
                    for row in mhistory
                ],
            )
            for name in names
        ]
        sections.append(
            '<div class="card"><h2>Mitigation activation rates</h2>'
            + _legend(names)
            + _svg_lines(series, labels, "activations/second")
            + '<p class="axis-note">batched activations/second by commit, '
            "from BENCH_mitigation.json history</p></div>"
        )
    return "".join(sections)


def render_report(
    entries: Sequence[LedgerEntry],
    drift: Optional[Dict[str, Any]] = None,
    bench: Optional[Dict[str, Any]] = None,
    title: str = "repro sweep-fleet dashboard",
) -> str:
    """The full single-file dashboard as an HTML string."""
    drift = drift if drift is not None else {"findings": [], "groups": []}
    bench = bench if bench is not None else {}
    payload = build_payload(entries, drift=drift, bench=bench)
    _, fresh = split_latest_run(list(entries))
    # "</" must not appear verbatim inside an inline script block.
    payload_json = json.dumps(payload, sort_keys=True).replace("</", "<\\/")

    sections = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{len(entries)} ledger entries; newest run '
        f"{_esc(payload['latest_run_id'] or 'n/a')} "
        f"({payload['latest_run_points']} points)</p>",
        _kpi_row(entries),
        '<div class="card"><h2>Newest run: per-worker timeline</h2>'
        + _svg_timeline(fresh)
        + '<p class="axis-note">one lane per worker pid; bar length is '
        "wall time. Blue = simulated, gray = cache hit, warning = "
        "retried, critical = failed.</p></div>",
        _bench_sections(bench),
        '<div class="card"><h2>Cross-run drift findings</h2>'
        + _findings_table(drift)
        + _groups_table(drift)
        + "</div>",
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head><body>\n"
        + "\n".join(sections)
        + f'\n<script type="application/json" id="{EMBED_ID}">'
        f"{payload_json}</script>\n"
        "</body></html>\n"
    )


def write_report(path, html: str) -> Path:
    """Write the dashboard to disk, creating parent directories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html)
    return out


def load_bench_results(results_dir) -> Dict[str, Any]:
    """The committed BENCH_*.json documents, keyed for the dashboard."""
    results_dir = Path(results_dir)
    out: Dict[str, Any] = {}
    for key, name in (
        ("throughput", "BENCH_throughput.json"),
        ("mitigation", "BENCH_mitigation.json"),
    ):
        path = results_dir / name
        try:
            out[key] = json.loads(path.read_text())
        except (FileNotFoundError, ValueError, OSError):
            continue
    return out
