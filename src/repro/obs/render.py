"""Render ``RunHealth`` for terminals and static HTML reports.

One status-line formatter serves every consumer: the sweep/campaign/
soak CLIs print :func:`format_status_line` over their in-process fold,
and ``repro-timber monitor`` prints the same function over the fold it
rebuilt from the event spool — identical inputs, identical line.  The
richer views (:func:`render_dashboard` for ``--follow``,
:func:`render_html` for ``--html``) are projections of the same model
and add no information of their own.
"""

from __future__ import annotations

import json
import os
import pathlib
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.health import RunHealth


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _fmt_rate(value: float | None, unit: str) -> str:
    if value is None:
        return f"- {unit}/s"
    if value >= 100:
        return f"{value:.0f} {unit}/s"
    return f"{value:.1f} {unit}/s"


def format_status_line(health: "RunHealth") -> str:
    """One-line run status — the shared CLI/monitor progress format."""
    parts = [health.kind, health.status]
    soak = health.soak or {}
    if soak.get("rounds") is not None:
        parts.append(f"round={soak['rounds']}")
    if health.total:
        parts.append(f"{health.done}/{health.total} {health.unit}")
    else:
        parts.append(f"{health.done} {health.unit}")
    parts.append(_fmt_rate(health.throughput, health.unit))
    if health.faults_per_second is not None and health.unit != "faults":
        parts.append(_fmt_rate(health.faults_per_second, "faults"))
    if health.eta_s is not None:
        parts.append(f"eta {_fmt_duration(health.eta_s)}")
    if soak.get("escape_rate") is not None:
        parts.append(f"escape={soak['escape_rate']:.4f}")
    if soak.get("widest_ci_width") is not None:
        stratum = soak.get("widest_stratum") or "?"
        parts.append(f"widest={stratum}:{soak['widest_ci_width']:.4f}")
    if health.cache_hit_rate is not None:
        parts.append(f"cache {100.0 * health.cache_hit_rate:.0f}%")
    if health.utilization is not None:
        parts.append(f"util {100.0 * health.utilization:.0f}%")
    if health.retries:
        parts.append(f"retries {health.retries}")
    if health.crashes:
        parts.append(f"crashes {health.crashes}")
    if health.poisoned:
        parts.append(f"quarantined {health.poisoned}")
    extra_flags = [flag for flag in health.flags
                   if flag != "stalled_heartbeat"]
    if extra_flags:
        parts.append("[" + ",".join(extra_flags) + "]")
    return "  ".join(parts)


def render_dashboard(health: "RunHealth") -> str:
    """Multi-line terminal dashboard for ``monitor`` / ``--follow``."""
    lines = [
        f"run {health.run_id or '?'} ({health.kind}) — {health.status}"
        + (f" [{', '.join(health.flags)}]" if health.flags else ""),
    ]
    progress = (f"{health.done}/{health.total}" if health.total
                else f"{health.done}")
    pct = ""
    if health.total:
        pct = f" ({100.0 * health.done / health.total:.1f}%)"
    lines.append(
        f"  progress    {progress} {health.unit}{pct}   "
        f"{_fmt_rate(health.throughput, health.unit)}"
        + (f" (peak {_fmt_rate(health.throughput_peak, health.unit)})"
           if health.throughput_peak else "")
        + (f"   eta {_fmt_duration(health.eta_s)}"
           if health.eta_s is not None else ""))
    if health.faults_classified:
        lines.append(
            f"  faults      classified {health.faults_classified}   "
            f"{_fmt_rate(health.faults_per_second, 'faults')}")
    cache = ("-" if health.cache_hit_rate is None
             else f"{100.0 * health.cache_hit_rate:.1f}%")
    util = ("-" if health.utilization is None
            else f"{100.0 * health.utilization:.0f}%")
    lines.append(
        f"  pool        workers {health.workers}   utilization {util}"
        f"   cache hits {cache}   batches {health.batches}")
    lines.append(
        f"  resilience  retries {health.retries}   "
        f"crashes {health.crashes}   quarantined {health.poisoned}   "
        f"fallbacks {health.fallbacks}   "
        f"checkpoints {health.checkpoints}")
    if health.phase:
        lines.append(f"  phase       {health.phase}")
    soak = health.soak or {}
    if soak.get("rounds") is not None:
        ci = ""
        if soak.get("ci_low") is not None:
            ci = (f"   CI [{soak['ci_low']:.4f}, "
                  f"{soak['ci_high']:.4f}]")
        lines.append(
            f"  soak        round {soak['rounds']}   escape "
            f"{soak.get('escape_rate', 0.0):.4f}{ci}")
        strata = soak.get("per_stratum") or []
        if strata:
            cells = "   ".join(
                f"{entry['stratum']} w={entry['width']:.4f}"
                f" n={entry.get('samples', '?')}"
                for entry in strata)
            lines.append(f"  strata      {cells}")
    age = (_fmt_duration(health.last_event_age_s)
           if health.last_event_age_s is not None else "-")
    lines.append(
        f"  liveness    last event {health.last_event_type or '-'} "
        f"{age} ago   heartbeat "
        f"{health.heartbeat_s if health.heartbeat_s else '-'}s   "
        f"seq {health.last_seq}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Static HTML report
# ---------------------------------------------------------------------------

_HTML_STYLE = """
body { font-family: ui-monospace, monospace; margin: 2em; }
h1 { font-size: 1.2em; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 0.3em 0.8em;
         text-align: left; font-size: 0.9em; }
th { background: #f0f0f0; }
.status-running { color: #060; } .status-done { color: #060; }
.status-stale { color: #a00; } .status-error { color: #a00; }
.flags { color: #a00; }
"""


def render_html(health: "RunHealth",
                events: typing.Sequence[dict] | None = None, *,
                tail: int = 30) -> str:
    """A static, dependency-free HTML report for one run."""
    # Imported here: ``html`` loads a 2,000-entry entity table that the
    # status line, which every run prints, never needs.
    import html

    def esc(value: typing.Any) -> str:
        return html.escape(str(value))

    rows = []
    for label, value in [
            ("run id", health.run_id),
            ("kind", health.kind),
            ("status", health.status),
            ("flags", ", ".join(health.flags) or "none"),
            ("progress",
             f"{health.done}/{health.total or '?'} {health.unit}"),
            ("throughput",
             _fmt_rate(health.throughput, health.unit)),
            ("faults classified", health.faults_classified),
            ("fault throughput",
             _fmt_rate(health.faults_per_second, "faults")),
            ("eta", _fmt_duration(health.eta_s)),
            ("workers", health.workers),
            ("utilization",
             "-" if health.utilization is None
             else f"{100.0 * health.utilization:.0f}%"),
            ("cache hit rate",
             "-" if health.cache_hit_rate is None
             else f"{100.0 * health.cache_hit_rate:.1f}%"),
            ("retries", health.retries),
            ("crashes", health.crashes),
            ("quarantined", health.poisoned),
            ("checkpoints", health.checkpoints),
            ("last event",
             f"{health.last_event_type or '-'} "
             f"({_fmt_duration(health.last_event_age_s)} ago)"),
    ]:
        rows.append(f"<tr><th>{esc(label)}</th>"
                    f"<td>{esc(value)}</td></tr>")
    soak_html = ""
    soak = health.soak or {}
    if soak.get("rounds") is not None:
        stratum_rows = "".join(
            f"<tr><td>{esc(entry['stratum'])}</td>"
            f"<td>{esc(entry.get('samples', '?'))}</td>"
            f"<td>{entry['width']:.4f}</td></tr>"
            for entry in (soak.get("per_stratum") or []))
        soak_html = (
            f"<h2>soak</h2><table><tr><th>round</th>"
            f"<td>{esc(soak['rounds'])}</td></tr>"
            f"<tr><th>escape rate</th>"
            f"<td>{esc(soak.get('escape_rate'))}</td></tr></table>"
            f"<table><tr><th>stratum</th><th>samples</th>"
            f"<th>CI width</th></tr>{stratum_rows}</table>")
    events_html = ""
    if events:
        recent = list(events)[-tail:]
        event_rows = "".join(
            f"<tr><td>{esc(event.get('seq'))}</td>"
            f"<td>{esc(event.get('type'))}</td>"
            f"<td>{esc(json.dumps({k: v for k, v in event.items() if k not in ('seq', 'type', 'wall', 'mono_ns')}, sort_keys=True, default=str))}</td></tr>"
            for event in recent)
        events_html = (
            f"<h2>recent events</h2><table><tr><th>seq</th>"
            f"<th>type</th><th>fields</th></tr>{event_rows}</table>")
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>repro-timber run {esc(health.run_id or '?')}</title>"
        f"<style>{_HTML_STYLE}</style></head><body>"
        f"<h1>repro-timber run {esc(health.run_id or '?')} "
        f"<span class=\"status-{esc(health.status)}\">"
        f"{esc(health.status)}</span></h1>"
        f"<table>{''.join(rows)}</table>"
        f"{soak_html}{events_html}</body></html>\n")


def write_html(path: str | os.PathLike, health: "RunHealth",
               events: typing.Sequence[dict] | None = None) -> None:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_html(health, events), encoding="utf-8")
