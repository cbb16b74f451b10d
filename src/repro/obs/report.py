"""Campaign health reports from observability artifacts.

``repro report`` turns the two artifacts every campaign can already produce
— the ``--metrics-json`` registry snapshot and the ``--trace`` JSONL event
stream — into one joined health report: per-layer SDC / mismatch / ΔLoss
statistics side by side with the numeric-health streams (saturation,
flush-to-zero, NaN-remap rates, quantization error, dynamic-range
coverage), plus throughput, resume-cache, parallel-execution and
quarantine summaries.

The per-layer rows are the campaign's own fold
(:func:`repro.core.campaign.fold_layer`) over the trace's
``campaign.injection`` events, one row per ``(layer, kind)`` — ``repro
campaign`` traces a value and a metadata campaign into one file — taken
in ``seq`` order (a stable sort, so events from traces that predate
``seq`` keep their arrival order): the same numbers
:class:`~repro.core.campaign.CampaignResult` reported, bit for bit,
whichever executor wrote the trace.

The report is a plain dict (:func:`build_report`) with a stable
``repro.report/v1`` schema (checked by :func:`validate_report`, which
``repro report`` runs on every report it renders), rendered as markdown
(:func:`render_markdown`) or a self-contained HTML page
(:func:`render_html`).

Because the parallel executor streams worker metric deltas and trace events
back to the supervisor, the same artifacts — and therefore the same report —
come out of ``--workers N`` and ``--workers 0`` runs.
"""

from __future__ import annotations

import html as _html
import json
import os
import time
from typing import Any

from .numerics import summarize_collected

__all__ = [
    "REPORT_SCHEMA",
    "load_metrics",
    "load_trace_events",
    "build_report",
    "build_report_from_ledger",
    "validate_report",
    "render_markdown",
    "render_html",
    "render_report",
]

REPORT_SCHEMA = "repro.report/v1"


# ----------------------------------------------------------------------
# artifact loading
# ----------------------------------------------------------------------
def load_metrics(path: str) -> dict:
    """Load a ``--metrics-json`` artifact; returns its ``metrics`` mapping."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload.get("metrics", payload)


def load_trace_events(path: str) -> list[dict]:
    """Load a ``--trace`` JSONL artifact (torn trailing lines tolerated)."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of an interrupted run
            if isinstance(event, dict):
                events.append(event)
    return events


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def _metric_value(metrics: dict, name: str, default: float = 0.0,
                  **labels: str) -> float:
    for entry in metrics.get(name, ()):  # first matching label set
        entry_labels = entry.get("labels", {})
        if all(entry_labels.get(k) == v for k, v in labels.items()):
            return float(entry.get("value", default))
    return default


def build_report(metrics: dict | None = None,
                 events: list[dict] | None = None,
                 metrics_path: str | None = None,
                 trace_path: str | None = None) -> dict:
    """Assemble the ``repro.report/v1`` dict from the available artifacts.

    Either artifact may be missing: metrics alone still yield the numeric
    health, throughput, cache and execution sections; a trace alone yields
    the per-layer injection statistics and quarantine events.
    """
    from ..core.campaign import fold_layer, normalized_record
    from ..core.resume import COUNTS

    metrics = metrics if metrics is not None else {}
    events = events if events is not None else []
    numerics = summarize_collected(metrics)
    by_row: dict[tuple[str, str], list[dict]] = {}
    for event in events:
        if event.get("name") == "campaign.injection":
            key = (str(event.get("layer", "?")),
                   str(event.get("kind", "value")))
            by_row.setdefault(key, []).append(event)
    injected = {layer for layer, _ in by_row}
    for name in numerics.keys() - injected:  # numeric health alone
        by_row[(name, "value")] = []

    layers = []
    for name, kind in sorted(by_row):
        # a stable sort: events of traces that predate seq keep arrival order
        ordered = sorted(by_row[(name, kind)], key=lambda e: e.get("seq", 0))
        inj = fold_layer(name, {i: normalized_record(event)
                                for i, event in enumerate(ordered)})
        layers.append({
            "layer": name,
            "kind": kind,
            "injections": inj.injections,
            "mean_delta_loss": inj.mean_delta_loss,
            "max_delta_loss": inj.max_delta_loss,
            "mismatch_rate": inj.mismatch_rate,
            "sdc_rate": inj.sdc_rate,
            "numerics": numerics.get(name, {}),
        })

    injections_total = sum(
        float(e.get("value", 0.0)) for e in
        metrics.get("campaign.injections_total", ())) or float(
        sum(row["injections"] for row in layers))
    campaign = {
        "injections": int(injections_total),
        "injections_per_sec": _metric_value(
            metrics, "campaign.injections_per_sec"),
        "wall_seconds": _metric_value(metrics, "campaign.wall_seconds"),
        "flips_total": sum(float(e.get("value", 0.0)) for e in
                           metrics.get("injection.flips_total", ())),
    }

    # the cache's counters sum every campaign the metrics hold; the
    # ``resume.*`` gauges are the last campaign's alone, so they stay out
    cache = {name: _metric_value(metrics, f"resume.{name}")
             for name in COUNTS if f"resume.{name}" in metrics}

    execution = {
        "workers": _metric_value(metrics, "exec.workers"),
        "shards": _metric_value(metrics, "exec.shards_total"),
        "retries": _metric_value(metrics, "exec.shard_retries_total"),
        "timeouts": _metric_value(metrics, "exec.shard_timeouts_total"),
        "worker_deaths": _metric_value(metrics, "exec.worker_deaths_total"),
        "quarantined": _metric_value(metrics, "exec.shards_quarantined_total"),
        "telemetry_merges": _metric_value(
            metrics, "exec.telemetry_merges_total"),
    }
    quarantined = [e for e in events if e.get("name") == "exec.quarantine"]
    workers_seen = sorted({int(e["worker_id"]) for e in events
                           if "worker_id" in e})

    return {
        "schema": REPORT_SCHEMA,
        "generated_at": time.time(),
        "sources": {"metrics": metrics_path, "trace": trace_path},
        "campaign": campaign,
        "layers": layers,
        "cache": cache,
        "execution": execution,
        "quarantined": quarantined,
        "workers_seen": workers_seen,
    }


def build_report_from_ledger(ledger, run_id: int) -> dict:
    """Regenerate a campaign report from a ledger row (``--ledger RUN_ID``).

    The per-layer rows and the campaign totals are the run's own ledger
    rows (``run_layers`` and ``runs``), so the report is the run's, even
    when its linked artifacts also hold other campaigns: ``repro campaign``
    writes the value and the metadata campaign into one trace and one
    metrics file.  The linked ``--metrics-json`` / ``--trace`` artifacts,
    when they still exist on disk, add the numeric-health, cache,
    execution and quarantine sections.  Raises ``KeyError`` when the run id
    does not exist.
    """
    run = ledger.get_run(run_id)
    if run is None:
        raise KeyError(f"ledger has no run {run_id}")

    metrics_path = run.get("metrics_path")
    trace_path = run.get("trace_path")
    metrics = None
    events = None
    if metrics_path and os.path.exists(metrics_path):
        metrics = load_metrics(metrics_path)
    else:
        metrics_path = None
    if trace_path and os.path.exists(trace_path):
        events = load_trace_events(trace_path)
    else:
        trace_path = None

    report = build_report(metrics=metrics, events=events,
                          metrics_path=metrics_path, trace_path=trace_path)
    report["sources"]["ledger"] = {
        "path": getattr(ledger, "path", None),
        "run_id": int(run["run_id"]),
        "fingerprint_sha": run.get("fingerprint_sha"),
        "format": run.get("format"),
        "fault_model": run.get("fault_model"),
    }
    numerics = {row["layer"]: row["numerics"] for row in report["layers"]}
    report["layers"] = [{
        "layer": row["layer"],
        "kind": run["kind"],
        "injections": row["injections"],
        "mean_delta_loss": row["mean_delta_loss"],
        "max_delta_loss": row["max_delta_loss"],
        "mismatch_rate": row["mismatch_rate"],
        "sdc_rate": row["sdc_rate"],
        "sdc_ci": [row["sdc_lo"], row["sdc_hi"]],
        "numerics": numerics.get(row["layer"], {}),
    } for row in run["layers_detail"]]
    report["campaign"] = {"injections": run["injections"],
                          "injections_per_sec": run["injections_per_sec"],
                          "wall_seconds": run["wall_seconds"]}
    return report


def validate_report(report: Any) -> bool:
    """Schema-check a report dict (CI gate); raises ``ValueError`` on drift."""
    if not isinstance(report, dict):
        raise ValueError("report must be a dict")
    if report.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unknown report schema {report.get('schema')!r}; "
                         f"expected {REPORT_SCHEMA!r}")
    for key, typ in (("generated_at", (int, float)), ("sources", dict),
                     ("campaign", dict), ("layers", list), ("cache", dict),
                     ("execution", dict), ("quarantined", list),
                     ("workers_seen", list)):
        if key not in report:
            raise ValueError(f"report missing key {key!r}")
        if not isinstance(report[key], typ):
            raise ValueError(f"report[{key!r}] has type "
                             f"{type(report[key]).__name__}")
    for field in ("injections", "injections_per_sec", "wall_seconds"):
        if field not in report["campaign"]:
            raise ValueError(f"report['campaign'] missing {field!r}")
    for row in report["layers"]:
        for field in ("layer", "injections", "mean_delta_loss",
                      "mismatch_rate", "sdc_rate", "numerics"):
            if field not in row:
                raise ValueError(f"layer row missing {field!r}: {row}")
    return True


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(value: float, spec: str = ".4g") -> str:
    try:
        return format(float(value), spec)
    except (TypeError, ValueError):
        return str(value)


def _layer_rows(report: dict) -> tuple[list[str], list[list[str]]]:
    header = ["layer", "kind", "inj", "ΔLoss", "mismatch", "SDC",
              "sat rate", "flush rate", "NaN", "ulp err", "range dB"]
    rows = []
    for row in report["layers"]:
        num = row.get("numerics", {})
        # prefer the neuron stream (activations drive the SDC behaviour)
        stream = num.get("neuron") or num.get("weight") or {}
        rows.append([
            str(row["layer"]),
            str(row["kind"]),
            str(row["injections"]),
            _fmt(row["mean_delta_loss"]),
            _fmt(row["mismatch_rate"]),
            _fmt(row["sdc_rate"]),
            _fmt(stream.get("saturation_rate", 0.0), ".3e"),
            _fmt(stream.get("flush_rate", 0.0), ".3e"),
            _fmt(stream.get("nan_remapped", 0.0), ".0f"),
            _fmt((stream.get("ulp_error") or {}).get("mean", 0.0)),
            _fmt(stream.get("range_used_db", 0.0), ".1f"),
        ])
    return header, rows


def render_markdown(report: dict) -> str:
    """Render the report as GitHub-flavoured markdown."""
    from ..core.resume import COUNTS, hit_rate

    c = report["campaign"]
    e = report["execution"]
    lines = [
        "# Campaign health report",
        "",
        f"- generated at: {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(report['generated_at']))}",
        f"- metrics: `{report['sources'].get('metrics') or '—'}`  ·  "
        f"trace: `{report['sources'].get('trace') or '—'}`",
        "",
        "## Campaign",
        "",
        f"- injections: **{c['injections']}** "
        f"({_fmt(c['injections_per_sec'], '.1f')}/s, "
        f"wall {_fmt(c['wall_seconds'], '.2f')}s)",
    ]
    if "flips_total" in c:  # trace-built reports; the ledger stores none
        lines.append(f"- bit flips applied: {_fmt(c['flips_total'], '.0f')}")
    cache = report["cache"]
    if cache:
        lines += ["", "## Resume cache", ""]
        for line, (hit, miss) in (("hit rate", ("hits", "misses")),
                                  ("replay rate", ("replayed", "recomputed"))):
            hits, misses = cache.get(hit, 0.0), cache.get(miss, 0.0)
            lines.append(f"- {line}: {hit_rate(hits, misses):.1%} "
                         f"({hits:.0f} {hit} / {misses:.0f} {miss})")
        lines += [f"- {key}: {cache[key]:.0f}" for key in COUNTS
                  if key in cache and key not in (
                      "hits", "misses", "replayed", "recomputed")]
    if e.get("shards") or e.get("workers") or report["workers_seen"]:
        lines += ["", "## Parallel execution", "",
                  f"- shards: {e['shards']:.0f} (retries {e['retries']:.0f}, "
                  f"timeouts {e['timeouts']:.0f}, worker deaths "
                  f"{e['worker_deaths']:.0f})",
                  f"- quarantined shards: {e['quarantined']:.0f}",
                  f"- worker telemetry payloads merged: "
                  f"{e['telemetry_merges']:.0f}"]
        if report["workers_seen"]:
            lines.append(f"- workers seen in trace: "
                         f"{', '.join(map(str, report['workers_seen']))}")
    if report["quarantined"]:
        lines += ["", "## Quarantined shards", ""]
        for q in report["quarantined"]:
            lines.append(f"- shard {q.get('shard_id')} "
                         f"({q.get('layer')}): {q.get('reason')} "
                         f"[{len(q.get('seqs', []))} injection(s) abandoned]")
    if report["layers"]:
        header, rows = _layer_rows(report)
        lines += ["", "## Per-layer health (SDC × numeric health)", "",
                  "| " + " | ".join(header) + " |",
                  "|" + "|".join("---" for _ in header) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
    lines.append("")
    return "\n".join(lines)


def render_html(report: dict) -> str:
    """Render the report as one self-contained HTML page (no assets)."""
    c = report["campaign"]
    header, rows = _layer_rows(report)
    th = "".join(f"<th>{_html.escape(h)}</th>" for h in header)
    trs = "".join(
        "<tr>" + "".join(f"<td>{_html.escape(cell)}</td>" for cell in row)
        + "</tr>" for row in rows)
    quarantine = "".join(
        f"<li>shard {_html.escape(str(q.get('shard_id')))} "
        f"({_html.escape(str(q.get('layer')))}): "
        f"{_html.escape(str(q.get('reason')))}</li>"
        for q in report["quarantined"])
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>Campaign health report</title>
<style>
body {{ font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a1a; }}
table {{ border-collapse: collapse; font-size: 0.9rem; }}
th, td {{ border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: right; }}
th {{ background: #f0f0f0; }} td:first-child {{ text-align: left; }}
</style></head><body>
<h1>Campaign health report</h1>
<p>injections: <b>{c['injections']}</b>
 ({_fmt(c['injections_per_sec'], '.1f')}/s, wall
 {_fmt(c['wall_seconds'], '.2f')}s)</p>
<p>execution: shards {report['execution']['shards']:.0f},
 retries {report['execution']['retries']:.0f},
 quarantined {report['execution']['quarantined']:.0f},
 telemetry merges {report['execution']['telemetry_merges']:.0f}</p>
{('<h2>Quarantined shards</h2><ul>' + quarantine + '</ul>') if quarantine else ''}
<h2>Per-layer health (SDC &#215; numeric health)</h2>
<table><thead><tr>{th}</tr></thead><tbody>{trs}</tbody></table>
</body></html>
"""


def render_report(report: dict, fmt: str = "markdown") -> str:
    """Render ``report`` as ``markdown``, ``html`` or ``json`` text."""
    if fmt == "markdown":
        return render_markdown(report)
    if fmt == "html":
        return render_html(report)
    if fmt == "json":
        return json.dumps(report, indent=2, default=str) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
