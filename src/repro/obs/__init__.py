"""``repro.obs`` — the observability subsystem.

The measurement substrate for the platform's performance claims:

* :mod:`repro.obs.telemetry` — process-wide, thread-safe metrics registry
  (Counter / Gauge / Histogram, label sets, scoped per-run views);
* :mod:`repro.obs.tracing` — span-based tracer with a JSONL event sink
  (one event per injection) and an allocation-free null tracer when off;
* :mod:`repro.obs.profiler` — per-layer profiler booking each instrumented
  layer's compute / quantize / inject / detect phases as registry counters
  (seconds, elements → ns/element, calls) from wrappers around the calls
  behind them, plus activation-memory footprints;
* :mod:`repro.obs.export` — JSON, CSV and Prometheus text exposition of the
  registry, ``BENCH_*.json`` benchmark artifacts and Chrome/Perfetto
  ``trace_event`` timelines built from the hierarchical span trace (all
  artifact writes are atomic: temp file + ``os.replace``);
* :mod:`repro.obs.ledger` — the persistent campaign ledger (stdlib
  ``sqlite3``, schema ``ledger/v1``): every ``run_campaign`` records its
  fingerprint, configuration and per-layer outcomes, powering
  ``repro history`` / ``repro diff`` / ``repro timeline``;
* :mod:`repro.obs.numerics` — per-layer numeric-health monitors
  (quantization error, saturation / flush-to-zero / NaN-remap counters,
  dynamic-range coverage) fed by the formats' stats sinks;
* :mod:`repro.obs.report` — campaign health reports (markdown / HTML /
  JSON) assembled offline from the metrics + trace artifacts;
* :mod:`repro.obs.live` — the embedded live observability server
  (``run_campaign(serve=...)``): ``/metrics``, ``/progress``
  (``progress/v1``), ``/healthz`` and ``/events`` (SSE), plus the
  ``repro watch`` dashboard helpers.
"""

from .export import (
    atomic_write_text,
    build_chrome_trace,
    chrome_trace_depth,
    export_csv,
    export_json,
    export_prometheus,
    validate_chrome_trace,
    write_bench_json,
    write_json,
)
from .ledger import (
    LEDGER_SCHEMA,
    CampaignLedger,
    diff_runs,
    fingerprint_sha,
    render_diff,
    render_history,
    resolve_ledger,
    sparkline,
)
from .numerics import (
    NumericHealthMonitor,
    NumericStatsSink,
    summarize_numerics,
)
from .profiler import LayerProfiler
from .report import (
    REPORT_SCHEMA,
    build_report,
    build_report_from_ledger,
    load_metrics,
    load_trace_events,
    render_report,
    validate_report,
)
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunScope,
    get_registry,
    merge_metric_delta,
    reset_registry,
    set_registry,
)
from .tracing import (
    BroadcastTracer,
    BufferingTracer,
    JsonlSink,
    NULL_TRACER,
    NullTracer,
    Tracer,
    configure_tracing,
    current_span_id,
    get_tracer,
    seed_span_context,
    set_tracer,
    sink_path,
)
from .live import (
    PROGRESS_SCHEMA,
    CampaignProgress,
    LiveServer,
    fetch_progress,
    journal_progress,
    render_dashboard,
    validate_progress,
)

__all__ = [
    "PROGRESS_SCHEMA",
    "CampaignProgress",
    "LiveServer",
    "fetch_progress",
    "journal_progress",
    "render_dashboard",
    "validate_progress",
    "BroadcastTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunScope",
    "get_registry",
    "set_registry",
    "reset_registry",
    "merge_metric_delta",
    "JsonlSink",
    "Tracer",
    "BufferingTracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "configure_tracing",
    "current_span_id",
    "seed_span_context",
    "sink_path",
    "LayerProfiler",
    "NumericHealthMonitor",
    "NumericStatsSink",
    "summarize_numerics",
    "REPORT_SCHEMA",
    "build_report",
    "build_report_from_ledger",
    "load_metrics",
    "load_trace_events",
    "render_report",
    "validate_report",
    "export_json",
    "write_json",
    "export_csv",
    "export_prometheus",
    "write_bench_json",
    "atomic_write_text",
    "build_chrome_trace",
    "validate_chrome_trace",
    "chrome_trace_depth",
    "LEDGER_SCHEMA",
    "CampaignLedger",
    "fingerprint_sha",
    "resolve_ledger",
    "diff_runs",
    "render_diff",
    "render_history",
    "sparkline",
]
