"""Exporters: JSON, Prometheus exposition and Chrome trace timelines.

Three consumers, three formats:

* **JSON** — the CLI's ``--metrics-json`` artifact and the benchmarks'
  ``BENCH_*.json`` perf-trajectory files (machine-diffable across PRs);
* **Prometheus text exposition v0.0.4** — so a long-running service built on
  this platform can be scraped directly (names are sanitised to the
  ``[a-zA-Z_:][a-zA-Z0-9_:]*`` charset; histograms expose ``_bucket``/
  ``_sum``/``_count`` series with cumulative ``le`` labels);
* **Chrome ``trace_event`` JSON** — ``repro timeline``'s hierarchical
  campaign timeline (campaign → layer/shard → injection-batch spans on
  per-worker lanes, plus a computed critical path), loadable in
  ``chrome://tracing`` / Perfetto (:func:`build_chrome_trace`).

Every file-writing exporter goes through :func:`atomic_write_text`
(write-temp + fsync + ``os.replace``), so a SIGINT or SIGKILL mid-export
can never leave a torn or truncated artifact — the target either keeps
its previous content or holds the complete new one.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from typing import Any, Iterable

from .telemetry import MetricsRegistry, get_registry

__all__ = [
    "atomic_write_text",
    "export_json",
    "write_json",
    "export_prometheus",
    "write_bench_json",
    "build_chrome_trace",
    "validate_chrome_trace",
    "chrome_trace_depth",
]


# ----------------------------------------------------------------------
# atomic file writes
# ----------------------------------------------------------------------
def atomic_write_text(path: str, data: "str | Iterable[str]") -> str:
    """Write ``data`` to ``path`` atomically; returns ``path``.

    The content lands in a temporary file in the same directory, is
    flushed and fsynced, then renamed over the target with ``os.replace``
    — so observers (and crashes: SIGINT mid-campaign, SIGKILL mid-write)
    see either the complete old artifact or the complete new one, never a
    truncated hybrid.  ``data`` may be a string or an iterable of string
    chunks (streamed without concatenation); if producing a chunk raises,
    the temporary file is removed and the target is left untouched.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if isinstance(data, str):
                fh.write(data)
            else:
                for chunk in data:
                    fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def export_json(registry: MetricsRegistry | None = None,
                extra: dict | None = None) -> dict:
    """Registry snapshot as a JSON-serialisable dict."""
    registry = registry if registry is not None else get_registry()
    payload: dict[str, Any] = {
        "generated_at": time.time(),
        "metrics": registry.collect(),
    }
    if extra:
        payload.update(extra)
    return payload


def write_json(path: str, registry: MetricsRegistry | None = None,
               extra: dict | None = None) -> dict:
    """Write the JSON export to ``path`` atomically; returns the payload."""
    payload = export_json(registry, extra=extra)
    atomic_write_text(path, json.dumps(payload, indent=2, default=str) + "\n")
    return payload


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label-value escaping.

    Per the text format spec, label values escape backslash, the double
    quote *and* line feed (``\\`` → ``\\\\``, ``"`` → ``\\"``, newline →
    ``\\n``) — previously newlines were emitted raw, splitting the sample
    line and corrupting the scrape.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP text escapes backslash and line feed (but not quotes)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_sanitize(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def export_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Prometheus text exposition format v0.0.4.

    Safe to render while campaign threads mutate the registry (the live
    ``/metrics`` endpoint scrapes mid-run): the metric list is copied under
    the registry lock, each metric is rendered from one consistent
    ``snapshot()`` rather than live fields, and the histogram ``_count``
    series is derived from the ``+Inf`` cumulative bucket so a concurrent
    ``observe`` can never produce the ``le="+Inf" != _count`` inconsistency
    Prometheus rejects.
    """
    registry = registry if registry is not None else get_registry()
    lines: list[str] = []
    seen_types: set[str] = set()
    for metric in sorted(registry, key=lambda m: (m.name, sorted(m.labels.items()))):
        name = _sanitize(metric.name)
        if name not in seen_types:
            seen_types.add(name)
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
        snap = metric.snapshot()
        if metric.kind == "histogram":
            buckets = snap["buckets"]
            cumulative = 0
            for bound in metric.buckets:
                cumulative += buckets.get(repr(bound), 0)
                lines.append(f"{name}_bucket"
                             f"{_prom_labels(metric.labels, {'le': repr(bound)})}"
                             f" {cumulative}")
            cumulative += buckets.get("+inf", 0)
            lines.append(f"{name}_bucket"
                         f"{_prom_labels(metric.labels, {'le': '+Inf'})}"
                         f" {cumulative}")
            lines.append(f"{name}_sum{_prom_labels(metric.labels)} {snap['sum']}")
            lines.append(f"{name}_count{_prom_labels(metric.labels)} {cumulative}")
        else:
            lines.append(f"{name}{_prom_labels(metric.labels)} {snap['value']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# benchmark artifacts
# ----------------------------------------------------------------------
def write_bench_json(name: str, payload: dict,
                     directory: str | None = None) -> str:
    """Write ``BENCH_<name>.json`` so the perf trajectory is diffable per PR.

    ``directory`` defaults to ``$BENCH_OUT_DIR`` or ``benchmarks/out``.
    The payload is wrapped with a timestamp and the benchmark name; returns
    the path written.
    """
    directory = directory or os.environ.get("BENCH_OUT_DIR", "benchmarks/out")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    wrapped = {"bench": name, "generated_at": time.time(), **payload}
    atomic_write_text(path, json.dumps(wrapped, indent=2, default=str) + "\n")
    return path


# ----------------------------------------------------------------------
# Chrome trace_event timelines (repro timeline)
# ----------------------------------------------------------------------
_TRACE_META_KEYS = ("type", "name", "ts", "ts_mono", "dur_s", "span_id",
                    "parent_id", "worker_id")


def _event_end(event: dict) -> float:
    """The event's end instant, preferring the step-free monotonic clock.

    Traces written by this PR's tracer stamp ``ts_mono`` on every event;
    CLOCK_MONOTONIC is system-wide on Linux, so parent and forked-worker
    timestamps share one timeline.  Legacy traces fall back to wall-clock
    ``ts``.
    """
    return float(event.get("ts_mono", event.get("ts", 0.0)))


def _event_lane(event: dict) -> int:
    """Chrome ``tid`` lane: 0 = supervisor/main, 1+N = worker N."""
    worker = event.get("worker_id")
    return 0 if worker is None else int(worker) + 1


def build_chrome_trace(events: list[dict],
                       label: str = "repro campaign") -> dict:
    """Convert a JSONL trace-event stream to Chrome ``trace_event`` JSON.

    Spans become ``"ph": "X"`` complete events (``ts``/``dur`` in
    microseconds on a zero-based campaign timeline) and point events
    become ``"ph": "i"`` instants, all under one process (``pid`` 1) with
    one ``tid`` lane per worker (``worker_id``-tagged events land on lane
    ``worker_id + 1``; supervisor/serial events on lane 0).  Span
    ``span_id``/``parent_id`` attributes ride in ``args``, so the
    hierarchy (campaign → layer/shard → injection-batch) is reconstructed
    by Perfetto's flow queries and by :func:`chrome_trace_depth`.

    Two derived products are attached:

    * parallel runs get synthetic ``layer:<name>`` grouping spans per
      worker lane (consecutive same-layer shard spans merged), restoring
      the layer level that serial runs carry natively;
    * ``otherData.critical_path`` walks the span tree from its root
      taking the longest child at each level — the chain of spans that
      bounded the campaign's wall-clock; the spans on it are marked
      ``args.critical``.

    The result is loadable in ``chrome://tracing`` / Perfetto (unknown
    top-level keys are ignored by both).
    """
    spans = [e for e in events if e.get("type") == "span"]
    points = [e for e in events if e.get("type") == "event"]
    starts = ([_event_end(e) - float(e.get("dur_s", 0.0)) for e in spans]
              + [_event_end(e) for e in points])
    t0 = min(starts) if starts else 0.0

    def us(seconds: float) -> int:
        return int(round(seconds * 1e6))

    trace_events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": label}},
    ]
    lanes_seen: set[int] = set()
    by_id: dict[str, dict] = {}
    children: dict[str | None, list[dict]] = {}
    for event in spans:
        lane = _event_lane(event)
        lanes_seen.add(lane)
        dur = float(event.get("dur_s", 0.0))
        start = _event_end(event) - dur
        args = {k: v for k, v in event.items() if k not in _TRACE_META_KEYS}
        for key in ("span_id", "parent_id", "worker_id"):
            if event.get(key) is not None:
                args[key] = event[key]
        x_event = {"name": str(event.get("name", "span")), "cat": "span",
                   "ph": "X", "ts": us(start - t0), "dur": us(dur),
                   "pid": 1, "tid": lane, "args": args}
        trace_events.append(x_event)
        span_id = event.get("span_id")
        node = {"event": event, "x": x_event}
        if span_id is not None:
            by_id[span_id] = node
        children.setdefault(event.get("parent_id"), []).append(node)
    for event in points:
        lane = _event_lane(event)
        lanes_seen.add(lane)
        args = {k: v for k, v in event.items() if k not in _TRACE_META_KEYS}
        if event.get("parent_id") is not None:
            args["parent_id"] = event["parent_id"]
        trace_events.append(
            {"name": str(event.get("name", "event")), "cat": "event",
             "ph": "i", "s": "t", "ts": us(_event_end(event) - t0),
             "pid": 1, "tid": lane, "args": args})

    # synthetic per-lane layer grouping: consecutive same-layer shard spans
    # on one worker lane merge into a "layer:<name>" band
    shard_spans = sorted(
        (e for e in spans
         if e.get("name") == "exec.worker_shard" and e.get("layer")),
        key=lambda e: (_event_lane(e), _event_end(e) - float(e.get("dur_s", 0.0))))
    group: list[dict] = []

    def flush_group():
        if not group:
            return
        begin = min(_event_end(e) - float(e.get("dur_s", 0.0)) for e in group)
        end = max(_event_end(e) for e in group)
        trace_events.append(
            {"name": f"layer:{group[0]['layer']}", "cat": "layer",
             "ph": "X", "ts": us(begin - t0), "dur": us(end - begin),
             "pid": 1, "tid": _event_lane(group[0]),
             "args": {"layer": group[0]["layer"], "shards": len(group),
                      "synthetic": True}})

    for event in shard_spans:
        if group and (_event_lane(event) != _event_lane(group[-1])
                      or event["layer"] != group[-1]["layer"]):
            flush_group()
            group = []
        group.append(event)
    flush_group()

    for lane in sorted(lanes_seen):
        trace_events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
             "args": {"name": "main" if lane == 0 else f"worker {lane - 1}"}})

    # critical path: from the root span, descend into the longest child.
    # The root is the *deepest* parentless span (duration as tie-break):
    # setup leaves like goldeneye.attach can out-last a small campaign.run
    # span, but the timeline's spine is the span tree, not a stray leaf.
    def kids_of(node: dict) -> list[dict]:
        span_id = node["event"].get("span_id")
        return children.get(span_id, []) if span_id is not None else []

    def subtree_depth(node: dict) -> int:
        depth, frontier, seen = 0, [node], set()
        while frontier:
            depth += 1
            nxt = []
            for n in frontier:
                span_id = n["event"].get("span_id")
                if span_id in seen:
                    continue  # malformed id cycle: stop descending
                seen.add(span_id)
                nxt.extend(kids_of(n))
            frontier = nxt
        return depth

    critical: list[dict] = []
    roots = children.get(None, [])
    if roots:
        node = max(roots, key=lambda n: (subtree_depth(n),
                                         float(n["event"].get("dur_s", 0.0))))
        walked: set = set()
        while node is not None:
            event = node["event"]
            if event.get("span_id") in walked:
                break  # malformed id cycle: the path is already complete
            walked.add(event.get("span_id"))
            node["x"]["args"]["critical"] = True
            critical.append({"name": event.get("name"),
                             "span_id": event.get("span_id"),
                             "dur_s": float(event.get("dur_s", 0.0)),
                             "worker_id": event.get("worker_id")})
            kids = kids_of(node)
            node = (max(kids, key=lambda n: float(n["event"].get("dur_s", 0.0)))
                    if kids else None)

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro timeline",
            "spans": len(spans),
            "events": len(points),
            "lanes": sorted(lanes_seen),
            "critical_path": critical,
        },
    }


def validate_chrome_trace(payload: Any) -> dict:
    """Schema-check a Chrome ``trace_event`` JSON object array payload.

    Asserts the invariants ``chrome://tracing`` / Perfetto rely on —
    ``traceEvents`` list, per-event ``name``/``ph``/``pid``/``tid``,
    numeric non-negative ``ts``, and non-negative ``dur`` on complete
    (``"X"``) events.  Returns the payload; raises ``ValueError`` on the
    first violation (CI gate).
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a dict")
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        raise ValueError("trace payload missing 'traceEvents' list")
    for i, event in enumerate(trace_events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"traceEvents[{i}] missing {key!r}")
        ph = event["ph"]
        if ph not in ("X", "i", "I", "M", "B", "E"):
            raise ValueError(f"traceEvents[{i}] has unknown phase {ph!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"traceEvents[{i}] has invalid ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] has invalid dur {dur!r}")
    return payload


def chrome_trace_depth(payload: dict) -> int:
    """Maximum span-nesting depth of a built Chrome trace (via args ids)."""
    parent_of: dict[str, str | None] = {}
    for event in payload.get("traceEvents", ()):
        args = event.get("args") or {}
        span_id = args.get("span_id")
        if event.get("ph") == "X" and span_id is not None:
            parent_of[span_id] = args.get("parent_id")
    depth = 0
    for span_id in parent_of:
        d, cursor, hops = 1, parent_of.get(span_id), 0
        while cursor is not None and hops < len(parent_of) + 1:
            d += 1
            cursor = parent_of.get(cursor)
            hops += 1
        depth = max(depth, d)
    return depth
