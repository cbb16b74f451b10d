"""``repro.obs.live`` — the embedded campaign observability plane.

Everything the rest of :mod:`repro.obs` produces is post-hoc: metrics JSON,
trace files and health reports materialize only after ``run_campaign``
returns, so a multi-hour parallel campaign is a black box while it runs.
This module is the *live* half: a stdlib-only HTTP server
(:class:`LiveServer`, ``http.server.ThreadingHTTPServer`` underneath)
started with ``run_campaign(serve="host:port")`` / ``repro campaign
--serve``, answering four endpoints while the campaign executes:

* ``GET /metrics`` — Prometheus text exposition rendered *live* from the
  in-process :class:`~repro.obs.telemetry.MetricsRegistry` via
  :func:`~repro.obs.export.export_prometheus` (every counter the campaign,
  executor, resume cache and numeric-health monitors maintain);
* ``GET /progress`` — a ``progress/v1`` JSON document (see
  :data:`PROGRESS_SCHEMA` / :func:`validate_progress`): per-layer
  injections done/total, EWMA injections/sec, wall-clock ETA, resume-cache
  hit rate, and an **in-flight per-layer SDC estimate** with a Wilson
  score interval (:func:`repro.analysis.confidence.wilson_interval`) so a
  watcher can see whether the estimate has converged *before* the campaign
  finishes;
* ``GET /healthz`` — worker liveness derived from the ``exec.*`` heartbeat
  counters and the ``exec.workers`` gauge: HTTP 200 when healthy, 503 +
  reasons when degraded (a quarantined shard, a dead worker, or a stale
  heartbeat);
* ``GET /events`` — a Server-Sent Events stream fanning out
  ``campaign.injection`` / ``exec.shard`` (and every other ``campaign.*``
  / ``exec.*``) trace events as they happen, fed by a
  :class:`~repro.obs.tracing.BroadcastTracer` that composes with — never
  replaces — the existing JSONL sink.

The progress state itself lives in :class:`CampaignProgress`, a
thread-safe tracker fed every accepted record by the campaign's one accept
path (:class:`repro.core.campaign.RecordSink`, journal-loaded records
pre-fill it), so serial, parallel and fault-batched runs report
identically.  This module folds no records itself: per-layer SDC comes
from the campaign's own seq-ordered fold (:func:`~repro.core.campaign.fold_sdc`
live, :func:`~repro.core.campaign.fold_layer` on a journal), making the
endpoint's final numbers bit-identical to
:class:`~repro.core.campaign.CampaignResult`.

``repro watch URL|JOURNAL`` renders a curses-free terminal dashboard from
either a live ``/progress`` endpoint or — for crashed or remote runs — a
write-ahead journal file read via :func:`journal_progress`.

Lifecycle contract: ``run_campaign`` starts the server *before* the golden
pass and always shuts it down in a ``finally`` — a SIGINT mid-campaign
still returns the partial resumable result with no dangling server thread.
A port already in use raises :class:`repro.core.campaign.CampaignError`
naming the address instead of a traceback.  Passing an already-running
:class:`LiveServer` instance instead of an address lets a caller (tests,
the future ``repro serve``) own the lifecycle and read the final state
after the campaign returns.
"""

from __future__ import annotations

import json
import logging
import math
import queue as _queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .export import export_prometheus
from .telemetry import get_registry

__all__ = [
    "PROGRESS_SCHEMA",
    "CampaignProgress",
    "LiveServer",
    "validate_progress",
    "fetch_progress",
    "journal_progress",
    "render_dashboard",
]

logger = logging.getLogger("repro.campaign")

#: the JSON contract version served at ``/progress``
PROGRESS_SCHEMA = "progress/v1"

#: progress states a ``progress/v1`` document may report
PROGRESS_STATES = ("running", "done", "interrupted", "error", "journal")

#: EWMA time constant for the live throughput estimate (seconds)
EWMA_TAU = 10.0

#: a worker heartbeat older than this marks the campaign degraded (seconds)
DEFAULT_STALE_AFTER = 30.0

#: SSE events are fanned out only for these trace-event name prefixes
SSE_NAME_PREFIXES = ("campaign.", "exec.")


# ----------------------------------------------------------------------
# the in-flight progress tracker
# ----------------------------------------------------------------------
class CampaignProgress:
    """Thread-safe in-flight state of one injection campaign.

    Updated synchronously by the campaign's
    :class:`~repro.core.campaign.RecordSink` (:meth:`record` per accepted
    record, whichever executor produced it) and the parallel supervisor
    (:meth:`heartbeat` per worker message), and read concurrently by the
    HTTP scrape threads and the ``-v`` progress logger.  Per-layer SDC
    rates are kept per ``seq`` and folded in sorted-``seq`` order at
    snapshot time by :func:`repro.core.campaign.fold_sdc`, so the reported
    rate is bit-identical to the campaign's own fold however the records
    arrived.
    """

    def __init__(self, kind: str = "value", location: str = "neuron",
                 format_name: str = "", log_interval: float = 5.0):
        self._lock = threading.Lock()
        self.kind = kind
        self.location = location
        self.format_name = format_name
        self.log_interval = float(log_interval)
        self.started_at = time.time()
        self._t0 = time.monotonic()
        self.state = "running"
        #: layer -> planned injections (set once sampling is done)
        self.totals: dict[str, int] = {}
        #: layer -> {seq: sdc_rate} for in-flight SDC estimates
        self._sdc: dict[str, dict[int, float]] = {}
        #: layer -> executed/adopted record count
        self.done: dict[str, int] = {}
        self.journal_prefilled = 0
        self.current_layer: str | None = None
        self._ewma_rate = 0.0
        #: when live work started: the plan was set (else the tracker began)
        self._work_t0 = self._t0
        self._last_record_t: float | None = None
        self._last_heartbeat_t: float | None = None
        self._last_log_t: float | None = None
        #: optional zero-arg callable returning the resume-cache counts
        #: (:attr:`repro.core.resume.ResumeSession.stats`); read at snapshot
        #: time until :meth:`finish` seals them
        self.resume_source = None
        self._resume: dict | None = None

    # ------------------------------------------------------------------
    # writers (executor side)
    # ------------------------------------------------------------------
    def set_plan(self, totals: dict[str, int]) -> None:
        """Declare the per-layer plan sizes (done/total denominators)."""
        with self._lock:
            self.totals = {layer: int(n) for layer, n in totals.items()}
            self._work_t0 = time.monotonic()

    def record(self, layer: str, seq: int, sdc_rate: float,
               prefill: bool = False) -> None:
        """Fold one completed injection record into the live state.

        ``prefill=True`` marks a record adopted from the write-ahead
        journal: it counts toward done/total and the SDC estimate but not
        toward the live throughput EWMA (no work happened now).
        """
        with self._lock:
            per_layer = self._sdc.setdefault(layer, {})
            if seq in per_layer:  # last-wins, like the journal
                per_layer[seq] = float(sdc_rate)
                return
            per_layer[seq] = float(sdc_rate)
            self.done[layer] = self.done.get(layer, 0) + 1
            self.current_layer = layer
            if prefill:
                self.journal_prefilled += 1
                return
            now = time.monotonic()
            if self._last_record_t is not None:
                dt = now - self._last_record_t
                # exponentially-weighted event-rate estimator: decays the
                # running rate by the gap, then credits this event — at a
                # steady rate lambda it converges to lambda events/sec
                self._ewma_rate = (self._ewma_rate * math.exp(-dt / EWMA_TAU)
                                   + 1.0 / EWMA_TAU)
            else:
                self._ewma_rate = 1.0 / EWMA_TAU
            self._last_record_t = now

    def heartbeat(self, worker_id: int | None = None) -> None:
        """Note a liveness signal from a worker (any supervisor message)."""
        with self._lock:
            self._last_heartbeat_t = time.monotonic()

    def finish(self, state: str = "done") -> None:
        """Seal the tracker; only the first call wins (``finally`` safety).

        Sealing reads the resume counts once and drops their source, so a
        sealed tracker reports the campaign's final counts and keeps
        nothing of the campaign alive.
        """
        with self._lock:
            if self.state == "running":
                self.state = state
                self._resume, self.resume_source = self._read_resume(), None

    # ------------------------------------------------------------------
    # readers (scrape / logging side)
    # ------------------------------------------------------------------
    def heartbeat_age(self) -> float | None:
        with self._lock:
            if self._last_heartbeat_t is None:
                return None
            return time.monotonic() - self._last_heartbeat_t

    def counts(self) -> tuple[int, int]:
        """(done, total) across all layers."""
        with self._lock:
            return sum(self.done.values()), sum(self.totals.values())

    def snapshot(self) -> dict:
        """The full ``progress/v1`` document (JSON-serialisable)."""
        from ..core.campaign import fold_sdc

        with self._lock:
            now = time.monotonic()
            elapsed = now - self._t0
            done_total = sum(self.done.values())
            plan_total = sum(self.totals.values())
            live_done = done_total - self.journal_prefilled
            overall = live_done / elapsed if elapsed > 0 else 0.0
            ewma = self._ewma_rate
            if self._last_record_t is not None:
                # keep decaying between records so a stalled campaign's
                # rate visibly falls instead of freezing at its last value
                ewma *= math.exp(-(now - self._last_record_t) / EWMA_TAU)
                # the estimator starts at 0, so span seconds into the work
                # it holds 1 - exp(-span/tau) of a steady rate: divide that
                # out.  The span starts with the work, not the first record:
                # records land in bursts (a chunk's lanes, a worker batch),
                # and a burst measured from itself reads as a near-zero span
                span = now - self._work_t0
                if span > 0:
                    ewma /= -math.expm1(-span / EWMA_TAU)
            remaining = max(0, plan_total - done_total)
            rate = ewma if ewma > 1e-9 else overall
            eta = remaining / rate if (remaining and rate > 1e-9) else (
                0.0 if self.state == "running" or remaining == 0 else None)
            layers = {}
            for layer in self.totals:
                rates = self._sdc.get(layer, {})
                sdc_rate, ci95 = fold_sdc(rates[seq] for seq in sorted(rates))
                layers[layer] = {
                    "done": len(rates),
                    "total": self.totals[layer],
                    "sdc_rate": sdc_rate,
                    "sdc_ci95": list(ci95),
                }
            resume = self._read_resume()
            heartbeat_age = (now - self._last_heartbeat_t
                             if self._last_heartbeat_t is not None else None)
            return {
                "schema": PROGRESS_SCHEMA,
                "generated_at": time.time(),
                "state": self.state,
                "campaign": {"kind": self.kind, "location": self.location,
                             "format": self.format_name},
                "started_at": self.started_at,
                "elapsed_s": elapsed,
                "done": done_total,
                "total": plan_total,
                "journal_prefilled": self.journal_prefilled,
                "current_layer": self.current_layer,
                "injections_per_sec": overall,
                "injections_per_sec_ewma": ewma,
                "eta_s": eta,
                "resume": resume,
                "workers": _worker_state(heartbeat_age),
                "layers": layers,
            }

    def _read_resume(self) -> dict | None:
        """The resume counts plus their ``hit_rate``: live until
        :meth:`finish` seals them, None without a source."""
        from ..core.resume import hit_rate

        if self.resume_source is None:
            return self._resume
        try:
            stats = dict(self.resume_source())
        except Exception:  # noqa: BLE001 - scrape must never throw
            return None
        stats["hit_rate"] = hit_rate(stats["hits"], stats["misses"])
        return stats

    def maybe_log(self) -> None:
        """Emit one throttled INFO progress line (the ``-v`` surface).

        Called once per record from the executors; the first record logs
        immediately, then at most one line per ``log_interval`` seconds.
        """
        if not logger.isEnabledFor(logging.INFO):
            return
        now = time.monotonic()
        with self._lock:
            if self._last_log_t is not None \
                    and now - self._last_log_t < self.log_interval:
                return
            self._last_log_t = now
        snap = self.snapshot()
        layer = snap["current_layer"] or "-"
        lp = snap["layers"].get(layer, {})
        eta = snap["eta_s"]
        logger.info(
            "progress: %s %d/%d | overall %d/%d (%.1f%%) | %.1f inj/s | "
            "ETA %s | SDC %.4f",
            layer, lp.get("done", 0), lp.get("total", 0), snap["done"],
            snap["total"],
            100.0 * snap["done"] / snap["total"] if snap["total"] else 0.0,
            snap["injections_per_sec_ewma"], _fmt_eta(eta),
            lp.get("sdc_rate", 0.0))


def _worker_state(heartbeat_age: float | None,
                  registry=None) -> dict:
    """Executor liveness as seen by the process registry."""
    registry = registry if registry is not None else get_registry()

    def _value(name: str) -> float:
        metric = registry.get(name)
        return float(metric.value) if metric is not None else 0.0

    return {
        "alive": int(_value("exec.workers")),
        "heartbeats": int(_value("exec.heartbeats_total")),
        "worker_deaths": int(_value("exec.worker_deaths_total")),
        "quarantined_shards": int(_value("exec.shards_quarantined_total")),
        "last_heartbeat_age_s": heartbeat_age,
    }


def evaluate_health(progress: CampaignProgress | None,
                    registry=None,
                    stale_after: float = DEFAULT_STALE_AFTER) -> dict:
    """The ``/healthz`` verdict: worker liveness from ``exec.*`` telemetry.

    Healthy means no quarantined shards, no worker deaths, and — when a
    worker pool is alive — a heartbeat younger than ``stale_after``.
    Serial campaigns (no pool) are healthy while the tracker advances.
    """
    age = progress.heartbeat_age() if progress is not None else None
    workers = _worker_state(age, registry=registry)
    reasons = []
    if workers["quarantined_shards"]:
        reasons.append(f"{workers['quarantined_shards']} shard(s) quarantined")
    if workers["worker_deaths"]:
        reasons.append(f"{workers['worker_deaths']} worker death(s)")
    if workers["alive"] and age is not None and age > stale_after:
        reasons.append(f"worker heartbeat stale ({age:.1f}s "
                       f"> {stale_after:.0f}s)")
    return {
        "status": "degraded" if reasons else "ok",
        "reasons": reasons,
        "workers": workers,
        "state": progress.state if progress is not None else "idle",
    }


def validate_progress(payload: dict) -> dict:
    """Validate a ``progress/v1`` document; returns it, raises ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(f"progress payload must be a dict, got "
                         f"{type(payload).__name__}")
    if payload.get("schema") != PROGRESS_SCHEMA:
        raise ValueError(f"expected schema {PROGRESS_SCHEMA!r}, got "
                         f"{payload.get('schema')!r}")
    required = ("generated_at", "state", "campaign", "done", "total",
                "injections_per_sec", "injections_per_sec_ewma", "eta_s",
                "workers", "layers")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"progress payload missing keys: {missing}")
    if payload["state"] not in PROGRESS_STATES:
        raise ValueError(f"unknown progress state {payload['state']!r}")
    if not isinstance(payload["layers"], dict):
        raise ValueError("progress layers must be a dict")
    for layer, entry in payload["layers"].items():
        for key in ("done", "total", "sdc_rate", "sdc_ci95"):
            if key not in entry:
                raise ValueError(f"layer {layer!r} missing {key!r}")
        ci = entry["sdc_ci95"]
        if not isinstance(ci, (list, tuple)) or len(ci) != 2:
            raise ValueError(f"layer {layer!r} sdc_ci95 must be [lo, hi]")
        if not (int(entry["done"]) >= 0 and int(entry["total"]) >= 0):
            raise ValueError(f"layer {layer!r} has negative counts")
    done = sum(int(e["done"]) for e in payload["layers"].values())
    if int(payload["done"]) != done:
        raise ValueError(f"overall done {payload['done']} != per-layer sum "
                         f"{done}")
    return payload


# ----------------------------------------------------------------------
# the embedded HTTP server
# ----------------------------------------------------------------------
class _LiveHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, owner: "LiveServer"):
        self.owner = owner
        super().__init__(address, handler)


class _LiveHandler(BaseHTTPRequestHandler):
    server_version = "repro-live/1"
    # HTTP/1.0: every response closes its connection, so no Content-Length
    # bookkeeping for the SSE stream and no keep-alive threads to drain
    protocol_version = "HTTP/1.0"

    def log_message(self, fmt, *args):  # route access logs off stderr
        logging.getLogger("repro.obs.live").debug(fmt, *args)

    # ------------------------------------------------------------------
    def do_GET(self):  # noqa: N802 - http.server API
        owner: LiveServer = self.server.owner
        path = urlsplit(self.path).path
        try:
            if path == "/metrics":
                self._send(200, export_prometheus(owner.registry),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/progress":
                progress = owner.progress
                if progress is None:
                    self._send_json(503, {"error": "no campaign attached"})
                else:
                    self._send_json(200, progress.snapshot())
            elif path == "/healthz":
                health = evaluate_health(owner.progress, owner.registry,
                                         owner.stale_after)
                self._send_json(200 if health["status"] == "ok" else 503,
                                health)
            elif path == "/events":
                self._stream_events(owner)
            else:
                self._send_json(404, {
                    "error": f"unknown path {path!r}",
                    "endpoints": ["/metrics", "/progress", "/healthz",
                                  "/events"]})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    # ------------------------------------------------------------------
    def _send(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload, default=str) + "\n",
                   "application/json")

    def _stream_events(self, owner: "LiveServer") -> None:
        """The Server-Sent Events fan-out loop (one thread per client)."""
        subscription = owner.subscribe()
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            # the preamble is written only after subscribing, so an event
            # published after a client saw it is guaranteed to be delivered
            self.wfile.write(b"retry: 2000\n: stream open\n\n")
            self.wfile.flush()
            while not owner.stopping.is_set():
                try:
                    event = subscription.get(timeout=0.5)
                except _queue.Empty:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                name = event.get("name", "event")
                data = json.dumps(event, default=str, separators=(",", ":"))
                self.wfile.write(
                    f"event: {name}\ndata: {data}\n\n".encode("utf-8"))
                self.wfile.flush()
        finally:
            owner.unsubscribe(subscription)


class LiveServer:
    """The embedded observability server for one (or many) campaigns.

    Usually owned by ``run_campaign(serve="host:port")`` — started before
    the golden pass, shut down in its ``finally``.  A caller may instead
    :meth:`start` one itself and pass the instance as ``serve=``; the
    campaign then attaches its progress tracker but leaves the lifecycle
    (and the final state, still being served) to the caller.
    """

    def __init__(self, host: str, port: int,
                 stale_after: float = DEFAULT_STALE_AFTER):
        self.stale_after = float(stale_after)
        self.progress: CampaignProgress | None = None
        self._registry = None
        self.stopping = threading.Event()
        self._subscribers: set[_queue.Queue] = set()
        self._sub_lock = threading.Lock()
        self.events_published = 0
        self.events_dropped = 0
        try:
            self._httpd = _LiveHTTPServer((host, port), _LiveHandler, self)
        except OSError as exc:
            from ..core.campaign import CampaignError
            raise CampaignError(
                f"live observability server could not bind {host}:{port} "
                f"({exc.strerror or exc}); is another campaign already "
                f"serving there?  Pass a free --serve address.") from exc
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.1},
                                        name="repro-live-obs", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    @classmethod
    def start(cls, address: str,
              stale_after: float = DEFAULT_STALE_AFTER) -> "LiveServer":
        """Start a server on ``"host:port"`` (``":port"``/``"port"`` bind
        localhost; port 0 picks a free port, see :attr:`url`)."""
        host, port = parse_address(address)
        return cls(host, port, stale_after=stale_after)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        host = self.host if self.host not in ("0.0.0.0", "") else "127.0.0.1"
        return f"http://{host}:{self.port}"

    @property
    def registry(self):
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------
    def attach(self, progress: CampaignProgress, registry=None) -> None:
        """Bind a campaign's progress tracker (replacing any previous one)."""
        self.progress = progress
        self._registry = registry

    # ------------------------------------------------------------------
    # SSE fan-out
    # ------------------------------------------------------------------
    def subscribe(self, maxsize: int = 256) -> _queue.Queue:
        subscription: _queue.Queue = _queue.Queue(maxsize=maxsize)
        with self._sub_lock:
            self._subscribers.add(subscription)
        return subscription

    def unsubscribe(self, subscription: _queue.Queue) -> None:
        with self._sub_lock:
            self._subscribers.discard(subscription)

    def publish(self, event: dict) -> None:
        """Fan one trace event out to every SSE client (drop-oldest).

        This is the :class:`~repro.obs.tracing.BroadcastTracer` sink; only
        ``campaign.*`` / ``exec.*`` events are forwarded, and a slow client
        loses its oldest buffered events rather than stalling the campaign.
        """
        name = event.get("name", "")
        if not name.startswith(SSE_NAME_PREFIXES):
            return
        with self._sub_lock:
            subscribers = list(self._subscribers)
        if not subscribers:
            return
        self.events_published += 1
        for subscription in subscribers:
            try:
                subscription.put_nowait(event)
            except _queue.Full:
                try:
                    subscription.get_nowait()
                except _queue.Empty:  # pragma: no cover - racing consumer
                    pass
                self.events_dropped += 1
                try:
                    subscription.put_nowait(event)
                except _queue.Full:  # pragma: no cover - racing producers
                    pass

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop serving: wake SSE clients, stop the accept loop, join."""
        if self.stopping.is_set():
            return
        self.stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "LiveServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` / ``":port"`` / ``"port"`` -> (host, port)."""
    text = str(address).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or "127.0.0.1"
    else:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid serve address {address!r}: expected HOST:PORT") from None
    return host, port


# ----------------------------------------------------------------------
# `repro watch`: polling clients + the terminal dashboard
# ----------------------------------------------------------------------
def fetch_progress(url: str, timeout: float = 5.0) -> dict:
    """GET a ``/progress`` document (``url`` may omit the path)."""
    from urllib.request import urlopen

    if not url.rstrip("/").endswith("/progress"):
        url = url.rstrip("/") + "/progress"
    with urlopen(url, timeout=timeout) as response:
        return validate_progress(json.loads(response.read().decode("utf-8")))


def journal_progress(path: str) -> dict:
    """A ``progress/v1`` view of a write-ahead journal file.

    For crashed or remote campaigns the journal is the only live surface:
    its header pins each layer's plan size (older journals: the
    fingerprint's ``injections_per_layer``) and every flushed record
    carries its outcome, so each layer folds with
    :func:`repro.core.campaign.fold_layer` to the numbers ``/progress``
    served.  Throughput/ETA are estimated from the records' own ``dur_s``.
    """
    from ..core.campaign import fold_layer, normalized_record
    from ..exec.journal import load_journal

    header, records, corrupt, _skipped = load_journal(path)
    header = header or {}
    fingerprint = header.get("fingerprint", {})
    plan = header.get("plan") or {}
    budget = int(fingerprint.get("injections_per_layer", 0) or 0)
    per_layer: dict[str, dict[int, dict]] = {
        layer: {} for layer in fingerprint.get("layers", ())}
    for (layer, seq), record in records.items():
        per_layer.setdefault(layer, {})[seq] = normalized_record(record)
    layers = {}
    total_done = 0
    dur_sum = 0.0
    for layer, layer_records in per_layer.items():
        stats = fold_layer(layer, layer_records)
        total_done += stats.injections
        dur_sum += stats.seconds
        layers[layer] = {
            "done": stats.injections,
            "total": int(plan.get(layer, max(budget, stats.injections))),
            "sdc_rate": stats.sdc_rate,
            "sdc_ci95": list(stats.sdc_ci95),
        }
    total = sum(entry["total"] for entry in layers.values())
    rate = total_done / dur_sum if dur_sum > 0 else 0.0
    remaining = max(0, total - total_done)
    return validate_progress({
        "schema": PROGRESS_SCHEMA,
        "generated_at": time.time(),
        "state": "journal",
        "campaign": {"kind": fingerprint.get("kind", "?"),
                     "location": fingerprint.get("location", "?"),
                     "format": fingerprint.get("format", "?")},
        "started_at": header.get("created"),
        "elapsed_s": dur_sum,
        "done": total_done,
        "total": total,
        "journal_prefilled": total_done,
        "current_layer": None,
        "injections_per_sec": rate,
        "injections_per_sec_ewma": rate,
        "eta_s": remaining / rate if (remaining and rate > 0) else None,
        "resume": None,
        "workers": {"alive": 0, "heartbeats": 0, "worker_deaths": 0,
                    "quarantined_shards": 0, "last_heartbeat_age_s": None},
        "layers": layers,
        "corrupt_lines": corrupt,
    })


def _fmt_eta(eta: float | None) -> str:
    if eta is None:
        return "?"
    eta = max(0, int(round(eta)))
    if eta >= 3600:
        return f"{eta // 3600}:{(eta % 3600) // 60:02d}:{eta % 60:02d}"
    return f"{eta // 60}:{eta % 60:02d}"


def _bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(1.0, done / total)))
    return "#" * filled + "-" * (width - filled)


def render_dashboard(payload: dict, width: int = 24) -> str:
    """One frame of the ``repro watch`` terminal dashboard (plain text)."""
    campaign = payload.get("campaign", {})
    lines = [
        f"campaign {campaign.get('format', '?')} "
        f"{campaign.get('kind', '?')}/{campaign.get('location', '?')} "
        f"— {payload['state']}",
        f"overall [{_bar(payload['done'], payload['total'], width)}] "
        f"{payload['done']}/{payload['total']}  "
        f"{payload['injections_per_sec_ewma']:.1f} inj/s  "
        f"ETA {_fmt_eta(payload['eta_s'])}",
    ]
    name_width = max((len(name) for name in payload["layers"]), default=0)
    for name, entry in payload["layers"].items():
        lo, hi = entry["sdc_ci95"]
        marker = " <" if name == payload.get("current_layer") else ""
        lines.append(
            f"  {name:<{name_width}} "
            f"[{_bar(entry['done'], entry['total'], width)}] "
            f"{entry['done']:>4}/{entry['total']:<4} "
            f"SDC {entry['sdc_rate']:.4f} "
            f"CI95 [{lo:.4f}, {hi:.4f}]{marker}")
    workers = payload.get("workers") or {}
    if workers.get("alive"):
        age = workers.get("last_heartbeat_age_s")
        lines.append(
            f"workers: {workers['alive']} alive | heartbeat "
            f"{age:.1f}s ago | {workers.get('worker_deaths', 0)} death(s) | "
            f"{workers.get('quarantined_shards', 0)} quarantined"
            if age is not None else
            f"workers: {workers['alive']} alive")
    resume = payload.get("resume")
    if resume:
        lines.append(f"resume cache: hit-rate {resume['hit_rate']:.1%} | "
                     f"replayed {resume.get('replayed', 0)} | "
                     f"recomputed {resume.get('recomputed', 0)}")
    if payload.get("corrupt_lines"):
        lines.append(f"journal: {payload['corrupt_lines']} torn/corrupt "
                     "line(s) skipped")
    return "\n".join(lines)
