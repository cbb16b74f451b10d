"""The campaign supervisor: a fault-tolerant parallel shard executor.

The supervisor owns the robustness guarantees of ``run_campaign(...,
workers=N)``:

* **Sharded parallelism** — the deterministically pre-sampled plans are
  split into per-layer chunks (:mod:`repro.exec.shard`) and executed on a
  pool of forked workers; because aggregation folds records in plan order,
  the parallel aggregate is bit-identical to the serial one.
* **One accept path** — every record batch streamed back by a worker is
  handed to the campaign's :class:`repro.core.campaign.RecordSink`, the
  same sink the serial path feeds: it journals the batch (one framed
  line, flushed) *before* any of its records can reach aggregation, so no
  accepted injection is ever lost to a crash, then stores the records,
  emits their telemetry and feeds live progress.  Records travel in
  batches of :data:`repro.exec.worker.BATCH_RECORDS` (flushed early on
  shard boundaries); the supervisor itself keeps only shard bookkeeping and the
  ``exec.*`` counters.
* **One golden cache** — when resume is enabled the golden activation
  prefix is recorded once in the parent before the pool forks; every
  worker adopts its inherited copy-on-write view and only reads it, so the
  pool replays the parent's physical pages.
* **Per-worker BLAS pinning** — each worker caps the OpenBLAS pool that
  numpy loaded at ``cpus // workers`` threads (floor 1; ``cpus`` is the
  size of its affinity mask) through the library's own
  ``set_num_threads``, called with :mod:`ctypes`
  (:func:`repro.exec.worker.limit_blas_threads`), so an N-worker pool does
  not run N parent-wide pools on the same cores; the supervisor's own
  pool is left as it is.  The worker's ``ready`` message carries the
  count read back from the library; the supervisor sets the
  ``exec.blas_threads`` gauge from it and writes one
  ``exec.worker_ready`` trace event per worker.  A BLAS it cannot reach
  (no ``/proc``, or no OpenBLAS entry point) keeps its own pool, sets no
  gauge and shows ``blas_threads: null`` in the event.
* **Timeout → retry → quarantine** — a shard attempt that exceeds
  ``shard_timeout`` gets its worker killed (and replaced); the shard is
  retried with exponential backoff up to :data:`MAX_RETRIES` times and then
  **quarantined**: recorded in the result, the campaign degrades
  gracefully instead of hanging or dying.
* **Worker supervision** — shards are *assigned* supervisor-side to
  specific workers over per-worker task queues, so the worker→shard
  association never depends on a message from a worker that may already
  be dead.  Results come back the same way, one pipe per worker
  multiplexed with :func:`multiprocessing.connection.wait`: a worker that
  dies mid-message (``os._exit``, OOM, SIGKILL) leaves at most a torn
  frame on its *own* pipe, which reads as end-of-file, and can never wedge
  a lock the rest of the pool writes through.  A dead worker is detected
  via its exit code; the complete messages it sent are accepted, its
  orphaned shard is shrunk to the seqs it had not yet streamed back and
  reassigned to the surviving pool, and a replacement worker is spawned to
  keep the pool at strength.
* **Signal-safe shutdown** — SIGINT/SIGTERM set a stop flag; the
  supervisor flushes + fsyncs the journal, terminates the pool and
  returns a partial result marked ``interrupted`` that a later run can
  resume from.

Supervision telemetry is parent-side: ``exec.shards_total``,
``exec.shard_retries_total``, ``exec.shard_timeouts_total``,
``exec.shards_quarantined_total``, ``exec.worker_deaths_total``,
``exec.heartbeats_total``, the ``exec.workers`` and ``exec.blas_threads``
gauges and the ``exec.shard_seconds`` histogram, plus one
``exec.worker_ready`` trace event per started worker, one ``exec.shard``
event per settled shard and one ``exec.quarantine`` event per abandoned
one.
Worker-side observability is **streamed, not lost**: each shard attempt
sends a ``telemetry`` message carrying its metric
:meth:`~repro.obs.telemetry.RunScope` delta and buffered trace events,
which :meth:`CampaignSupervisor._merge_worker_telemetry` folds into the
parent registry/tracer with ``worker_id`` tags
(``exec.telemetry_merges_total`` counts the merges) — so a parallel
campaign's registry and JSONL trace match a serial run's.  Every worker
count travels this way, the ``resume.*`` cache counts included; a
worker's ``exit`` message only marks a clean exit.
"""

from __future__ import annotations

import logging
import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as wait_readable
from typing import Callable

from ..obs.telemetry import get_registry, merge_metric_delta
from ..obs.tracing import current_span_id, get_tracer
from .shard import Shard, plan_shards
from .worker import WorkerPayload, worker_main

__all__ = ["ExecConfig", "ParallelOutcome", "CampaignSupervisor",
           "WorkerPool", "run_parallel_campaign"]

logger = logging.getLogger("repro.exec")


#: re-dispatches allowed after a shard's first failed attempt; a shard
#: that exhausts them is quarantined (``CampaignResult.quarantined``)
#: instead of failing the campaign
MAX_RETRIES = 2
#: exponential-backoff base delay between retries (seconds)
BACKOFF_BASE = 0.25
#: backoff ceiling between shard retries (seconds)
BACKOFF_CAP = 4.0
#: result-channel poll granularity (also bounds signal-response latency)
POLL_INTERVAL = 0.05
#: grace period for workers to drain the sentinel at clean shutdown
SHUTDOWN_GRACE = 10.0


@dataclass
class ExecConfig:
    """How a campaign runs: executor knobs and test hooks.

    No field changes what a completed campaign computes — serial,
    parallel, fault-batched and resumed runs of one
    :class:`~repro.core.campaign.CampaignSpec` are bit-identical — so none
    enters the journal fingerprint.
    """

    #: worker-pool size; values < 2 run the serial path in-process
    workers: int = 1
    #: wall-clock budget for one shard attempt (None = unbounded)
    shard_timeout: float | None = None
    #: emulated device latency per fault-batch chunk in seconds, honoured
    #: identically by the serial and parallel paths (bench/test knob; the
    #: executor-scaling bench uses it to measure orchestration overhead
    #: independently of host core count)
    injection_latency: float = 0.0
    #: independent faults evaluated per forward pass (fault-axis batching,
    #: K).  None resolves K per layer from the bytes one lane materialises
    #: (:func:`repro.core.campaign.lane_count`): ``LANE_BYTES //`` the
    #: recorded outputs from the layer on (plus its input when it
    #: recomputes) in a chain recording, or the images plus the whole
    #: golden recording in any other, capped at the layer's plan count,
    #: and 1 for weight plans or without a recording; a range detector
    #: lowers it, observers (a profiler, a numerics monitor) do not change
    #: it.  An int >= 1 is used as given; 1 is the classic
    #: one-injection-per-forward loop.  Per-plan records, seq ordering and
    #: telemetry stay bit-identical to K=1 — only wall-clock and serial
    #: journal framing (one line per chunk) change.
    #: ``telemetry["fault_batch"]`` records the largest K over layers
    fault_batch: int | None = None
    #: checkpoint-and-resume: capture the golden pass once and replay each
    #: injection from its victim layer over the cached prefix, instead of
    #: re-running the whole network (see :mod:`repro.core.resume`)
    resume: bool = True
    #: test hook, runs **in the worker** before each shard attempt:
    #: ``worker_fault(worker_id, shard, attempt)`` — hang/crash/raise here
    #: to exercise timeouts, retries, quarantine and death supervision
    worker_fault: Callable | None = None
    #: test hook, runs **in the parent** after each accepted record:
    #: ``on_record(total_records)`` — e.g. deliver a signal mid-campaign
    on_record: Callable | None = None

    def __post_init__(self):
        if self.fault_batch is not None and self.fault_batch < 1:
            raise ValueError(
                f"fault_batch must be None (automatic) or >= 1, got "
                f"{self.fault_batch}")


@dataclass
class ParallelOutcome:
    """What the supervisor hands back to ``run_campaign`` (the records
    themselves are in the campaign's sink)."""

    quarantined: list[dict] = field(default_factory=list)
    interrupted: bool = False


@dataclass
class _ShardState:
    shard: Shard
    pending: set[int]
    attempts: int = 0
    status: str = "queued"  # queued | inflight | deferred | done | quarantined


class WorkerPool:
    """The persistent fork pool behind one campaign.

    Spawned once, before the first shard is dispatched, and kept alive
    across every layer, shard and retry of the campaign — respawning per
    shard (or per layer) would re-pay fork plus cache adoption on every
    dispatch.  Membership changes only when the supervisor kills a
    timed-out worker or replaces a dead one; the replacement forks from
    the same payload with a task queue and result pipe of its own.
    """

    def __init__(self, ctx, payload: WorkerPayload, registry):
        self._ctx = ctx
        self.payload = payload
        self._registry = registry
        self.processes: dict[int, multiprocessing.Process] = {}
        #: per-worker task queues: assignment is supervisor-side so the
        #: worker -> shard mapping survives a worker that dies silently
        self.task_queues: dict[int, object] = {}
        #: read ends of the per-worker result pipes (a channel leaves this
        #: map at end-of-file or when its worker is killed)
        self.channels: dict[int, object] = {}
        self.worker_shard: dict[int, int | None] = {}
        self.idle: set[int] = set()
        self.clean_exits: set[int] = set()
        self._next_worker_id = 0

    def __len__(self) -> int:
        return len(self.processes)

    def spawn(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.payload, task_queue, writer),
            daemon=True, name=f"repro-exec-worker-{worker_id}")
        process.start()
        # the worker now holds the only write end: its death is end-of-file
        # (later forks must not inherit a copy that would keep it open)
        writer.close()
        self.processes[worker_id] = process
        self.task_queues[worker_id] = task_queue
        self.channels[worker_id] = reader
        self.worker_shard[worker_id] = None
        self.idle.add(worker_id)
        self._registry.gauge("exec.workers",
                             help="live campaign workers"
                             ).set(float(len(self.processes)))
        return worker_id

    def send(self, worker_id: int, task) -> None:
        self.task_queues[worker_id].put(task)

    def release(self, worker_id: int, shard_id: int | None) -> None:
        """Mark a live worker idle again after it reported done/error."""
        if worker_id not in self.processes:
            return  # already killed / reaped
        if shard_id is None or self.worker_shard.get(worker_id) == shard_id:
            self.worker_shard[worker_id] = None
            self.idle.add(worker_id)

    def receive(self, timeout: float) -> list:
        """Messages from every channel that turns readable within ``timeout``.

        A channel at end-of-file (its worker exited or died, possibly
        mid-message) is dropped; the worker itself is left to the
        supervisor's death check.
        """
        owner = {id(conn): wid for wid, conn in self.channels.items()}
        if not owner:
            time.sleep(timeout)
            return []
        messages = []
        for conn in wait_readable(list(self.channels.values()), timeout):
            messages.extend(self._read(owner[id(conn)]))
        return messages

    def _read(self, worker_id: int) -> list:
        """Every complete message already sent on ``worker_id``'s channel."""
        conn = self.channels.get(worker_id)
        messages = []
        try:
            while conn is not None and conn.poll():
                messages.append(conn.recv())
        except (EOFError, OSError):
            # clean end of stream, or a frame torn by the writer's death
            self.channels.pop(worker_id, None)
            conn.close()
        return messages

    def kill(self, worker_id: int) -> list:
        """Stop a worker; return the complete messages it left unread."""
        process = self.processes.pop(worker_id, None)
        self.worker_shard.pop(worker_id, None)
        self.idle.discard(worker_id)
        task_queue = self.task_queues.pop(worker_id, None)
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(timeout=2.0)
        # the writer is dead, so reading cannot block: whatever was fully
        # sent is returned, a torn last frame reads as end-of-file
        left = self._read(worker_id)
        channel = self.channels.pop(worker_id, None)
        if channel is not None:
            channel.close()
        if task_queue is not None:
            try:
                task_queue.close()
                task_queue.join_thread()
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        self._registry.gauge("exec.workers").set(float(len(self.processes)))
        return left

    def close(self) -> None:
        for worker_id in list(self.processes):
            self.kill(worker_id)


class CampaignSupervisor:
    """Drives one parallel campaign over a pool of forked workers."""

    def __init__(self, payload: WorkerPayload, shards: list[Shard], sink):
        self.payload = payload
        self.config = payload.config
        #: the campaign's RecordSink: accepts every worker batch (journal,
        #: store, telemetry, progress); its progress tracker also gets a
        #: heartbeat per worker message for /healthz
        self.sink = sink
        self.quarantined: list[dict] = []
        self._states = {s.shard_id: _ShardState(shard=s, pending=set(s.seqs))
                        for s in shards}
        #: shard_id -> (worker_id, deadline | None, attempt)
        self._inflight: dict[int, tuple[int, float | None, int]] = {}
        #: shard ids awaiting an idle worker (FIFO, deterministic)
        self._backlog: list[int] = []
        #: retry-delayed shards: (due_monotonic, shard_id)
        self._deferred: list[tuple[float, int]] = []
        self._shard_started: dict[int, float] = {}
        self._stop = False
        self._stop_reason = ""
        self._ctx = multiprocessing.get_context("fork")
        self._registry = get_registry()
        self._tracer = get_tracer()
        self._pool = WorkerPool(self._ctx, payload, self._registry)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> ParallelOutcome:
        registry = self._registry
        total_shards = len(self._states)
        registry.counter("exec.shards_total",
                         help="shards planned for parallel campaigns"
                         ).inc(total_shards)
        if total_shards == 0:
            return self._outcome()
        pool_size = min(self.config.workers, total_shards)
        previous_handlers = self._install_signal_handlers()
        try:
            # the pool is spawned exactly once and persists for the whole
            # campaign — every layer's shards reuse the same processes
            for _ in range(pool_size):
                self._pool.spawn()
            for shard_id in sorted(self._states):
                self._dispatch(self._states[shard_id])
            self._supervise()
            self._shutdown()
        finally:
            self._restore_signal_handlers(previous_handlers)
            self._pool.close()
            registry.gauge("exec.workers",
                           help="live campaign workers").set(0)
        return self._outcome()

    def _outcome(self) -> ParallelOutcome:
        return ParallelOutcome(quarantined=self.quarantined,
                               interrupted=self._stop)

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None  # signal API is main-thread only
        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, self._handle_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if not previous:
            return
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _handle_signal(self, signum, frame) -> None:
        self.request_stop(f"signal {signal.Signals(signum).name}")

    def request_stop(self, reason: str) -> None:
        """Stop the campaign at the next loop turn (signal-handler safe)."""
        self._stop = True
        self._stop_reason = reason

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop and self._unsettled():
            now = time.monotonic()
            self._promote_deferred(now)
            for message in self._pool.receive(POLL_INTERVAL):
                self._handle_message(message)
            now = time.monotonic()
            self._check_timeouts(now)
            self._check_worker_deaths()
            self._pump()
        if self._stop:
            logger.warning("campaign executor stopping early: %s "
                           "(journal flushed; result is partial but "
                           "resumable)", self._stop_reason)

    def _unsettled(self) -> bool:
        return any(s.status not in ("done", "quarantined")
                   for s in self._states.values())

    def _handle_message(self, message) -> None:
        mtype, worker_id, body, _ts = message
        self._registry.counter(
            "exec.heartbeats_total",
            help="worker liveness messages observed by the supervisor").inc()
        if self.sink.progress is not None:
            self.sink.progress.heartbeat(worker_id)
        if mtype == "records":
            shard_id, _attempt, records = body
            self._accept_records(shard_id, records)
        elif mtype == "ready":
            if body.get("blas_threads") is not None:
                self._registry.gauge(
                    "exec.blas_threads",
                    help="BLAS threads per worker, read back from the "
                         "loaded library").set(float(body["blas_threads"]))
            if self._tracer.enabled:
                self._tracer.event("exec.worker_ready", worker_id=worker_id,
                                   **body)
        elif mtype == "start":
            shard_id, attempt = body
            entry = self._inflight.get(shard_id)
            if entry is not None and entry[0] == worker_id \
                    and entry[2] == attempt:
                # re-arm the deadline now that queue wait is over
                self._shard_started[shard_id] = time.monotonic()
                if self.config.shard_timeout is not None:
                    deadline = time.monotonic() + self.config.shard_timeout
                    self._inflight[shard_id] = (worker_id, deadline, attempt)
        elif mtype == "done":
            shard_id, attempt = body
            self._finish_shard(shard_id, attempt, worker_id)
        elif mtype == "error":
            shard_id, attempt, error = body
            self._pool.release(worker_id, shard_id)
            entry = self._inflight.get(shard_id)
            if entry is not None and entry[2] == attempt:
                self._inflight.pop(shard_id, None)
                self._fail_shard(shard_id, f"worker error: {error}")
        elif mtype == "telemetry":
            self._merge_worker_telemetry(worker_id, body)
        elif mtype == "exit":
            self._pool.clean_exits.add(worker_id)

    def _merge_worker_telemetry(self, worker_id: int, body: dict) -> None:
        """Adopt one shard attempt's observability payload.

        Metric deltas fold into the parent registry (counters add,
        histograms merge bucket-wise, worker gauges get a ``worker`` label
        so they never clobber parent state); buffered trace events are
        replayed into the parent sink tagged with the producing worker —
        the merged JSONL trace of a parallel campaign therefore carries the
        same worker-side events a serial run would have written directly.
        """
        metrics = body.get("metrics")
        if metrics:
            merge_metric_delta(metrics, self._registry, worker=worker_id)
        events = body.get("events") or ()
        if events and self._tracer.enabled:
            for event in events:
                tagged = dict(event)
                tagged["worker_id"] = worker_id
                self._tracer.emit_foreign(tagged)
        self._registry.counter(
            "exec.telemetry_merges_total",
            help="worker shard-attempt telemetry payloads merged").inc()

    def _accept_records(self, shard_id: int, records) -> None:
        """Hand one worker batch to the sink, then settle shard bookkeeping.

        The sink journals the batch's unseen records (stragglers from a
        killed attempt that raced its retry are skipped) as one framed line
        *before* any of them reaches aggregation.
        """
        self.sink.accept(records)
        self._registry.counter(
            "exec.record_batches_total",
            help="worker record batches accepted by the supervisor").inc()
        self._registry.histogram(
            "exec.batch_size",
            help="records per accepted worker batch").observe(len(records))
        state = self._states.get(shard_id)
        if state is not None:
            for record in records:
                state.pending.discard(record["seq"])
            if not state.pending and state.status == "deferred":
                # a straggler batch from a killed attempt completed the
                # shard before its retry fired: cancel the retry
                self._settle(state, via="straggler")
        if self.config.on_record is not None:
            for _ in records:
                self.config.on_record(len(self.sink.records))

    def _finish_shard(self, shard_id: int, attempt: int, worker_id: int) -> None:
        self._pool.release(worker_id, shard_id)
        state = self._states.get(shard_id)
        if state is None or state.status in ("done", "quarantined"):
            return
        entry = self._inflight.get(shard_id)
        current = entry is not None and entry[2] == attempt
        if current:
            self._inflight.pop(shard_id, None)
        elif state.pending:
            return  # stale completion that did not actually cover the work
        if state.pending:
            # records were lost in flight (should not happen with an intact
            # queue); re-dispatch the remainder without burning a retry
            logger.warning("shard %d finished with %d seq(s) unaccounted; "
                           "re-dispatching", shard_id, len(state.pending))
            self._dispatch(state, count_attempt=False)
            return
        self._settle(state, via="done")

    def _settle(self, state: _ShardState, via: str) -> None:
        state.status = "done"
        self._inflight.pop(state.shard.shard_id, None)
        self._deferred = [(due, sid) for due, sid in self._deferred
                          if sid != state.shard.shard_id]
        started = self._shard_started.get(state.shard.shard_id)
        dur = (time.monotonic() - started) if started is not None else 0.0
        self._registry.histogram(
            "exec.shard_seconds",
            help="wall-clock per completed shard attempt").observe(dur)
        if self._tracer.enabled:
            self._tracer.event("exec.shard", shard_id=state.shard.shard_id,
                               layer=state.shard.layer,
                               seqs=len(state.shard.seqs),
                               attempts=state.attempts, via=via, dur_s=dur)

    # ------------------------------------------------------------------
    # dispatch / assignment / retry / quarantine
    # ------------------------------------------------------------------
    def _dispatch(self, state: _ShardState, count_attempt: bool = True) -> None:
        """Queue a shard (or its remainder) for assignment to a worker."""
        if count_attempt:
            state.attempts += 1
        state.status = "queued"
        if state.shard.shard_id not in self._backlog:
            self._backlog.append(state.shard.shard_id)

    def _pump(self) -> None:
        """Assign backlogged shards to idle workers (lowest id first)."""
        while self._backlog and self._pool.idle:
            shard_id = self._backlog.pop(0)
            state = self._states[shard_id]
            if state.status != "queued":
                continue
            worker_id = min(self._pool.idle)
            self._assign(state, worker_id)

    def _assign(self, state: _ShardState, worker_id: int) -> None:
        shard_id = state.shard.shard_id
        remaining = state.shard.without(set(state.shard.seqs) - state.pending)
        state.status = "inflight"
        self._pool.idle.discard(worker_id)
        self._pool.worker_shard[worker_id] = shard_id
        # the deadline is armed immediately: it is re-armed (excluding queue
        # wait) when the worker reports "start", but must exist even if the
        # worker never manages to send that message
        deadline = (time.monotonic() + self.config.shard_timeout
                    if self.config.shard_timeout is not None else None)
        self._inflight[shard_id] = (worker_id, deadline, state.attempts)
        self._shard_started.setdefault(shard_id, time.monotonic())
        self._pool.send(worker_id, (remaining, state.attempts))

    def _promote_deferred(self, now: float) -> None:
        due = [sid for when, sid in self._deferred if when <= now]
        if not due:
            return
        self._deferred = [(when, sid) for when, sid in self._deferred
                          if when > now]
        for sid in due:
            state = self._states[sid]
            if state.status == "deferred":
                self._dispatch(state)

    def _fail_shard(self, shard_id: int, reason: str) -> None:
        state = self._states.get(shard_id)
        if state is None or state.status in ("done", "quarantined"):
            return
        if not state.pending:
            self._settle(state, via="failed-but-complete")
            return
        if state.attempts > MAX_RETRIES:
            self._quarantine(state, reason)
            return
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (state.attempts - 1)))
        state.status = "deferred"
        self._deferred.append((time.monotonic() + delay, shard_id))
        self._registry.counter(
            "exec.shard_retries_total",
            help="shard re-dispatches after a failed attempt").inc()
        logger.warning("shard %d (%s, %d seq(s) left) failed: %s — retry "
                       "%d/%d in %.2fs", shard_id, state.shard.layer,
                       len(state.pending), reason, state.attempts,
                       MAX_RETRIES, delay)

    def _quarantine(self, state: _ShardState, reason: str) -> None:
        state.status = "quarantined"
        self._inflight.pop(state.shard.shard_id, None)
        info = {
            "shard_id": state.shard.shard_id,
            "layer": state.shard.layer,
            "seqs": sorted(state.pending),
            "attempts": state.attempts,
            "reason": reason,
        }
        self.quarantined.append(info)
        if self.sink.journal is not None:
            self.sink.journal.append_quarantine(info)
        self._registry.counter(
            "exec.shards_quarantined_total",
            help="shards abandoned after exhausting their retry budget").inc()
        if self._tracer.enabled:
            self._tracer.event("exec.quarantine", **info)
        logger.error("shard %d (%s) quarantined after %d attempts: %s — "
                     "campaign continues without its %d injection(s)",
                     state.shard.shard_id, state.shard.layer, state.attempts,
                     reason, len(state.pending))

    # ------------------------------------------------------------------
    # worker pool supervision
    # ------------------------------------------------------------------
    def _check_timeouts(self, now: float) -> None:
        if self.config.shard_timeout is None:
            return
        for shard_id, (worker_id, deadline, _attempt) in \
                list(self._inflight.items()):
            if deadline is None or now <= deadline:
                continue
            self._inflight.pop(shard_id, None)
            self._registry.counter(
                "exec.shard_timeouts_total",
                help="shard attempts killed for exceeding the timeout").inc()
            logger.warning("shard %d exceeded its %.2fs timeout; killing "
                           "worker %d", shard_id, self.config.shard_timeout,
                           worker_id)
            self._retire(worker_id)
            if self._unsettled() and not self._stop:
                self._pool.spawn()
            self._fail_shard(shard_id, "timeout")

    def _check_worker_deaths(self) -> None:
        for worker_id, process in list(self._pool.processes.items()):
            if process.is_alive() or worker_id in self._pool.clean_exits:
                continue
            exitcode = process.exitcode
            shard_id = self._pool.worker_shard.get(worker_id)
            self._retire(worker_id)
            self._registry.counter(
                "exec.worker_deaths_total",
                help="workers that died without a clean exit").inc()
            logger.warning("worker %d died (exit code %s)%s", worker_id,
                           exitcode,
                           f" while running shard {shard_id}"
                           if shard_id is not None else "")
            if shard_id is not None and shard_id in self._inflight:
                self._inflight.pop(shard_id, None)
                self._fail_shard(shard_id,
                                 f"worker died (exit code {exitcode})")
            if self._unsettled() and not self._stop:
                self._pool.spawn()

    def _retire(self, worker_id: int) -> None:
        """Kill a worker, then accept every complete message it sent.

        Records it streamed before dying are journaled instead of being
        re-executed, and a ``done`` that beat the death settles its shard.
        """
        for message in self._pool.kill(worker_id):
            self._handle_message(message)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        if self.sink.journal is not None:
            self.sink.journal.flush(fsync=True)
        if self._stop:
            # interrupted: the journal holds everything completed; workers
            # may be mid-injection — terminate, do not wait
            self._pool.close()
            return
        live = [wid for wid, proc in self._pool.processes.items()
                if proc.is_alive() and wid not in self._pool.clean_exits]
        for worker_id in live:
            self._pool.send(worker_id, None)
        deadline = time.monotonic() + SHUTDOWN_GRACE
        pending = set(live)
        while pending and time.monotonic() < deadline:
            for message in self._pool.receive(0.1):
                self._handle_message(message)
            # a worker is done once it said so or its channel hit EOF
            pending = {wid for wid in pending - self._pool.clean_exits
                       if wid in self._pool.channels}
        self._pool.close()


def run_parallel_campaign(payload: WorkerPayload, sampling: dict,
                          sink) -> ParallelOutcome:
    """Execute the plans ``sink`` does not hold yet on a supervised pool.

    ``payload`` carries the campaign's execution inputs and its
    :class:`ExecConfig` (the serial path runs the same payload in-process);
    ``sampling`` maps each target layer to its
    :class:`~repro.core.campaign.LayerPlan`, in campaign order.
    Records already in ``sink`` (e.g. prefilled from a write-ahead journal)
    are never dispatched.  Falls back to the serial executor — with
    identical results — on platforms without the ``fork`` start method.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        logger.warning("multiprocessing 'fork' start method unavailable; "
                       "running the campaign serially")
        from ..core.campaign import _run_serial
        _run_serial(payload, sampling, sink)
        return ParallelOutcome()
    shards = plan_shards(sampling, completed=set(sink.records),
                         workers=payload.config.workers)
    payload = replace(payload, trace_parent=current_span_id())
    return CampaignSupervisor(payload, shards, sink).run()
