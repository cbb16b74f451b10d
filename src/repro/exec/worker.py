"""The campaign worker process: executes shards, streams record batches back.

Workers are created with the ``fork`` start method *after* the parent has
attached the platform, captured the golden pass and sampled every plan —
so each worker inherits a private copy-on-write copy of the whole
campaign state (model, hooks, plan lists, the recorded golden activation
cache) and nothing heavyweight ever crosses a pipe.  The worker claims the
inherited cache with :meth:`repro.core.resume.ResumeSession.adopt` and only
reads it, so every worker replays the parent's physical pages: the golden
prefix is computed once per campaign, not once per worker.

At startup each worker **caps the BLAS pool numpy loaded** at
``cpus // workers`` threads (floor 1; ``cpus`` counts the CPUs this process
may run on): N workers each driving a BLAS pool as wide as the machine
oversubscribe its cores, and every worker phase slows (see
:func:`limit_blas_threads`).

Protocol (messages on the worker's own result pipe, all ``(type, worker_id,
payload, timestamp)`` tuples, written synchronously by the worker's main
thread — no feeder thread, no lock shared with other workers):

* ``("ready", wid, {"pid", "blas_threads"}, t)`` — worker is up, adopted
  the inherited resume cache and runs its BLAS at
  ``blas_threads`` threads (read back from the runtime; None when no
  runtime was reached);
* ``("start", wid, (shard_id, attempt), t)`` — shard attempt began;
* ``("records", wid, (shard_id, attempt, (record, ...)), t)`` — a **batch**
  of completed injections.  Batches are flushed when they reach
  :data:`BATCH_RECORDS` and always on the shard boundary (and before
  an ``error`` report, so partial progress survives a failing shard);
  liveness is carried by the start/records/done cadence plus the
  supervisor's shard timeout;
* ``("done", wid, (shard_id, attempt), t)`` — shard attempt finished;
* ``("error", wid, (shard_id, attempt, message), t)`` — shard attempt
  raised; the worker survives and awaits its next task;
* ``("telemetry", wid, {shard_id, attempt, metrics, events}, t)`` — the
  shard attempt's observability payload: a serialized
  :meth:`~repro.obs.telemetry.RunScope.delta` of every metric the attempt
  contributed and the attempt's buffered trace events, folded into the
  parent registry/tracer tagged with this ``worker_id``;
* ``("exit", wid, resume_stats | None, t)`` — worker drained the sentinel
  and is shutting down cleanly (carries its activation-cache counters).

A worker that stops producing messages mid-shard is caught by the shard
timeout, and one that dies outright is caught by ``Process.is_alive()``.
Every message a worker finished sending survives its death; a message cut
short reads as end-of-file on that worker's pipe alone.  A worker killed
mid-batch loses at most ``BATCH_RECORDS - 1`` un-flushed records — the
supervisor re-dispatches the shard remainder and the re-executed records
are bit-identical, so nothing observable changes.

SIGINT is ignored in workers: a Ctrl-C in the foreground is delivered to
the whole process group, and shutdown must be coordinated by the
supervisor (flush the journal first), not by workers dying mid-record.
An idle worker whose supervisor died without reaping it (SIGKILL, OOM)
notices within a second that it was re-parented and exits.
"""

from __future__ import annotations

import ctypes
import os
import queue
import signal
import time
from dataclasses import dataclass

__all__ = ["WorkerPayload", "worker_main", "limit_blas_threads"]

#: records per worker result message (and supervisor journal line);
#: batches are flushed early on shard boundaries and before error reports
BATCH_RECORDS = 32

#: OpenBLAS thread-count (setter, getter) pairs: numpy 2 wheels bundle
#: scipy-openblas, whose symbols carry a prefix and the ILP64 suffix; a
#: system OpenBLAS exports the plain names (with the suffix when ILP64)
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@dataclass
class WorkerPayload:
    """Everything an executor needs to run a campaign's plans.

    Forked workers inherit it (never pickled); the serial path runs the
    same :func:`repro.core.campaign.execute_chunks` loop over it
    in-process.
    """

    platform: object
    golden: object
    images: object
    plans: dict  # layer -> list of injection plans, indexed by seq
    #: how the campaign runs (a :class:`repro.exec.ExecConfig`)
    config: object
    #: layer -> plans per chunk, resolved once in the parent
    #: (:func:`repro.core.campaign.lane_count`)
    lanes: dict
    #: the campaign's fault-model spec, stamped into records when
    #: non-default (``"single"``/None leaves records byte-identical)
    fault_spec: str | None = None
    #: the campaign's ECC protection model (None = unprotected); verdicts
    #: are a pure function of the plan, so worker-side classification is
    #: bit-identical to the serial path
    protection: object | None = None
    #: the supervisor's active ``campaign.run`` span id: the worker seeds
    #: its span-context stack with it so every worker span parents into
    #: the campaign's trace tree (see :mod:`repro.obs.tracing`)
    trace_parent: str | None = None


def _mapped_blas_libraries() -> list[str]:
    """Files named like a BLAS library that are mapped into this process.

    Read from ``/proc/self/maps``; empty where that file does not exist.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "blas" in os.path.basename(p))


def _openblas_thread_calls() -> list[tuple]:
    """Thread controls of each loaded OpenBLAS.

    One ``(set_num_threads, get_num_threads, stop_helpers)`` per library;
    ``stop_helpers`` is its ``blas_thread_shutdown_``, or None where the
    library does not export one.
    """
    calls = []
    for path in _mapped_blas_libraries():
        try:  # RTLD_NOLOAD: a handle to the loaded copy, never a new load
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads = getattr(lib, setter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads = getattr(lib, getter)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                calls.append((set_threads, get_threads, stop))
                break
    return calls


def _blas_thread_budget(workers: int) -> int:
    """BLAS threads per worker: this process's CPUs split ``workers`` ways.

    The CPUs are those of the affinity mask where the platform has one (a
    cpuset-limited container sees the host's count in ``os.cpu_count()``,
    while OpenBLAS sizes its own pool from the mask); floor 1.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, cpus // max(1, workers))


def limit_blas_threads(n: int) -> int | None:
    """Cap the thread pool of every OpenBLAS this process loaded at ``n``.

    numpy's BLAS read its thread count from the environment when numpy was
    imported, so a forked process keeps its parent's pool until the count
    is set through the library itself: each OpenBLAS mapped into the
    process (``/proc/self/maps``) whose pool is wider than ``n`` gets its
    ``set_num_threads`` entry point called through :mod:`ctypes`, and the
    count is read back with the matching getter.  In a forked process the
    setter restarts OpenBLAS's helper threads, which spin for about 0.1 s
    each before they sleep, so they are stopped again right away through
    ``blas_thread_shutdown_`` (the call OpenBLAS's own fork handler makes);
    the library starts them on the first GEMM that uses more than one
    thread, which a pool capped at one never does.  Call it before any
    other thread of the process runs BLAS.

    Returns the largest count read back, or None when no runtime was
    reached (no ``/proc``, or a BLAS without these entry points, such as
    MKL or Accelerate); such a BLAS keeps its own pool.  GEMM results do
    not depend on the thread count, so correctness never depends on this,
    only speed.  A parallel campaign reports the returned count as the
    ``exec.blas_threads`` gauge.
    """
    n = max(1, int(n))
    counts = []
    for set_threads, get_threads, stop_helpers in _openblas_thread_calls():
        if get_threads() > n:
            set_threads(n)
            if stop_helpers is not None:
                stop_helpers()
        counts.append(get_threads())
    return max(counts, default=None)


def worker_main(worker_id: int, payload: WorkerPayload,
                task_queue, results) -> None:
    """The worker loop: pull shards until the ``None`` sentinel arrives.

    ``results`` is the write end of this worker's result pipe.
    """
    # shutdown is the supervisor's job; a foreground Ctrl-C must not kill
    # workers mid-record (the supervisor terminates us after the journal
    # is flushed)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    supervisor_pid = os.getppid()
    config = payload.config
    blas_threads = limit_blas_threads(_blas_thread_budget(config.workers))

    from ..core.campaign import execute_chunks
    from ..obs.telemetry import get_registry
    from ..obs.tracing import BufferingTracer, get_tracer, seed_span_context, \
        set_tracer

    session = getattr(payload.platform, "resume_session", None)
    if session is not None:
        # claim the forked copy of the activation cache: per-worker stats
        # start at zero so the supervisor can aggregate deltas
        session.adopt()

    # The forked copy of the parent's tracer shares the parent's buffered
    # file handle — writing through it would interleave bytes mid-line.
    # Replace it with an in-memory buffer whose events travel over the
    # result pipe instead; the parent replays them worker_id-tagged.
    buffer = None
    if get_tracer().enabled:
        buffer = BufferingTracer()
        set_tracer(buffer)
        # parent this worker's spans to the supervisor's campaign.run span
        # (the fork-inherited stack is replaced, not trusted: it reflects
        # whatever thread state the fork happened to copy)
        seed_span_context(payload.trace_parent)
    registry = get_registry()

    results.send(("ready", worker_id,
                   {"pid": os.getpid(), "blas_threads": blas_threads},
                   time.time()))
    while True:
        try:
            task = task_queue.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != supervisor_pid:
                return  # orphaned: the supervisor died without us
            continue
        if task is None:
            stats = session.stats.as_dict() if session is not None else None
            results.send(("exit", worker_id, stats, time.time()))
            return
        shard, attempt = task
        results.send(("start", worker_id, (shard.shard_id, attempt),
                       time.time()))
        failure = None
        batch: list[dict] = []

        def flush_batch():
            if batch:
                results.send(("records", worker_id,
                               (shard.shard_id, attempt, tuple(batch)),
                               time.time()))
                batch.clear()

        # every metric the attempt touches (injection flip counters,
        # numeric-health streams, span timings) is captured as a delta
        # and streamed back — worker registries die with the fork
        with registry.run_scope(
                f"w{worker_id}-s{shard.shard_id}-a{attempt}") as scope:
            try:
                span = (buffer.span("exec.worker_shard", attempt=attempt,
                                    **shard.summary())
                        if buffer is not None else None)
                if config.worker_fault is not None:
                    config.worker_fault(worker_id, shard, attempt)
                if span is not None:
                    span.__enter__()
                try:
                    for records in execute_chunks(payload, shard.layer,
                                                  shard.seqs):
                        for record in records:
                            batch.append(record)
                            if len(batch) >= BATCH_RECORDS:
                                flush_batch()
                finally:
                    if span is not None:
                        span.__exit__(None, None, None)
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                failure = f"{type(exc).__name__}: {exc}"
        # completed work always reaches the supervisor before the
        # attempt's outcome does — even when the attempt failed
        flush_batch()
        metrics = scope.delta()
        events = buffer.drain() if buffer is not None else []
        if metrics or events:
            results.send(("telemetry", worker_id,
                           {"shard_id": shard.shard_id,
                            "attempt": attempt,
                            "metrics": metrics, "events": events},
                           time.time()))
        if failure is not None:
            results.send(("error", worker_id,
                           (shard.shard_id, attempt, failure),
                           time.time()))
            continue
        results.send(("done", worker_id, (shard.shard_id, attempt),
                       time.time()))
