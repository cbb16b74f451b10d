"""The campaign worker process: executes shards, streams record batches back.

Workers are created with the ``fork`` start method *after* the parent has
attached the platform, captured the golden pass and sampled every plan —
so each worker inherits a private copy-on-write copy of the whole
campaign state (model, hooks, plan lists) and nothing heavyweight ever
crosses a pipe.  When the supervisor published the golden activation cache
to shared memory (:mod:`repro.exec.shmcache`), the worker adopts *that*
instead of its inherited private copy — every worker then replays the same
physical pages read-only (:meth:`repro.core.resume.ResumeSession.adopt_shared`),
so the golden prefix is computed once per campaign, not once per worker.

At startup each worker **pins its BLAS/OpenMP thread budget** to
``payload.blas_threads`` (the supervisor computes ``cores // workers``,
floor 1): N workers each spinning a full-width BLAS pool oversubscribe the
machine into anti-scaling, which is exactly what the pre-batching executor
measured (0.82x at 4 workers).

Protocol (messages on the worker's own result pipe, all ``(type, worker_id,
payload, timestamp)`` tuples, written synchronously by the worker's main
thread — no feeder thread, no lock shared with other workers):

* ``("ready", wid, {"pid", "shm_adopted"}, t)`` — worker is up and adopted
  the (shared or private) resume cache;
* ``("start", wid, (shard_id, attempt), t)`` — shard attempt began;
* ``("records", wid, (shard_id, attempt, (record, ...)), t)`` — a **batch**
  of completed injections.  Batches are flushed when they reach
  ``payload.batch_records`` and always on the shard boundary (and before an
  ``error`` report, so partial progress survives a failing shard).  Batching
  replaces the one-message-per-record protocol whose per-record IPC
  dominated small campaigns; liveness is carried by the
  start/records/done cadence plus the supervisor's shard timeout;
* ``("done", wid, (shard_id, attempt), t)`` — shard attempt finished;
* ``("error", wid, (shard_id, attempt, message), t)`` — shard attempt
  raised; the worker survives and awaits its next task;
* ``("telemetry", wid, {shard_id, attempt, metrics, events}, t)`` — the
  shard attempt's observability payload: a serialized
  :meth:`~repro.obs.telemetry.RunScope.delta` of every metric the attempt
  contributed and the attempt's buffered trace events, folded into the
  parent registry/tracer tagged with this ``worker_id``;
* ``("exit", wid, resume_stats | None, t)`` — worker drained the sentinel
  and is shutting down cleanly (carries its activation-cache counters and
  releases its shared-cache reference).

A worker that stops producing messages mid-shard is caught by the shard
timeout, and one that dies outright is caught by ``Process.is_alive()``.
Every message a worker finished sending survives its death; a message cut
short reads as end-of-file on that worker's pipe alone.  A worker killed
mid-batch loses at most ``batch_records - 1`` un-flushed records — the
supervisor re-dispatches the shard remainder and the re-executed records
are bit-identical, so nothing observable changes.

SIGINT is ignored in workers: a Ctrl-C in the foreground is delivered to
the whole process group, and shutdown must be coordinated by the
supervisor (flush the journal first), not by workers dying mid-record.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["WorkerPayload", "worker_main", "limit_blas_threads"]

#: environment knobs honoured by every BLAS/OpenMP runtime we may meet
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class WorkerPayload:
    """Everything a forked worker needs (inherited, never pickled)."""

    platform: object
    golden: object
    images: object
    plans: dict  # layer -> list of injection plans, indexed by seq
    use_resume: bool
    #: records per result message (flushed early on shard boundaries)
    batch_records: int = 32
    #: BLAS/OMP thread budget per worker (None = leave the runtime alone)
    blas_threads: int | None = None
    #: shared-memory golden cache published by the supervisor (None = the
    #: worker keeps its fork-inherited private copy)
    shm_cache: object | None = None
    #: bench/test hook: emulated per-injection device latency (seconds);
    #: the serial executor honours the same knob so speedups stay apples
    #: to apples (see benchmarks/bench_parallel_campaign.py)
    injection_latency: float = 0.0
    #: independent faults evaluated per forward pass (fault-axis batching);
    #: records stay per-plan and bit-identical to the K=1 loop
    fault_batch: int = 1
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
    #: test hook: called as ``fault(worker_id, shard, attempt)`` before a
    #: shard attempt executes — tests use it to hang, crash (``os._exit``)
    #: or raise on chosen shards to exercise the supervision machinery
    fault: Callable | None = None


def limit_blas_threads(n: int) -> None:
    """Best-effort cap of this process's BLAS/OpenMP thread pools at ``n``.

    Environment variables cover runtimes that initialise lazily after the
    fork; for an OpenBLAS already loaded by numpy we additionally call its
    ``openblas_set_num_threads`` through ``threadpoolctl`` when available.
    Everything is advisory — a runtime we cannot reach simply keeps its
    defaults (correctness never depends on this, only scaling).
    """
    n = max(1, int(n))
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)
    try:  # optional dependency; the env vars above are the fallback
        import threadpoolctl
        threadpoolctl.threadpool_limits(limits=n)
    except Exception:  # noqa: BLE001 - advisory only
        pass


def worker_main(worker_id: int, payload: WorkerPayload,
                task_queue, results) -> None:
    """The worker loop: pull shards until the ``None`` sentinel arrives.

    ``results`` is the write end of this worker's result pipe.
    """
    # shutdown is the supervisor's job; a foreground Ctrl-C must not kill
    # workers mid-record (the supervisor terminates us after the journal
    # is flushed)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if payload.blas_threads is not None:
        limit_blas_threads(payload.blas_threads)

    from ..core.campaign import execute_injection_batch
    from ..obs.telemetry import get_registry
    from ..obs.tracing import BufferingTracer, get_tracer, seed_span_context, \
        set_tracer

    shm_adopted = False
    session = getattr(payload.platform, "resume_session", None)
    if session is not None:
        if payload.shm_cache is not None:
            # replay the parent's published golden prefix straight out of
            # shared memory: one physical copy for the whole pool, and any
            # accidental write path raises instead of silently diverging
            payload.shm_cache.acquire()
            session.adopt_shared(payload.shm_cache)
            shm_adopted = True
        else:
            # claim the forked copy of the activation cache: per-worker
            # stats start at zero so the supervisor can aggregate deltas
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
    batch_size = max(1, int(payload.batch_records))
    latency = float(payload.injection_latency or 0.0)

    results.send(("ready", worker_id,
                   {"pid": os.getpid(), "shm_adopted": shm_adopted},
                   time.time()))
    try:
        while True:
            task = task_queue.get()
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
                    if payload.fault is not None:
                        payload.fault(worker_id, shard, attempt)
                    plans = payload.plans[shard.layer]
                    if span is not None:
                        span.__enter__()
                    try:
                        seqs = list(shard.seqs)
                        chunk = max(1, int(payload.fault_batch))
                        for i in range(0, len(seqs), chunk):
                            group = seqs[i:i + chunk]
                            group_records = execute_injection_batch(
                                payload.platform, payload.golden,
                                payload.images,
                                [plans[seq] for seq in group],
                                payload.use_resume,
                                fault_spec=payload.fault_spec,
                                protection=payload.protection)
                            for seq, record in zip(group, group_records):
                                record["layer"] = shard.layer
                                record["seq"] = seq
                                batch.append(record)
                                if len(batch) >= batch_size:
                                    flush_batch()
                            # one device round-trip serviced the whole chunk
                            if latency > 0.0:
                                time.sleep(latency)
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
    finally:
        if shm_adopted:
            payload.shm_cache.release()
