"""Differential campaign harness: one seeded campaign, run many ways.

The executor's contract is that *how* a campaign runs — serially, on a
2- or 4-worker pool, interrupted and journal-resumed — must never change *what* it computes.
This module runs the same seeded campaign under each execution mode with
a fresh metrics registry and a fresh JSONL tracer, and returns a
:class:`DifferentialOutcome` capturing the three surfaces the contract
covers:

* ``stats`` — the full per-layer statistical surface (bit-identity, not
  approximate equality);
* ``injections`` — the ``campaign.injection`` trace-event multiset
  (ordering-free: parallel events interleave, but the set of injections
  with their exact ΔLoss/mismatch/SDC floats must match);
* ``counters`` — deterministic counter totals (``injection.*`` bit-flip
  counters and ``campaign.injections_total``), summed across labels and
  stripped of ``worker`` tags.

:func:`surface_rows` extends the contract across *surfaces*: with
``run_mode(journal=True, serve=True, ledger=...)`` one run exposes the
same campaign through CampaignResult, the final ``/progress`` document,
``journal_progress`` on its journal, ``build_report`` on its trace and its
ledger row — and every one of them must report the same per-layer numbers,
bit for bit, because they all come from one fold.

For the ``resumed`` mode the campaign is interrupted mid-flight (a real
SIGINT delivered from the supervisor's ``on_record`` hook) and then
resumed from its write-ahead journal; the outcome combines both sub-runs
— journal-skipped records never re-emit events or counters, so the
*union* must equal a serial run exactly.  ``resumed`` counter totals
cover ``campaign.injections_total`` only: worker-side flip counters
stream per shard attempt, and an attempt killed by the interrupt can
have delivered a record batch whose telemetry message never arrived.
"""

from __future__ import annotations

import json
import os
import signal

from repro.core import GoldenEye, run_campaign
from repro.exec import ExecConfig

__all__ = ["MODES", "DifferentialOutcome", "layer_stats",
           "injection_multiset", "counter_totals", "run_mode",
           "surface_rows"]

#: every execution mode the harness can drive.  Every mode but the
#: ``default`` ones pins ``fault_batch``: 1, or N under a ``-kN`` suffix,
#: which runs the same campaign with fault-axis batching (K independent
#: neuron faults share one K-lane forward pass); the contract extends to
#: it — batched records must be bit-identical to the K=1 loop.
#: ``default`` is a serial run of ``ExecConfig()`` as shipped, whose lane
#: count is resolved per layer from the golden recording, and
#: ``parallel2-default`` the same on two workers.  Value and neuron
#: metadata plans both batch.
MODES = ("serial", "parallel2", "parallel4", "resumed", "serial-k4",
         "serial-k8", "parallel2-k4", "resumed-k4", "default",
         "parallel2-default")

#: counter families that are deterministic under every mode (numerics.*
#: conversion counts legitimately differ between resume and full re-run)
DETERMINISTIC_COUNTER_PREFIXES = ("injection.", "campaign.injections_total")


class DifferentialOutcome:
    """One mode's comparable surfaces (plus the raw result for asserts)."""

    def __init__(self, result, stats, injections, counters, progress=None,
                 events=None, metrics=None):
        self.result = result
        self.stats = stats
        self.injections = injections
        self.counters = counters
        #: the registry snapshot (``MetricsRegistry.collect()``) the mode's
        #: last campaign run left
        self.metrics = metrics
        #: the final ``progress/v1`` document fetched from a live ``/progress``
        #: endpoint (``run_mode(serve=True)``), or None
        self.progress = progress
        #: every trace event the mode's campaign run(s) wrote
        self.events = events


def layer_stats(result) -> dict:
    """The full per-layer statistical surface, for bit-identity checks."""
    return {
        name: (r.injections, r.delta_losses, r.mean_delta_loss,
               r.max_delta_loss, r.mismatch_rate, r.sdc_rate)
        for name, r in result.per_layer.items()
    }


def injection_multiset(events) -> list[tuple]:
    """Order-free multiset of ``campaign.injection`` events (exact floats)."""
    return sorted(
        (e["layer"], e["site"], tuple(e["bits"]), e["delta_loss"],
         e["mismatch_rate"], e.get("sdc_rate"))
        for e in events if e.get("name") == "campaign.injection")


def counter_totals(snapshot, prefixes=DETERMINISTIC_COUNTER_PREFIXES) -> dict:
    """Counter values by (name, labels); worker-tagged entries excluded."""
    out: dict = {}
    for name, entries in snapshot.items():
        if not any(name.startswith(p) for p in prefixes):
            continue
        for e in entries:
            if e["type"] != "counter" or "worker" in e["labels"]:
                continue
            key = (name, tuple(sorted(e["labels"].items())))
            out[key] = out.get(key, 0.0) + e["value"]
    return out


def _sum_counters(*totals: dict) -> dict:
    merged: dict = {}
    for t in totals:
        for key, value in t.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


class _InterruptAfter:
    """Parent-side hook: deliver a real SIGINT after N accepted records."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, total_records: int) -> None:
        if total_records >= self.n:
            os.kill(os.getpid(), signal.SIGINT)


def _traced_campaign(model, format_spec, data, trace_path,
                     **campaign_kwargs):
    """One campaign under a fresh registry + tracer; both restored after."""
    from repro.obs import NULL_TRACER, configure_tracing, reset_registry, \
        set_tracer
    registry = reset_registry()
    tracer = configure_tracing(str(trace_path), registry=registry)
    try:
        with GoldenEye(model, format_spec) as ge:
            result = run_campaign(ge, *data, **campaign_kwargs)
    finally:
        tracer.close()
        set_tracer(NULL_TRACER)
        reset_registry()
    with open(trace_path, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    return result, registry.collect(), events


def run_mode(mode: str, model, format_spec, data, tmp_path, *,
             injections_per_layer: int = 5, seed: int = 13,
             interrupt_after: int = 4, serve: bool = False,
             kind: str = "value", fault_model="single", protect="none",
             layers=None, ledger=None,
             journal: bool = False) -> DifferentialOutcome:
    """Run the seeded campaign under ``mode`` and bundle its surfaces.

    Every mode uses the same ``(format_spec, seed, injections_per_layer,
    data)`` identity — including the injection kind, fault model and
    protection (``kind="metadata"`` injects neuron metadata registers;
    ``fault_model`` / ``protect`` / ``layers`` extend the identity to the
    non-default injectors of :mod:`repro.core.faultmodels`) — so any
    observable difference between two returned outcomes is an executor
    bug, not a campaign difference.

    ``ledger`` (a path or open :class:`repro.obs.ledger.CampaignLedger`)
    is forwarded to every ``run_campaign`` call, so the parity tests can
    assert that each mode ledgers the same per-layer outcomes — for the
    ``resumed`` mode both the interrupted and the resuming run record
    (the resume updates the original row in place).

    ``serve=True`` additionally runs the campaign with a live observability
    server on an ephemeral port and captures the final schema-validated
    ``/progress`` document in :attr:`DifferentialOutcome.progress` — the
    harness owns the server's lifecycle so the endpoint is still answering
    *after* ``run_campaign`` returns (the sealed final state).

    ``journal=True`` gives the non-resumed modes a write-ahead journal of
    their own (``<label>.journal.jsonl`` under ``tmp_path``; the
    ``resumed`` mode always journals).
    """
    label, fault_batch = mode, 1
    if mode in ("default", "parallel2-default"):
        mode = "serial" if mode == "default" else "parallel2"
        fault_batch = None
    elif "-k" in mode:
        mode, _, k = mode.rpartition("-k")
        fault_batch = int(k)
    common = dict(kind=kind, location="neuron",
                  injections_per_layer=injections_per_layer, seed=seed,
                  fault_model=fault_model, protect=protect, layers=layers,
                  ledger=ledger)
    if fault_batch is not None:
        common["fault_batch"] = fault_batch
    if journal and mode != "resumed":
        common["journal"] = str(tmp_path / f"{label}.journal.jsonl")
    server = None
    if serve:
        from repro.obs.live import LiveServer
        server = LiveServer.start("127.0.0.1:0")
        common["serve"] = server
    try:
        if mode == "serial":
            result, metrics, events = _traced_campaign(
                model, format_spec, data, tmp_path / f"{label}.trace.jsonl",
                workers=1, **common)
        elif mode == "parallel2":
            result, metrics, events = _traced_campaign(
                model, format_spec, data, tmp_path / f"{label}.trace.jsonl",
                workers=2, **common)
        elif mode == "parallel4":
            result, metrics, events = _traced_campaign(
                model, format_spec, data, tmp_path / f"{label}.trace.jsonl",
                workers=4, **common)
        elif mode == "resumed":
            journal = str(tmp_path / "resumed.journal.jsonl")
            cfg = ExecConfig(workers=2, fault_batch=fault_batch,
                             on_record=_InterruptAfter(interrupt_after))
            partial, partial_metrics, partial_events = _traced_campaign(
                model, format_spec, data, tmp_path / "resumed.partial.jsonl",
                journal=journal, exec_config=cfg, **common)
            assert partial.interrupted, \
                "interrupt hook must leave the first run partial"
            result, resumed_metrics, resumed_events = _traced_campaign(
                model, format_spec, data, tmp_path / "resumed.final.jsonl",
                journal=journal, workers=2, **common)
            assert not result.interrupted
            assert result.telemetry["journal_skipped"] >= 1
            events = partial_events + resumed_events
            # see module docstring: only the parent-side acceptance counter
            # is exact across an interrupt boundary
            counters = _sum_counters(
                counter_totals(partial_metrics,
                               ("campaign.injections_total",)),
                counter_totals(resumed_metrics,
                               ("campaign.injections_total",)))
            return DifferentialOutcome(result, layer_stats(result),
                                       injection_multiset(events), counters,
                                       progress=_final_progress(server),
                                       events=events, metrics=resumed_metrics)
        else:
            raise ValueError(f"unknown differential mode {mode!r}")
        return DifferentialOutcome(result, layer_stats(result),
                                   injection_multiset(events),
                                   counter_totals(metrics),
                                   progress=_final_progress(server),
                                   events=events, metrics=metrics)
    finally:
        if server is not None:
            server.close()


def _final_progress(server) -> dict | None:
    """Fetch + validate the sealed /progress document, if a server ran."""
    if server is None:
        return None
    from repro.obs.live import fetch_progress
    return fetch_progress(server.url)


def surface_rows(outcome, ledger) -> dict[str, dict[str, dict]]:
    """Each reporting surface's per-layer numbers for one ``run_mode`` run.

    Returns ``surface -> layer -> {field: value}`` for the surfaces
    ``result`` (CampaignResult), ``progress`` (the final ``/progress``),
    ``journal`` (``journal_progress``), ``report`` (``build_report`` on
    the trace) and ``ledger`` (the run's ``run_layers`` rows; ``ledger``
    is the ledger path the run recorded into).  Fields share one name
    across surfaces — ``injections``, ``mean_delta_loss``,
    ``max_delta_loss``, ``mismatch_rate``, ``sdc_rate`` and ``sdc_ci95``
    — and each surface carries the subset it reports.  The run needs
    ``serve=True``, ``journal=True`` and a ``ledger``.
    """
    from repro.obs.ledger import CampaignLedger
    from repro.obs.live import journal_progress
    from repro.obs.report import build_report

    def progress_rows(doc):
        return {layer: {"injections": entry["done"],
                        "sdc_rate": entry["sdc_rate"],
                        "sdc_ci95": tuple(entry["sdc_ci95"])}
                for layer, entry in doc["layers"].items()}

    fold_fields = ("injections", "mean_delta_loss", "max_delta_loss",
                   "mismatch_rate", "sdc_rate")
    result = outcome.result
    report = build_report(events=outcome.events)
    with CampaignLedger(ledger) as db:
        run = db.get_run(result.ledger_run_id)
    return {
        "result": {layer: {f: getattr(r, f) for f in fold_fields}
                   for layer, r in result.per_layer.items()},
        "progress": progress_rows(outcome.progress),
        "journal": progress_rows(journal_progress(result.journal_path)),
        "report": {row["layer"]: {f: row[f] for f in fold_fields}
                   for row in report["layers"]},
        "ledger": {row["layer"]: dict(
            {f: row[f] for f in fold_fields},
            sdc_ci95=(row["sdc_lo"], row["sdc_hi"]))
            for row in run["layers_detail"]},
    }
