"""Tests for the crash-safe parallel campaign executor (repro.exec).

Covers the four robustness guarantees of ``run_campaign(..., workers=N)``:

* parallel shard execution is **bit-identical** to serial execution;
* the write-ahead journal makes an interrupted campaign **resumable** with
  an aggregate identical to an uninterrupted run;
* a shard that keeps timing out is retried and then **quarantined** while
  the rest of the campaign completes;
* a worker that dies mid-shard is detected and its outstanding work is
  **reassigned** without losing streamed-back records.

The multiprocessing scenarios use the ``fork`` start method (skipped where
unavailable) and the supervisor's test hooks: ``worker_fault`` runs inside
workers (crash / hang on selected shards) and ``on_record`` runs in the
parent (deliver a real SIGINT mid-campaign).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import struct
import time

import numpy as np
import pytest

from repro.core import CampaignError, CampaignSpec, GoldenEye, run_campaign
from repro.exec import (
    CampaignJournal,
    ExecConfig,
    JournalMismatch,
    Shard,
    plan_shards,
)
from repro.exec import supervisor as supervisor_mod
from repro.exec import worker as worker_mod
from repro.exec.journal import load_journal
from repro.models import simple_mlp

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method")


@pytest.fixture
def model():
    m = simple_mlp(num_classes=4)
    m.eval()
    return m


@pytest.fixture
def data(rng):
    return (rng.standard_normal((6, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 4, size=6))


def layer_stats(result):
    """The full per-layer statistical surface, for bit-identity checks."""
    return {
        name: (r.injections, r.delta_losses, r.mean_delta_loss,
               r.max_delta_loss, r.mismatch_rate, r.sdc_rate)
        for name, r in result.per_layer.items()
    }


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class FakeLayerPlan:
    def __init__(self, n):
        self.plans = list(range(n))


class TestShards:
    def test_without_drops_done_seqs(self):
        shard = Shard(shard_id=0, layer="fc1", seqs=(0, 1, 2, 3))
        assert shard.without({1, 3}).seqs == (0, 2)
        assert len(shard.without(set())) == 4

    def test_plan_shards_cover_all_seqs_exactly_once(self):
        plans = {"a": FakeLayerPlan(7), "b": FakeLayerPlan(3)}
        shards = plan_shards(plans, chunk_size=2)
        seen = [(s.layer, q) for s in shards for q in s.seqs]
        expected = [("a", i) for i in range(7)] + [("b", i) for i in range(3)]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_plan_shards_never_mix_layers(self):
        plans = {"a": FakeLayerPlan(5), "b": FakeLayerPlan(5)}
        for shard in plan_shards(plans, chunk_size=3):
            assert len({shard.layer}) == 1

    def test_completed_seqs_are_excluded(self):
        plans = {"a": FakeLayerPlan(4)}
        shards = plan_shards(plans, completed={("a", 0), ("a", 2)},
                             chunk_size=10)
        assert [s.seqs for s in shards] == [(1, 3)]

    def test_empty_plans_yield_no_shards(self):
        assert plan_shards({"a": FakeLayerPlan(0)}) == []

    def test_deterministic_layer_order(self):
        plans = {"b": FakeLayerPlan(2), "a": FakeLayerPlan(2)}
        shards = plan_shards(plans, chunk_size=1, layer_order=["a", "b"])
        assert [s.layer for s in shards] == ["a", "a", "b", "b"]


# ----------------------------------------------------------------------
# the write-ahead journal
# ----------------------------------------------------------------------
class TestJournal:
    FP = {"kind": "value", "seed": 0}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, completed = CampaignJournal.open(path, self.FP)
        assert completed == {}
        journal.append_record({"layer": "fc1", "seq": 0, "site": 5,
                               "bits": [3], "delta_loss": 0.25})
        journal.close()
        journal2, completed = CampaignJournal.open(path, self.FP)
        journal2.close()
        assert set(completed) == {("fc1", 0)}
        assert completed[("fc1", 0)]["delta_loss"] == 0.25

    def test_float_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "j.jsonl"
        value = float(np.float64(1.0) / 3.0)
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_record({"layer": "l", "seq": 0,
                                   "delta_loss": value})
        _, completed, _, _ = load_journal(path)
        assert completed[("l", 0)]["delta_loss"] == value  # bit-exact

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignJournal.open(path, self.FP)[0].close()
        with pytest.raises(JournalMismatch, match="different campaign"):
            CampaignJournal.open(path, {"kind": "value", "seed": 1})

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_record({"layer": "l", "seq": 0, "delta_loss": 1.0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "injection", "layer": "l", "seq": 1, "de')
        header, completed, corrupt, _ = load_journal(path)
        assert header is not None
        assert set(completed) == {("l", 0)}
        assert corrupt == 1
        # and the journal is still resumable
        journal2, completed2 = CampaignJournal.open(path, self.FP)
        journal2.close()
        assert set(completed2) == {("l", 0)}

    def test_a_held_journal_refuses_a_second_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        other = {"kind": "value", "seed": 1}
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_record({"layer": "l", "seq": 0, "delta_loss": 1.0})
        # the resuming open reads the records back while holding the lock
        journal, completed = CampaignJournal.open(path, self.FP)
        assert set(completed) == {("l", 0)}
        for fingerprint in (self.FP, other):
            with pytest.raises(CampaignError, match=re.escape(str(path))):
                CampaignJournal.open(path, fingerprint)
        journal.append_record({"layer": "l", "seq": 1, "delta_loss": 2.0})
        journal.close()
        with pytest.raises(JournalMismatch):  # a refused open keeps no lock
            CampaignJournal.open(path, other)
        journal, completed = CampaignJournal.open(path, self.FP)
        journal.close()
        assert set(completed) == {("l", 0), ("l", 1)}

    @needs_fork
    def test_a_forked_child_does_not_hold_the_lock(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = CampaignJournal.open(path, self.FP)
        ctx = multiprocessing.get_context("fork")
        release = ctx.Event()
        child = ctx.Process(target=release.wait, args=(60,))
        child.start()
        try:
            journal.close()
            # the child outlives its parent's handle, and holds no lock
            journal, _ = CampaignJournal.open(path, self.FP)
            journal.close()
        finally:
            release.set()
            child.join(60)
        assert child.exitcode == 0
        assert len(path.read_text().splitlines()) == 1  # the header alone

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_record({"layer": "l", "seq": 0, "delta_loss": 1.0})
            journal.append_record({"layer": "l", "seq": 0, "delta_loss": 2.0})
        _, completed, _, _ = load_journal(path)
        assert completed[("l", 0)]["delta_loss"] == 2.0

    def test_quarantine_entries_are_advisory(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_quarantine({"shard_id": 3, "layer": "l",
                                       "seqs": [1, 2], "attempts": 3,
                                       "reason": "timeout"})
        _, completed, corrupt, _ = load_journal(path)
        assert completed == {} and corrupt == 0  # skipped, not failed

    def test_fingerprint_includes_data_digest(self):
        spec = CampaignSpec(seed=0, injections_per_layer=5)
        imgs = np.zeros((2, 3), dtype=np.float32)
        labels = np.array([0, 1])
        fp1 = spec.fingerprint("fp16", ["a"], imgs, labels)
        fp2 = spec.fingerprint("fp16", ["a"], imgs + 1, labels)
        assert fp1 != fp2
        assert json.dumps(fp1)  # JSON-serialisable


# ----------------------------------------------------------------------
# serial <-> parallel bit-identity
# ----------------------------------------------------------------------
@needs_fork
class TestParallelParity:
    @pytest.fixture
    def serial(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            return run_campaign(ge, *data, injections_per_layer=6, seed=11)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_bit_for_bit(self, model, data, serial,
                                                 workers):
        with GoldenEye(model, "fp16") as ge:
            par = run_campaign(ge, *data, injections_per_layer=6, seed=11,
                               workers=workers)
        assert not par.interrupted and not par.quarantined
        assert layer_stats(par) == layer_stats(serial)

    def test_workers_one_is_the_serial_path(self, model, data, serial):
        with GoldenEye(model, "fp16") as ge:
            r = run_campaign(ge, *data, injections_per_layer=6, seed=11,
                             workers=1)
        assert layer_stats(r) == layer_stats(serial)

    def test_parallel_without_resume_matches_too(self, model, data, serial):
        with GoldenEye(model, "fp16") as ge:
            par = run_campaign(ge, *data, injections_per_layer=6, seed=11,
                               workers=2, resume=False)
        assert layer_stats(par) == layer_stats(serial)

    def test_worker_resume_stats_merged(self, model, data):
        # at K=1 a shard changes no pass, so the workers' merged counts
        # are the serial run's
        stats = {}
        for workers in (1, 2):
            with GoldenEye(model, "fp16") as ge:
                stats[workers] = run_campaign(
                    ge, *data, injections_per_layer=4, seed=1,
                    workers=workers, fault_batch=1).resume_stats
        assert stats[2]["replayed"] > 0  # workers used the cache
        assert stats[2] == stats[1]

    def test_profile_books_both_campaigns_in_the_registry(
            self, model, data, fresh_global_registry):
        from repro.analysis import profile_resilience

        profile = profile_resilience(model, "mlp", "int8", *data,
                                     injections_per_layer=4, seed=1,
                                     workers=2)
        hits = [campaign.resume_stats["hits"] for campaign in
                (profile.value_campaign, profile.metadata_campaign)]
        assert min(hits) > 0
        assert fresh_global_registry.get("resume.hits").value == sum(hits)

    def test_exec_telemetry_counters_present(self, model, data):
        from repro.obs import get_registry
        registry = get_registry()
        before = registry.counter("exec.shards_total").value
        with GoldenEye(model, "fp16") as ge:
            run_campaign(ge, *data, injections_per_layer=4, seed=1, workers=2)
        assert registry.counter("exec.shards_total").value > before
        assert registry.counter("exec.heartbeats_total").value > 0


# ----------------------------------------------------------------------
# cross-process telemetry parity: --workers N records what serial records
# ----------------------------------------------------------------------
@needs_fork
class TestTelemetryParity:
    """Worker observability is streamed, not lost: a traced ``--workers 2``
    campaign must produce the same ``campaign.injection`` event multiset and
    the same merged registry counters as a serial run (modulo event ordering
    and ``worker_id`` tags)."""

    def _traced_run(self, model, data, path, workers, numerics=False):
        from repro.obs import (
            NULL_TRACER,
            NumericHealthMonitor,
            configure_tracing,
            reset_registry,
            set_tracer,
        )
        registry = reset_registry()
        monitor = NumericHealthMonitor() if numerics else None
        tracer = configure_tracing(str(path), registry=registry)
        try:
            with GoldenEye(model, "fp16", numerics=monitor) as ge:
                result = run_campaign(ge, *data, injections_per_layer=5,
                                      seed=7, workers=workers, resume=False)
        finally:
            tracer.close()
            set_tracer(NULL_TRACER)
            reset_registry()
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        return result, registry.collect(), events

    @staticmethod
    def _injection_multiset(events):
        return sorted(
            (e["layer"], e["site"], tuple(e["bits"]), e["delta_loss"],
             e["mismatch_rate"], e.get("sdc_rate"))
            for e in events if e.get("name") == "campaign.injection")

    @staticmethod
    def _counter_totals(snapshot, prefix):
        """Counter values by (name, labels), worker-tagged entries excluded."""
        out = {}
        for name, entries in snapshot.items():
            if not name.startswith(prefix):
                continue
            for e in entries:
                if e["type"] != "counter" or "worker" in e["labels"]:
                    continue
                key = (name, tuple(sorted(e["labels"].items())))
                out[key] = out.get(key, 0.0) + e["value"]
        return out

    def test_parallel_trace_has_identical_injection_events(self, model, data,
                                                           tmp_path):
        result, _, serial_events = self._traced_run(
            model, data, tmp_path / "serial.jsonl", workers=1)
        _, _, par_events = self._traced_run(
            model, data, tmp_path / "par.jsonl", workers=2)
        serial_injections = self._injection_multiset(serial_events)
        assert len(serial_injections) == sum(
            r.injections for r in result.per_layer.values())
        assert self._injection_multiset(par_events) == serial_injections

    def test_parallel_trace_carries_worker_tagged_spans(self, model, data,
                                                        tmp_path):
        result, _, par_events = self._traced_run(
            model, data, tmp_path / "par.jsonl", workers=2)
        shard_spans = [e for e in par_events
                       if e.get("name") == "exec.worker_shard"]
        assert shard_spans, "worker spans must be replayed into the trace"
        for span in shard_spans:
            assert span["type"] == "span"
            assert "worker_id" in span and span["dur_s"] >= 0
            assert span["layer"] in result.per_layer

    def test_worker_registry_metrics_reach_parent(self, model, data,
                                                  tmp_path):
        _, serial_metrics, _ = self._traced_run(
            model, data, tmp_path / "serial.jsonl", workers=1)
        _, par_metrics, _ = self._traced_run(
            model, data, tmp_path / "par.jsonl", workers=2)
        # flips happen inside workers; their deltas must fold back exactly
        serial_flips = self._counter_totals(serial_metrics, "injection.")
        assert serial_flips and all(v > 0 for v in serial_flips.values())
        assert self._counter_totals(par_metrics, "injection.") == serial_flips
        assert self._counter_totals(par_metrics, "campaign.injections_total") \
            == self._counter_totals(serial_metrics,
                                    "campaign.injections_total")
        merges = par_metrics.get("exec.telemetry_merges_total", [])
        assert merges and merges[0]["value"] > 0

    def test_numeric_health_streams_across_processes(self, model, data,
                                                     tmp_path):
        _, serial_metrics, _ = self._traced_run(
            model, data, tmp_path / "serial.jsonl", workers=1, numerics=True)
        _, par_metrics, _ = self._traced_run(
            model, data, tmp_path / "par.jsonl", workers=2, numerics=True)
        serial_numerics = self._counter_totals(serial_metrics, "numerics.")
        assert serial_numerics, "monitor must populate numerics.* counters"
        # resume=False makes conversion counts deterministic: the parallel
        # merged registry must carry the exact same numeric-health totals
        assert self._counter_totals(par_metrics, "numerics.") == \
            serial_numerics


# ----------------------------------------------------------------------
# crash recovery: worker death, interrupt + journal resume
# ----------------------------------------------------------------------
@pytest.fixture
def retry_budget(monkeypatch):
    """Set the supervisor's retry budget, with a 20 ms backoff base.

    The supervisor reads both constants in the parent at each failed
    attempt, so patching them before the campaign starts is enough.
    """
    def set_budget(max_retries):
        monkeypatch.setattr(supervisor_mod, "MAX_RETRIES", max_retries)
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE", 0.02)
    return set_budget


def _crash_once(worker_id, shard, attempt):
    """Worker fault hook: hard-kill the first worker to run shard 1."""
    if shard.shard_id == 1 and attempt == 1:
        os._exit(23)


def _dies_mid_write(worker_main):
    """Wrap ``worker_main`` so worker 0 dies mid-write on its result channel.

    Installed in the parent before the pool forks.  On a lock-guarded
    channel (a ``multiprocessing.Queue`` shared by the pool) the worker dies
    holding the channel's write lock, as one killed while its feeder thread
    writes would; on a pipe it dies after a frame header promising 64 bytes
    and three of them.
    """
    def wrapped(worker_id, payload, task_queue, results):
        if worker_id == 0:
            lock = getattr(results, "_wlock", None)
            if lock is not None:
                lock.acquire()
            else:
                os.write(results.fileno(), struct.pack("!i", 64) + b"abc")
            os._exit(23)
        worker_main(worker_id, payload, task_queue, results)
    return wrapped


def _hang_last_layer(worker_id, shard, attempt):
    if shard.layer == "fc3":
        time.sleep(60)


class _InterruptAfter:
    """Parent-side hook: deliver a real SIGINT after N accepted records."""

    def __init__(self, n):
        self.n = n

    def __call__(self, total_records):
        if total_records >= self.n:
            os.kill(os.getpid(), signal.SIGINT)


@needs_fork
class TestCrashRecovery:
    def test_worker_death_is_survived_bit_identically(self, model, data,
                                                      retry_budget):
        retry_budget(2)
        with GoldenEye(model, "fp16") as ge:
            serial = run_campaign(ge, *data, injections_per_layer=6, seed=5)
            cfg = ExecConfig(workers=2, shard_timeout=60.0,
                             worker_fault=_crash_once)
            par = run_campaign(ge, *data, injections_per_layer=6, seed=5,
                               exec_config=cfg)
        assert not par.interrupted and not par.quarantined
        assert layer_stats(par) == layer_stats(serial)

    def test_worker_dying_mid_write_wedges_only_itself(self, model,
                                                       monkeypatch,
                                                       retry_budget):
        """A worker that dies mid-message must not block its siblings' or
        its replacement's results (with a pool-wide result queue they hang
        on its write lock until every shard times out into quarantine)."""
        monkeypatch.setattr(supervisor_mod, "worker_main",
                            _dies_mid_write(supervisor_mod.worker_main))
        retry_budget(1)
        local = np.random.default_rng(17)  # leaves the session rng alone
        data = (local.standard_normal((6, 3, 32, 32)).astype(np.float32),
                local.integers(0, 4, size=6))
        with GoldenEye(model, "fp16") as ge:
            serial = run_campaign(ge, *data, injections_per_layer=6, seed=5)
            cfg = ExecConfig(workers=2, shard_timeout=5.0)
            par = run_campaign(ge, *data, injections_per_layer=6, seed=5,
                               exec_config=cfg)
        assert not par.interrupted and not par.quarantined
        assert layer_stats(par) == layer_stats(serial)

    def test_interrupt_then_journal_resume_is_bit_identical(
            self, model, data, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        with GoldenEye(model, "fp16") as ge:
            serial = run_campaign(ge, *data, injections_per_layer=6, seed=5)
            total = sum(r.injections for r in serial.per_layer.values())

            cfg = ExecConfig(workers=2, on_record=_InterruptAfter(4))
            partial = run_campaign(ge, *data, injections_per_layer=6, seed=5,
                                   journal=journal, exec_config=cfg)
            assert partial.interrupted
            done = sum(r.injections for r in partial.per_layer.values())
            assert 0 < done < total  # genuinely partial

            resumed = run_campaign(ge, *data, injections_per_layer=6, seed=5,
                                   journal=journal, workers=2)
        assert not resumed.interrupted
        assert resumed.telemetry["journal_skipped"] >= 4
        assert layer_stats(resumed) == layer_stats(serial)

    def test_serial_resume_from_parallel_journal(self, model, data, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        with GoldenEye(model, "fp16") as ge:
            first = run_campaign(ge, *data, injections_per_layer=4, seed=2,
                                 journal=journal, workers=2)
            again = run_campaign(ge, *data, injections_per_layer=4, seed=2,
                                 journal=journal)  # serial this time
        total = sum(r.injections for r in first.per_layer.values())
        assert again.telemetry["journal_skipped"] == total
        assert layer_stats(again) == layer_stats(first)

    def test_journal_of_other_campaign_is_rejected(self, model, data,
                                                   tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        with GoldenEye(model, "fp16") as ge:
            run_campaign(ge, *data, injections_per_layer=3, seed=2,
                         journal=journal)
            with pytest.raises(JournalMismatch, match="different campaign"):
                run_campaign(ge, *data, injections_per_layer=3, seed=3,
                             journal=journal)


@needs_fork
class TestQuarantine:
    def test_poison_shard_quarantined_campaign_survives(self, model, data,
                                                       retry_budget):
        retry_budget(1)
        with GoldenEye(model, "fp16") as ge:
            serial = run_campaign(ge, *data, injections_per_layer=6, seed=9)
            cfg = ExecConfig(workers=2, shard_timeout=0.5,
                             worker_fault=_hang_last_layer)
            par = run_campaign(ge, *data, injections_per_layer=6, seed=9,
                               exec_config=cfg)
        assert par.quarantined, "hanging shards must be quarantined"
        assert all(q["layer"] == "fc3" for q in par.quarantined)
        assert all(q["reason"] == "timeout" for q in par.quarantined)
        assert all(q["attempts"] == 2 for q in par.quarantined)  # 1 + retry
        # fc3 degraded (partial or absent), every healthy layer bit-identical
        healthy = {k: v for k, v in layer_stats(par).items() if k != "fc3"}
        expected = {k: v for k, v in layer_stats(serial).items() if k != "fc3"}
        assert healthy == expected
        if "fc3" in par.per_layer:
            assert par.per_layer["fc3"].injections < 6
        assert par.telemetry["quarantined_shards"] == len(par.quarantined)

    def test_quarantine_recorded_in_journal(self, model, data, tmp_path,
                                            retry_budget):
        retry_budget(0)
        journal = str(tmp_path / "campaign.jsonl")
        cfg = ExecConfig(workers=2, shard_timeout=0.5,
                         worker_fault=_hang_last_layer)
        with GoldenEye(model, "fp16") as ge:
            par = run_campaign(ge, *data, injections_per_layer=4, seed=9,
                               journal=journal, exec_config=cfg)
        assert par.quarantined
        events = [json.loads(line) for line in open(journal, encoding="utf-8")]
        quarantines = [e for e in events if e["type"] == "quarantine"]
        assert quarantines and all(q["layer"] == "fc3" for q in quarantines)


# ----------------------------------------------------------------------
# batched journal framing
# ----------------------------------------------------------------------
class TestJournalBatch:
    FP = {"kind": "value", "seed": 0}

    def test_batch_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_batch([
                {"layer": "a", "seq": 0, "delta_loss": 0.5},
                {"layer": "a", "seq": 1, "delta_loss": 0.25},
            ])
            assert journal.batches_written == 1
            assert journal.records_written == 2
        _, completed, corrupt, _ = load_journal(path)
        assert corrupt == 0
        assert completed[("a", 0)]["delta_loss"] == 0.5
        assert completed[("a", 1)]["delta_loss"] == 0.25

    def test_batch_is_one_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_batch(
                [{"layer": "a", "seq": i} for i in range(10)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2  # header + one framed batch
        assert json.loads(lines[1])["n"] == 10

    def test_single_record_batch_degrades_to_injection_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_batch([{"layer": "a", "seq": 0}])
            assert journal.batches_written == 0
            assert journal.records_written == 1
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[1])["type"] == "injection"

    def test_empty_batch_is_a_noop(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_batch([])
            assert journal.records_written == 0
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_torn_batch_loses_only_that_batch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_batch([{"layer": "a", "seq": 0},
                                  {"layer": "a", "seq": 1}])
        intact = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "batch", "n": 2, "records": [{"layer": "a", '
                     '"seq": 2}, {"layer": "a", "se')
        header, completed, corrupt, _ = load_journal(path)
        assert header is not None and corrupt == 1
        assert set(completed) == {("a", 0), ("a", 1)}
        # and the journal file can still be resumed from
        with open(path, "r+b") as fh:
            fh.truncate(intact)
        journal2, completed2 = CampaignJournal.open(path, self.FP)
        journal2.close()
        assert set(completed2) == {("a", 0), ("a", 1)}

    def test_last_wins_across_batch_boundaries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, self.FP)[0] as journal:
            journal.append_batch([{"layer": "a", "seq": 0, "delta_loss": 1.0},
                                  {"layer": "a", "seq": 1, "delta_loss": 9.0}])
            journal.append_record({"layer": "a", "seq": 0, "delta_loss": 2.0})
            journal.append_batch([{"layer": "a", "seq": 0, "delta_loss": 3.0},
                                  {"layer": "b", "seq": 0, "delta_loss": 4.0}])
        _, completed, _, _ = load_journal(path)
        assert completed[("a", 0)]["delta_loss"] == 3.0
        assert completed[("a", 1)]["delta_loss"] == 9.0
        assert completed[("b", 0)]["delta_loss"] == 4.0

    def test_malformed_batch_payload_counts_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignJournal.open(path, self.FP)[0].close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "batch", "n": 1, "records": "nope"}\n')
            fh.write('{"type": "batch", "n": 1, "records": [42]}\n')
        _, completed, corrupt, _ = load_journal(path)
        assert completed == {} and corrupt == 2


# ----------------------------------------------------------------------
# property tests: arbitrary batches, torn tails at any byte offset
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_record_st = st.fixed_dictionaries({
    "layer": st.sampled_from(["a", "b", "c"]),
    "seq": st.integers(min_value=0, max_value=15),
    "site": st.integers(min_value=0, max_value=10_000),
    "bits": st.lists(st.integers(min_value=0, max_value=31), max_size=3),
    "delta_loss": st.floats(allow_nan=False, allow_infinity=False),
})

_batches_st = st.lists(
    st.lists(_record_st, min_size=1, max_size=6), min_size=1, max_size=6)


def _strip_type(record):
    return {k: v for k, v in record.items() if k != "type"}


def _fold_last_wins(batches):
    expected = {}
    for batch in batches:
        for rec in batch:
            expected[(rec["layer"], rec["seq"])] = rec
    return expected


class TestJournalBatchProperties:
    FP = {"kind": "value", "seed": 0}

    @settings(max_examples=40, deadline=None)
    @given(batches=_batches_st)
    def test_arbitrary_batches_round_trip(self, batches):
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "j.jsonl"
            with CampaignJournal.open(path, self.FP)[0] as journal:
                for batch in batches:
                    journal.append_batch(batch)
            _, loaded, corrupt, _ = load_journal(path)
        assert corrupt == 0
        assert {k: _strip_type(v) for k, v in loaded.items()} \
            == _fold_last_wins(batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=_batches_st, data=st.data())
    def test_torn_tail_at_any_byte_offset(self, batches, data):
        """Kill the writer at *any* byte: every fully flushed line must
        survive, the torn line (if any) must be the only casualty."""
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "j.jsonl"
            journal, _ = CampaignJournal.open(path, self.FP)
            journal.flush()
            checkpoints = [(path.stat().st_size, None)]  # after the header
            for batch in batches:
                journal.append_batch(batch)
                checkpoints.append((path.stat().st_size, batch))
            journal.close()
            total = path.stat().st_size
            # the header length varies run to run (timestamp width), so the
            # draw must use fixed bounds mapped onto the byte range — bounds
            # derived from file sizes would make replays flaky
            span = total - checkpoints[0][0]
            cut = checkpoints[0][0] + \
                data.draw(st.integers(min_value=0, max_value=10 ** 6),
                          label="cut") % (span + 1)
            with open(path, "r+b") as fh:
                fh.truncate(cut)
            header, loaded, corrupt, _ = load_journal(path)
        assert header is not None  # the cut is always past the header
        # a line survives exactly when every byte up to its closing '}' is
        # present: losing only the trailing newline still parses (end - 1),
        # losing anything more tears the JSON document
        surviving = [batch for end, batch in checkpoints[1:] if end - 1 <= cut]
        assert {k: _strip_type(v) for k, v in loaded.items()} \
            == _fold_last_wins(surviving)
        assert corrupt <= 1  # at most the single torn line

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=2, max_size=6))
    def test_rewrites_of_one_seq_keep_the_last(self, values):
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "j.jsonl"
            with CampaignJournal.open(path, self.FP)[0] as journal:
                for i, value in enumerate(values):
                    # alternate framings: dedup must hold across both
                    batch = [{"layer": "x", "seq": 0, "delta_loss": value},
                             {"layer": "pad", "seq": i, "delta_loss": 0.0}]
                    if i % 2:
                        journal.append_batch(batch)
                    else:
                        for rec in batch:
                            journal.append_record(rec)
            _, loaded, corrupt, _ = load_journal(path)
        assert corrupt == 0
        got = loaded[("x", 0)]["delta_loss"]
        assert got == values[-1] or (got == 0.0 and values[-1] == 0.0)


# ----------------------------------------------------------------------
# the shared-memory golden cache
# ----------------------------------------------------------------------
from repro.exec import SharedCacheError, SharedGoldenCache, live_segments  # noqa: E402


class TestSharedGoldenCacheUnit:
    def _entries(self):
        return [(0, np.arange(12, dtype=np.float32).reshape(3, 4)),
                (1, np.linspace(-1.0, 1.0, 7)),
                (2, np.array([[True, False]]))]

    def test_publish_attach_round_trip(self):
        entries = self._entries()
        cache = SharedGoldenCache.publish(entries)
        try:
            assert len(cache) == 3 and 0 in cache and "1" in cache
            other = SharedGoldenCache.attach(cache.name)
            for key, arr in entries:
                np.testing.assert_array_equal(other.array(key), arr)
                assert other.array(key).dtype == arr.dtype
            assert other.array("missing") is None
            other.close()
        finally:
            cache.release()
        assert cache.name not in live_segments()

    def test_views_are_read_only(self):
        cache = SharedGoldenCache.publish(self._entries())
        try:
            view = cache.array(0)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 99.0
        finally:
            cache.release()

    def test_refcount_unlinks_on_last_release(self):
        cache = SharedGoldenCache.publish(self._entries())
        name = cache.name
        cache.acquire()  # a second holder (as a forked worker would)
        assert cache.release() is False  # first holder out: segment lives
        assert name in live_segments()
        assert cache.release() is True  # last holder unlinks
        assert name not in live_segments()

    def test_publish_empty_raises(self):
        with pytest.raises(SharedCacheError, match="empty"):
            SharedGoldenCache.publish([])

    def test_acquire_after_full_release_raises(self):
        cache = SharedGoldenCache.publish(self._entries())
        cache.release()
        with pytest.raises(SharedCacheError, match="released"):
            cache.acquire()

    def test_by_name_attachment_cannot_acquire(self):
        cache = SharedGoldenCache.publish(self._entries())
        try:
            other = SharedGoldenCache.attach(cache.name)
            with pytest.raises(SharedCacheError, match="by-name"):
                other.acquire()
            other.close()
        finally:
            cache.release()

    def test_force_unlink_is_idempotent(self):
        cache = SharedGoldenCache.publish(self._entries())
        assert cache.unlink() is True
        assert cache.unlink() is False  # second call: already gone
        cache.close()
        assert cache.name not in live_segments()


def _sigkill_first_shard(worker_id, shard, attempt):
    """Worker fault hook: SIGKILL the first worker to run shard 0."""
    if shard.shard_id == 0 and attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
class TestSharedCacheCampaign:
    """A campaign publishes no segment: workers replay the golden cache they
    inherit, so ``/dev/shm`` is left as the campaign found it, also when a
    worker is SIGKILLed."""

    def test_campaign_unlinks_all_segments(self, model, data):
        before = live_segments()
        with GoldenEye(model, "fp16") as ge:
            par = run_campaign(ge, *data, injections_per_layer=4, seed=3,
                               workers=2)
        assert not par.quarantined
        assert live_segments() == before  # no /dev/shm leak

    def test_sigkilled_worker_leaves_no_leak_and_same_aggregate(
            self, model, data, retry_budget):
        retry_budget(2)
        before = live_segments()
        with GoldenEye(model, "fp16") as ge:
            serial = run_campaign(ge, *data, injections_per_layer=6, seed=5)
            cfg = ExecConfig(workers=2, shard_timeout=60.0,
                             worker_fault=_sigkill_first_shard)
            par = run_campaign(ge, *data, injections_per_layer=6, seed=5,
                               exec_config=cfg)
        assert not par.interrupted and not par.quarantined
        assert layer_stats(par) == layer_stats(serial)
        assert live_segments() == before  # no /dev/shm leak

    def test_batch_records_one_is_per_record_framing(self, model, data,
                                                     monkeypatch):
        """One record per worker message, the old protocol, is still
        bit-identical (the constant is patched before the pool forks)."""
        monkeypatch.setattr(worker_mod, "BATCH_RECORDS", 1)
        with GoldenEye(model, "fp16") as ge:
            serial = run_campaign(ge, *data, injections_per_layer=5, seed=4)
            par = run_campaign(ge, *data, injections_per_layer=5, seed=4,
                               workers=2)
        assert layer_stats(par) == layer_stats(serial)


# ----------------------------------------------------------------------
# per-worker BLAS pool cap
# ----------------------------------------------------------------------
needs_openblas = pytest.mark.skipif(
    not worker_mod._openblas_thread_calls(),
    reason="no OpenBLAS thread-count entry point is reachable here")


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestBlasPinning:
    def test_budget_splits_the_affinity_mask(self, monkeypatch):
        # a cpuset-limited container: 3 usable CPUs on a 64-CPU host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 5, 6},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        budget = worker_mod._blas_thread_budget
        assert [budget(w) for w in (1, 2, 3, 4)] == [3, 1, 1, 1]

    def test_budget_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        budget = worker_mod._blas_thread_budget
        assert [budget(w) for w in (1, 2, 3, 16)] == [8, 4, 2, 1]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert budget(2) == 1

    @needs_fork
    @needs_openblas
    def test_a_forked_child_reads_its_cap_back(self):
        limit = worker_mod.limit_blas_threads
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        # the second call is a cap too: it must not widen the pool again
        child = ctx.Process(target=lambda: writer.send((limit(1), limit(64))))
        child.start()
        writer.close()
        try:
            assert reader.poll(60), "the child sent no thread count"
            assert reader.recv() == (1, 1)
        finally:
            child.join(60)
        assert child.exitcode == 0

    @needs_fork
    @needs_openblas
    def test_parallel_campaign_reports_the_capped_pool(self, model, data,
                                                       tmp_path):
        from repro.obs import NULL_TRACER, configure_tracing, \
            reset_registry, set_tracer
        parent_pools = [get() for _, get, _ in
                        worker_mod._openblas_thread_calls()]
        registry = reset_registry()
        tracer = configure_tracing(str(tmp_path / "trace.jsonl"),
                                   registry=registry)
        try:
            with GoldenEye(model, "fp16") as ge:
                run_campaign(ge, *data, injections_per_layer=4, seed=1,
                             workers=2)
        finally:
            tracer.close()
            set_tracer(NULL_TRACER)
            reset_registry()
        # the workers capped their own pools, not the supervisor's
        assert [get() for _, get, _ in worker_mod._openblas_thread_calls()] \
            == parent_pools
        # a cap never widens a pool (say, one under OPENBLAS_NUM_THREADS=1)
        expected = min(max(1, _cpus() // 2), max(parent_pools))
        gauge = registry.get("exec.blas_threads")
        assert gauge is not None and gauge.value == expected
        events = (tmp_path / "trace.jsonl").read_text(encoding="utf-8")
        ready = [json.loads(line) for line in events.splitlines()]
        ready = [e for e in ready if e.get("name") == "exec.worker_ready"]
        assert sorted(e["worker_id"] for e in ready) == [0, 1]
        assert all(e["blas_threads"] == expected for e in ready)
