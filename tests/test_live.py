"""The live observability plane (repro.obs.live) end to end.

Covers the ISSUE-8 tentpole and its satellites: the Wilson interval, the
thread-safe CampaignProgress tracker, the BroadcastTracer composition, the
embedded HTTP server (``/metrics``, ``/progress``, ``/healthz``,
``/events`` SSE), graceful lifecycle (port-in-use -> CampaignError naming
the address, SIGINT mid-campaign leaves no dangling server thread),
``/progress`` parity across serial / parallel / fault-batched executors,
the registry-scrape hammer (concurrent mutation vs ``/metrics`` render),
the ``repro watch`` dashboard (URL and journal modes) and the ``-v``
periodic progress lines.
"""

from __future__ import annotations

import http.client
import json
import logging
import multiprocessing
import re
import threading
import time
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.confidence import wilson_interval
from repro.core import CampaignError, GoldenEye, run_campaign
from repro.exec.journal import load_journal
from repro.models import simple_mlp
from repro.obs import live
from repro.obs.export import export_prometheus
from repro.obs.live import (
    CampaignProgress,
    LiveServer,
    PROGRESS_SCHEMA,
    evaluate_health,
    fetch_progress,
    journal_progress,
    parse_address,
    render_dashboard,
    validate_progress,
)
from repro.obs.telemetry import MetricsRegistry
from repro.obs.tracing import BroadcastTracer, JsonlSink, NULL_TRACER, Tracer

from tests.differential import run_mode

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method")

INJECTIONS = 5
SEED = 13


def _make_data():
    rng = np.random.default_rng(77)
    return (rng.standard_normal((4, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 4, size=4))


@pytest.fixture()
def model():
    mlp = simple_mlp(num_classes=4)
    mlp.eval()
    return mlp


# ----------------------------------------------------------------------
# Wilson interval
# ----------------------------------------------------------------------
class TestWilsonInterval:
    def test_no_trials_is_total_uncertainty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert wilson_interval(5, -1) == (0.0, 1.0)

    def test_known_value(self):
        lo, hi = wilson_interval(3, 10)
        assert lo == pytest.approx(0.10779, abs=1e-4)
        assert hi == pytest.approx(0.60322, abs=1e-4)

    def test_bounds_stay_in_unit_interval(self):
        for successes, trials in [(0, 1), (1, 1), (0, 1000), (1000, 1000),
                                  (2.5, 7), (1e-9, 3)]:
            lo, hi = wilson_interval(successes, trials)
            assert 0.0 <= lo <= hi <= 1.0

    def test_interval_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 20)
        assert lo < 7 / 20 < hi

    def test_fractional_successes_clamped(self):
        lo, hi = wilson_interval(12.0, 10)  # summed rates can exceed trials
        assert 0.0 <= lo <= hi <= 1.0


# ----------------------------------------------------------------------
# CampaignProgress
# ----------------------------------------------------------------------
class TestCampaignProgress:
    def test_counts_and_layer_breakdown(self):
        p = CampaignProgress(format_name="fp16")
        p.set_plan({"fc1": 3, "fc2": 2})
        p.record("fc1", 0, 1.0)
        p.record("fc1", 2, 0.0)
        p.record("fc2", 0, 1.0)
        assert p.counts() == (3, 5)
        snap = p.snapshot()
        assert snap["schema"] == PROGRESS_SCHEMA
        assert snap["layers"]["fc1"]["done"] == 2
        assert snap["layers"]["fc1"]["sdc_rate"] == pytest.approx(0.5)
        assert snap["layers"]["fc2"]["total"] == 2
        validate_progress(snap)

    def test_duplicate_seq_is_last_wins_not_double_counted(self):
        p = CampaignProgress()
        p.set_plan({"fc1": 2})
        p.record("fc1", 0, 1.0)
        p.record("fc1", 0, 0.0)  # journal-style last-wins
        assert p.counts() == (1, 2)
        assert p.snapshot()["layers"]["fc1"]["sdc_rate"] == 0.0

    def test_prefill_counts_toward_done_not_throughput(self):
        p = CampaignProgress()
        p.set_plan({"fc1": 4})
        p.record("fc1", 0, 1.0, prefill=True)
        p.record("fc1", 1, 1.0, prefill=True)
        snap = p.snapshot()
        assert snap["done"] == 2
        assert snap["journal_prefilled"] == 2
        assert snap["injections_per_sec_ewma"] == 0.0

    def test_sdc_fold_matches_aggregate_layer_order(self):
        # record out of seq order with rates whose float sum is
        # order-sensitive; snapshot must fold in sorted-seq order
        rates = [0.1, 0.7, 0.3, 0.55, 0.25]
        p = CampaignProgress()
        p.set_plan({"fc1": len(rates)})
        for seq in (3, 0, 4, 1, 2):
            p.record("fc1", seq, rates[seq])
        expected = 0.0
        for rate in rates:  # seq order
            expected += rate
        expected /= len(rates)
        assert p.snapshot()["layers"]["fc1"]["sdc_rate"] == expected

    def test_finish_seals_first_state(self):
        p = CampaignProgress()
        p.finish("interrupted")
        p.finish("error")  # the finally-path marker must not clobber
        assert p.snapshot()["state"] == "interrupted"

    @staticmethod
    def _steady(monkeypatch, records=20, rate=66.0, plan=100):
        """``records`` records at a steady ``rate``/s on a patched clock."""
        clock = [1000.0]
        monkeypatch.setattr(live, "time", SimpleNamespace(
            monotonic=lambda: clock[0], time=time.time))
        p = CampaignProgress()
        p.set_plan({"fc1": plan})
        for seq in range(records):
            clock[0] += 1.0 / rate
            p.record("fc1", seq, 0.0)
        return p, clock

    def test_ewma_reads_a_steady_rate_from_the_start(self, monkeypatch):
        # uncorrected, 20 records at 66/s read 1.97/s and an ETA of 40.6 s
        p, _ = self._steady(monkeypatch)
        snap = p.snapshot()
        assert snap["injections_per_sec_ewma"] == pytest.approx(66.0, rel=0.1)
        assert snap["eta_s"] == pytest.approx(80 / 66.0, rel=0.1)

    def test_a_stalled_campaign_rate_still_decays(self, monkeypatch):
        p, clock = self._steady(monkeypatch)
        rates = []
        for _ in range(4):
            rates.append(p.snapshot()["injections_per_sec_ewma"])
            clock[0] += 10.0
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] < rates[0] / 10

    def test_eta_drops_to_zero_when_complete(self):
        p = CampaignProgress()
        p.set_plan({"fc1": 1})
        p.record("fc1", 0, 0.0)
        p.finish("done")
        assert p.snapshot()["eta_s"] == 0.0

    def test_verbose_progress_line(self, caplog):
        p = CampaignProgress(format_name="fp16", log_interval=0.0)
        p.set_plan({"fc1": 2})
        with caplog.at_level(logging.INFO, logger="repro.campaign"):
            p.record("fc1", 0, 1.0)
            p.maybe_log()
        lines = [r.message for r in caplog.records
                 if r.message.startswith("progress:")]
        assert lines and "1/2" in lines[0] and "ETA" in lines[0]

    def test_throttled_logging_emits_once(self, caplog):
        p = CampaignProgress(log_interval=3600.0)
        p.set_plan({"fc1": 5})
        with caplog.at_level(logging.INFO, logger="repro.campaign"):
            for seq in range(5):
                p.record("fc1", seq, 0.0)
                p.maybe_log()
        lines = [r for r in caplog.records
                 if r.message.startswith("progress:")]
        assert len(lines) == 1


# ----------------------------------------------------------------------
# BroadcastTracer
# ----------------------------------------------------------------------
class TestBroadcastTracer:
    def test_composes_with_jsonl_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        published = []
        inner = Tracer(JsonlSink(str(path)))
        tracer = BroadcastTracer(inner, published.append)
        tracer.event("campaign.injection", layer="fc1", sdc_rate=1.0)
        with tracer.span("campaign.layer", layer="fc1"):
            pass
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in events] == ["campaign.injection",
                                               "campaign.layer"]
        assert [e["name"] for e in published] == ["campaign.injection",
                                                  "campaign.layer"]

    def test_null_inner_still_publishes(self):
        published = []
        tracer = BroadcastTracer(NULL_TRACER, published.append)
        assert tracer.enabled  # workers key BufferingTracer install on this
        tracer.event("exec.shard", shard_id=1)
        assert published[0]["name"] == "exec.shard"

    def test_emit_foreign_reaches_both(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        published = []
        tracer = BroadcastTracer(Tracer(JsonlSink(str(path))),
                                 published.append)
        tracer.emit_foreign({"type": "event", "name": "exec.shard", "ts": 0})
        tracer.close()
        assert published and path.read_text().strip()

    def test_publish_failure_never_raises(self):
        def explode(event):
            raise RuntimeError("slow consumer")
        tracer = BroadcastTracer(NULL_TRACER, explode)
        tracer.event("campaign.injection")  # must not raise

    def test_span_mirroring_not_doubled(self):
        registry = MetricsRegistry()
        import io
        inner = Tracer(JsonlSink(io.StringIO()), registry=registry)
        tracer = BroadcastTracer(inner, lambda event: None)
        with tracer.span("campaign.layer"):
            pass
        hist = registry.get("trace.span_seconds", span="campaign.layer")
        assert hist is not None and hist.count == 1


# ----------------------------------------------------------------------
# LiveServer endpoints
# ----------------------------------------------------------------------
class TestLiveServer:
    def test_parse_address_variants(self):
        assert parse_address("0.0.0.0:9100") == ("0.0.0.0", 9100)
        assert parse_address(":9100") == ("127.0.0.1", 9100)
        assert parse_address("9100") == ("127.0.0.1", 9100)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("localhost:http")

    def test_progress_unattached_is_503(self):
        with LiveServer.start("127.0.0.1:0") as server:
            with pytest.raises(urllib.request.HTTPError) as err:
                urllib.request.urlopen(server.url + "/progress")
            assert err.value.code == 503

    def test_unknown_path_is_404_with_index(self):
        with LiveServer.start("127.0.0.1:0") as server:
            with pytest.raises(urllib.request.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope")
            assert err.value.code == 404
            body = json.loads(err.value.read())
            assert "/progress" in body["endpoints"]

    def test_metrics_endpoint_renders_registry(self):
        registry = MetricsRegistry()
        registry.counter("campaign.injections_total", kind="value").inc(7)
        with LiveServer.start("127.0.0.1:0") as server:
            server.attach(CampaignProgress(), registry)
            text = urllib.request.urlopen(server.url + "/metrics").read()
        assert b"campaign_injections_total" in text
        assert b" 7" in text

    def test_progress_endpoint_schema_valid(self):
        progress = CampaignProgress(format_name="fp16")
        progress.set_plan({"fc1": 4})
        progress.record("fc1", 0, 1.0)
        with LiveServer.start("127.0.0.1:0") as server:
            server.attach(progress, MetricsRegistry())
            doc = fetch_progress(server.url)
        assert doc["state"] == "running"
        assert doc["done"] == 1 and doc["total"] == 4

    def test_healthz_ok_then_degraded(self):
        registry = MetricsRegistry()
        progress = CampaignProgress()
        with LiveServer.start("127.0.0.1:0") as server:
            server.attach(progress, registry)
            body = urllib.request.urlopen(server.url + "/healthz").read()
            assert json.loads(body)["status"] == "ok"
            registry.counter("exec.shards_quarantined_total").inc()
            with pytest.raises(urllib.request.HTTPError) as err:
                urllib.request.urlopen(server.url + "/healthz")
            assert err.value.code == 503
            verdict = json.loads(err.value.read())
            assert verdict["status"] == "degraded"
            assert any("quarantined" in reason
                       for reason in verdict["reasons"])

    def test_health_stale_heartbeat_degrades(self):
        registry = MetricsRegistry()
        registry.gauge("exec.workers").set(2)
        progress = CampaignProgress()
        progress.heartbeat(0)
        verdict = evaluate_health(progress, registry, stale_after=-1.0)
        assert verdict["status"] == "degraded"
        assert any("stale" in reason for reason in verdict["reasons"])
        assert evaluate_health(progress, registry,
                               stale_after=3600.0)["status"] == "ok"

    def test_worker_death_degrades(self):
        registry = MetricsRegistry()
        registry.counter("exec.worker_deaths_total").inc()
        verdict = evaluate_health(CampaignProgress(), registry)
        assert verdict["status"] == "degraded"

    def test_port_in_use_raises_campaign_error_naming_address(self):
        with LiveServer.start("127.0.0.1:0") as server:
            address = server.address
            with pytest.raises(CampaignError, match=re.escape(address)):
                LiveServer.start(address)

    def test_close_is_idempotent_and_joins_thread(self):
        server = LiveServer.start("127.0.0.1:0")
        server.close()
        server.close()
        assert not any(t.name == "repro-live-obs" and t.is_alive()
                       for t in threading.enumerate())

    def test_sse_stream_delivers_published_events(self):
        with LiveServer.start("127.0.0.1:0") as server:
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=10)
            try:
                conn.request("GET", "/events")
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type") == "text/event-stream"
                # the preamble is written after subscribing: once we see it,
                # a subsequent publish is guaranteed to be delivered
                assert response.fp.readline().startswith(b"retry:")
                response.fp.readline()  # ": stream open"
                response.fp.readline()  # blank
                server.publish({"type": "event", "name": "campaign.injection",
                                "layer": "fc1", "sdc_rate": 1.0})
                server.publish({"type": "event", "name": "ignored.family"})
                assert response.fp.readline() == b"event: campaign.injection\n"
                payload = response.fp.readline()
                assert payload.startswith(b"data: ")
                event = json.loads(payload[len(b"data: "):])
                assert event["layer"] == "fc1"
            finally:
                conn.close()
        assert server.events_published == 1  # the ignored family never fanned out

    def test_slow_subscriber_drops_oldest_not_campaign(self):
        with LiveServer.start("127.0.0.1:0") as server:
            subscription = server.subscribe(maxsize=2)
            for i in range(5):
                server.publish({"type": "event", "name": "exec.shard",
                                "shard_id": i})
            assert server.events_dropped == 3
            kept = [subscription.get_nowait()["shard_id"] for _ in range(2)]
            assert kept == [3, 4]  # oldest dropped, newest kept
            server.unsubscribe(subscription)


# ----------------------------------------------------------------------
# validate_progress
# ----------------------------------------------------------------------
class TestValidateProgress:
    def _doc(self):
        p = CampaignProgress()
        p.set_plan({"fc1": 2})
        p.record("fc1", 0, 1.0)
        return p.snapshot()

    def test_roundtrip_ok(self):
        validate_progress(self._doc())

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.update(schema="progress/v0"), "schema"),
        (lambda d: d.pop("eta_s"), "missing"),
        (lambda d: d.update(state="exploded"), "state"),
        (lambda d: d["layers"]["fc1"].pop("sdc_ci95"), "sdc_ci95"),
        (lambda d: d.update(done=99), "per-layer sum"),
    ])
    def test_contract_violations_raise(self, mutate, match):
        doc = self._doc()
        mutate(doc)
        with pytest.raises(ValueError, match=match):
            validate_progress(doc)


# ----------------------------------------------------------------------
# registry hammer: /metrics scrape vs concurrent mutation (satellite 1)
# ----------------------------------------------------------------------
class TestScrapeHammer:
    BUCKET_RE = re.compile(
        r'^(?P<name>\w+)_bucket\{(?P<labels>[^}]*)\} (?P<value>\d+)$')

    def test_concurrent_mutation_never_tears_the_exposition(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        failures: list[BaseException] = []

        def mutate(lane: int) -> None:
            i = 0
            try:
                while not stop.is_set():
                    registry.counter("hammer.flips_total",
                                     lane=str(lane)).inc()
                    registry.histogram("hammer.seconds",
                                       lane=str(lane % 2)).observe(i * 1e-4)
                    # metric *creation* races the scrape's dict iteration
                    registry.counter(f"hammer.new_{i % 64}_total").inc()
                    registry.gauge("hammer.gauge").set(float(i))
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - surface any tear
                failures.append(exc)

        mutators = [threading.Thread(target=mutate, args=(lane,), daemon=True)
                    for lane in range(3)]
        for thread in mutators:
            thread.start()
        try:
            deadline = time.monotonic() + 2.0
            scrapes = 0
            while time.monotonic() < deadline:
                text = export_prometheus(registry)
                scrapes += 1
                self._assert_consistent(text)
            assert scrapes >= 10
        finally:
            stop.set()
            for thread in mutators:
                thread.join(timeout=5.0)
        assert not failures, failures

    def _assert_consistent(self, text: str) -> None:
        """Cumulative buckets monotone; _count equals the +Inf cumulative."""
        series: dict[tuple, list[int]] = {}
        counts: dict[tuple, int] = {}
        for line in text.splitlines():
            match = self.BUCKET_RE.match(line)
            if match:
                labels = tuple(part for part in
                               match.group("labels").split(",")
                               if not part.startswith("le="))
                series.setdefault((match.group("name"), labels),
                                  []).append(int(match.group("value")))
            elif "_count{" in line or re.match(r"^\w+_count ", line):
                name, _, value = line.rpartition(" ")
                base = name.split("{")[0][: -len("_count")]
                labels = tuple(part for part in
                               (name.split("{", 1) + [""])[1].rstrip("}")
                               .split(",") if part)
                counts[(base, labels)] = int(value)
        assert series, "hammer scrape saw no histogram series"
        for key, cumulative in series.items():
            assert cumulative == sorted(cumulative), \
                f"non-monotone cumulative buckets for {key}"
            assert counts[key] == cumulative[-1], \
                f"_count != le=+Inf cumulative for {key}"


# ----------------------------------------------------------------------
# /progress parity across executors (satellite 3)
# ----------------------------------------------------------------------
def _assert_progress_matches_result(outcome) -> None:
    doc = outcome.progress
    assert doc is not None
    validate_progress(doc)
    assert doc["state"] == "done"
    result = outcome.result
    assert doc["done"] == doc["total"] == sum(
        r.injections for r in result.per_layer.values())
    for layer, stats in result.per_layer.items():
        entry = doc["layers"][layer]
        assert entry["done"] == entry["total"] == stats.injections
        # bit-identical: same seq-ordered float fold as aggregate_layer
        assert entry["sdc_rate"] == stats.sdc_rate
        lo, hi = entry["sdc_ci95"]
        assert 0.0 <= lo <= hi <= 1.0


class TestProgressParity:
    def test_serial_endpoint_matches_result(self, model, tmp_path):
        outcome = run_mode("serial", model, "fp16", _make_data(), tmp_path,
                           injections_per_layer=INJECTIONS, seed=SEED,
                           serve=True)
        _assert_progress_matches_result(outcome)

    @needs_fork
    @pytest.mark.parametrize("mode", ["parallel2", "serial-k4",
                                      "parallel2-k4"])
    def test_executor_modes_expose_identical_progress(self, mode, model,
                                                      tmp_path):
        data = _make_data()
        serial_dir = tmp_path / "serial"
        mode_dir = tmp_path / mode
        serial_dir.mkdir()
        mode_dir.mkdir()
        serial = run_mode("serial", model, "fp16", data, serial_dir,
                          injections_per_layer=INJECTIONS, seed=SEED,
                          serve=True)
        other = run_mode(mode, model, "fp16", data, mode_dir,
                         injections_per_layer=INJECTIONS, seed=SEED,
                         serve=True)
        _assert_progress_matches_result(other)
        assert other.progress["done"] == serial.progress["done"]
        assert other.progress["total"] == serial.progress["total"]
        for layer, entry in serial.progress["layers"].items():
            got = other.progress["layers"][layer]
            assert got["done"] == entry["done"]
            assert got["sdc_rate"] == entry["sdc_rate"]
            assert got["sdc_ci95"] == entry["sdc_ci95"]


# ----------------------------------------------------------------------
# graceful lifecycle under interruption (satellite 2)
# ----------------------------------------------------------------------
@needs_fork
def test_sigint_mid_campaign_keeps_partial_result_and_no_dangling_thread(
        model, tmp_path, fresh_global_registry):
    from repro.exec import ExecConfig
    from tests.differential import _InterruptAfter

    images, labels = _make_data()
    journal = str(tmp_path / "interrupt.journal.jsonl")
    cfg = ExecConfig(workers=2, on_record=_InterruptAfter(3))
    with GoldenEye(model, "fp16") as platform:
        result = run_campaign(platform, images, labels,
                              injections_per_layer=INJECTIONS, seed=SEED,
                              journal=journal, exec_config=cfg,
                              serve="127.0.0.1:0")
    assert result.interrupted
    assert result.journal_path == journal
    assert sum(r.injections for r in result.per_layer.values()) >= 3
    # the owned server must be gone: no dangling thread, journal resumable
    assert not any(t.name == "repro-live-obs" and t.is_alive()
                   for t in threading.enumerate())
    doc = journal_progress(journal)
    assert doc["done"] >= 3


def test_campaign_serve_port_in_use_raises(model, fresh_global_registry):
    images, labels = _make_data()
    with LiveServer.start("127.0.0.1:0") as server:
        with GoldenEye(model, "fp16") as platform:
            with pytest.raises(CampaignError, match=re.escape(server.address)):
                run_campaign(platform, images, labels,
                             injections_per_layer=1, seed=SEED,
                             serve=server.address)


def test_caller_owned_server_survives_campaign(model, fresh_global_registry):
    """serve=<LiveServer> leaves lifecycle to the caller (repro serve-style)."""
    images, labels = _make_data()
    with LiveServer.start("127.0.0.1:0") as server:
        with GoldenEye(model, "fp16") as platform:
            result = run_campaign(platform, images, labels,
                                  injections_per_layer=2, seed=SEED,
                                  serve=server)
        doc = fetch_progress(server.url)  # still serving after the return
        assert doc["state"] == "done"
        assert doc["done"] == sum(
            r.injections for r in result.per_layer.values())


# ----------------------------------------------------------------------
# journal mode + the watch dashboard
# ----------------------------------------------------------------------
class TestWatch:
    @pytest.fixture()
    def journaled_campaign(self, model, tmp_path, fresh_global_registry):
        images, labels = _make_data()
        journal = str(tmp_path / "watch.journal.jsonl")
        with GoldenEye(model, "fp16") as platform:
            result = run_campaign(platform, images, labels,
                                  injections_per_layer=INJECTIONS,
                                  seed=SEED, journal=journal)
        return journal, result

    def test_journal_progress_reconstructs_campaign(self, journaled_campaign):
        journal, result = journaled_campaign
        doc = journal_progress(journal)
        validate_progress(doc)
        assert doc["state"] == "journal"
        total = sum(r.injections for r in result.per_layer.values())
        assert doc["done"] == total
        for layer, stats in result.per_layer.items():
            assert doc["layers"][layer]["sdc_rate"] == stats.sdc_rate

    def test_render_dashboard_shows_bars_and_ci(self):
        p = CampaignProgress(format_name="fp16")
        p.set_plan({"fc1": 4, "fc2": 4})
        p.record("fc1", 0, 1.0)
        p.record("fc1", 1, 0.0)
        frame = render_dashboard(p.snapshot())
        assert "fc1" in frame and "fc2" in frame
        assert "[#" in frame and "CI95" in frame
        assert "2/8" in frame  # overall done/total

    def test_watch_once_against_journal(self, journaled_campaign, capsys):
        from repro.cli import main
        journal, _ = journaled_campaign
        assert main(["watch", journal, "--once"]) == 0
        out = capsys.readouterr().out
        assert "SDC" in out and "journal" in out

    def test_watch_once_against_live_url(self, capsys):
        from repro.cli import main
        progress = CampaignProgress(format_name="fp16")
        progress.set_plan({"fc1": 2})
        progress.record("fc1", 0, 1.0)
        with LiveServer.start("127.0.0.1:0") as server:
            server.attach(progress, MetricsRegistry())
            assert main(["watch", server.address, "--once"]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out

    def test_watch_bad_target_errors(self, capsys):
        from repro.cli import main
        assert main(["watch", "no-such-file", "--once"]) == 2

    def test_watch_exits_when_campaign_finishes(self):
        from repro.cli import main
        progress = CampaignProgress()
        progress.set_plan({"fc1": 1})
        progress.record("fc1", 0, 0.0)
        progress.finish("done")
        with LiveServer.start("127.0.0.1:0") as server:
            server.attach(progress, MetricsRegistry())
            assert main(["watch", server.url, "--interval", "0.1"]) == 0


# ----------------------------------------------------------------------
# live endpoints during a real --serve campaign
# ----------------------------------------------------------------------
def test_serve_campaign_streams_sse_and_answers_all_endpoints(
        model, tmp_path, fresh_global_registry):
    """One serial campaign against a caller-owned server: /metrics,
    /healthz and /events all answer while records flow."""
    images, labels = _make_data()
    with LiveServer.start("127.0.0.1:0") as server:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        conn.request("GET", "/events")
        response = conn.getresponse()
        assert response.fp.readline().startswith(b"retry:")
        with GoldenEye(model, "fp16") as platform:
            run_campaign(platform, images, labels, injections_per_layer=2,
                         seed=SEED, serve=server)
        # every injection emitted one campaign.injection SSE event
        assert server.events_published > 0
        saw_injection = False
        for _ in range(200):
            line = response.fp.readline()
            if line == b"event: campaign.injection\n":
                saw_injection = True
                break
        assert saw_injection
        conn.close()
        metrics = urllib.request.urlopen(server.url + "/metrics").read()
        assert b"campaign_injections_total" in metrics
        health = json.loads(
            urllib.request.urlopen(server.url + "/healthz").read())
        assert health["status"] == "ok"


# ----------------------------------------------------------------------
# journal_progress on fault-model journals (burst/stuck/ECC records,
# batch-framed lines)
# ----------------------------------------------------------------------
class TestJournalProgressFaultModels:
    """The journal watch surface must fold PR-9 fault-model records.

    Records written under the non-default injectors carry extra keys —
    ``fault`` (the model spec), ``op`` (stuck-at writes, not xor),
    ``persist`` (temporal faults) and ``ecc`` (protection verdicts) — and
    the parallel executor frames whole worker batches as single
    ``batch`` journal lines.  ``journal_progress`` must reconstruct
    done/total and the per-layer SDC estimate identically through all of
    it.
    """

    RECORDS = [
        {"layer": "conv", "seq": 0, "site": 3, "bits": [1, 2],
         "fault": "burst2", "ecc": "corrected", "sdc_rate": 0.0,
         "mismatch_rate": 0.0, "delta_loss": 0.0, "dur_s": 0.25},
        {"layer": "conv", "seq": 1, "site": 9, "bits": [4, 5],
         "fault": "burst2", "ecc": "silent", "sdc_rate": 1.0,
         "mismatch_rate": 0.5, "delta_loss": 2.0, "dur_s": 0.25},
        {"layer": "fc", "seq": 0, "site": 1, "bits": [7],
         "fault": "stuck1", "op": "or", "persist": 2, "ecc": "detected",
         "sdc_rate": 1.0, "mismatch_rate": 1.0, "delta_loss": 3.0,
         "dur_s": 0.5},
    ]

    def _journal(self, tmp_path, framing):
        from repro.core.campaign import CampaignSpec
        from repro.exec.journal import CampaignJournal
        images, labels = _make_data()
        fingerprint = CampaignSpec(
            seed=SEED, injections_per_layer=2, fault_model="burst2",
            protect="secded").fingerprint("fp16", ["conv", "fc"], images,
                                          labels)
        path = str(tmp_path / f"fault-{framing}.journal.jsonl")
        journal, completed = CampaignJournal.open(path, fingerprint)
        assert completed == {}
        if framing == "batched":
            journal.append_batch(self.RECORDS)
        elif framing == "mixed":
            journal.append_record(self.RECORDS[0])
            journal.append_batch(self.RECORDS[1:])
        else:
            for record in self.RECORDS:
                journal.append_record(record)
        journal.close()
        return path

    @pytest.mark.parametrize("framing", ["per-record", "batched", "mixed"])
    def test_fault_records_fold_identically(self, tmp_path, framing):
        doc = journal_progress(self._journal(tmp_path, framing))
        validate_progress(doc)
        assert doc["state"] == "journal"
        assert doc["done"] == 3 and doc["total"] == 4  # 2 layers x 2 planned
        assert doc["layers"]["conv"]["done"] == 2
        assert doc["layers"]["conv"]["sdc_rate"] == pytest.approx(0.5)
        assert doc["layers"]["fc"]["sdc_rate"] == pytest.approx(1.0)
        lo, hi = doc["layers"]["conv"]["sdc_ci95"]
        assert (lo, hi) == wilson_interval(1.0, 2)
        assert doc["injections_per_sec"] == pytest.approx(3 / 1.0)

    def test_batch_framing_equals_per_record(self, tmp_path):
        per_record = journal_progress(self._journal(tmp_path, "per-record"))
        batched = journal_progress(self._journal(tmp_path, "batched"))
        for key in ("done", "total", "layers", "elapsed_s"):
            assert per_record[key] == batched[key]

    def test_unknown_future_fault_model_skipped_not_misfolded(self,
                                                              tmp_path):
        path = self._journal(tmp_path, "per-record")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "injection", "layer": "conv",
                                 "seq": 3, "fault": "quantum9",
                                 "sdc_rate": 1.0}) + "\n")
        doc = journal_progress(path)
        assert doc["done"] == 3  # the future record didn't count
        assert doc["layers"]["conv"]["sdc_rate"] == pytest.approx(0.5)

    def test_real_burst_protected_campaign_journal(self, model, tmp_path,
                                                   fresh_global_registry):
        """End to end: a burst2+secded campaign's journal reconstructs."""
        images, labels = _make_data()
        journal = str(tmp_path / "burst.journal.jsonl")
        with GoldenEye(model, "fp16") as platform:
            result = run_campaign(platform, images, labels,
                                  injections_per_layer=3, seed=SEED,
                                  journal=journal, fault_model="burst2",
                                  protect="secded")
        # records arrive one per line or framed in batch lines
        records = list(load_journal(journal)[1].values())
        assert records and all(r.get("fault") == "burst2" for r in records)
        assert any("ecc" in r for r in records)
        doc = journal_progress(journal)
        validate_progress(doc)
        assert doc["done"] == sum(
            r.injections for r in result.per_layer.values())
        for layer, stats in result.per_layer.items():
            assert doc["layers"][layer]["sdc_rate"] == pytest.approx(
                stats.sdc_rate)

    @needs_fork
    def test_parallel_batch_framed_journal(self, model, tmp_path,
                                           fresh_global_registry):
        """--workers 2 journals batch-framed lines; the watch still folds."""
        images, labels = _make_data()
        journal = str(tmp_path / "parallel.journal.jsonl")
        with GoldenEye(model, "fp16") as platform:
            result = run_campaign(platform, images, labels,
                                  injections_per_layer=3, seed=SEED,
                                  journal=journal, workers=2,
                                  fault_model="burst2", protect="secded")
        raw = [json.loads(line)
               for line in open(journal, encoding="utf-8")]
        assert any(e.get("type") == "batch" for e in raw)
        inside = [r for e in raw if e.get("type") == "batch"
                  for r in e["records"]]
        assert any(r.get("fault") == "burst2" for r in inside)
        doc = journal_progress(journal)
        validate_progress(doc)
        assert doc["done"] == sum(
            r.injections for r in result.per_layer.values())
