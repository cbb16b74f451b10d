"""Tests for the observability subsystem (repro.obs).

Covers the metrics registry primitives (Counter/Gauge/Histogram, labels,
scoped per-run views), the span tracer + JSONL sink (+ the allocation-free
null tracer), the per-layer profiler, the three exporters, and the
instrumentation threaded through the platform (campaign spans, one trace
event per injection, resume-cache counters and gauges,
CampaignResult.telemetry).
"""

from __future__ import annotations

import io
import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.core import ActivationCache, GoldenEye, RangeDetector, run_campaign
from repro.core.campaign import golden_inference
from repro.core.resume import COUNTS, hit_rate
from repro.models import simple_cnn
from repro.obs import (
    BroadcastTracer,
    BufferingTracer,
    Counter,
    JsonlSink,
    LayerProfiler,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Tracer,
    atomic_write_text,
    build_report,
    configure_tracing,
    current_span_id,
    export_json,
    export_prometheus,
    get_tracer,
    load_metrics,
    load_trace_events,
    merge_metric_delta,
    render_report,
    seed_span_context,
    set_tracer,
    sink_path,
    validate_report,
    write_bench_json,
    write_json,
)
from repro.obs.report import REPORT_SCHEMA


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def model():
    return simple_cnn(num_classes=4, image_size=8, seed=0)


@pytest.fixture
def data(rng):
    return (rng.standard_normal((8, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=8))


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_monotonic(self, registry):
        c = registry.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="up"):
            c.inc(-1)

    def test_gauge_up_down_set(self, registry):
        g = registry.gauge("bytes")
        g.set(100)
        g.inc(5)
        g.dec(25)
        assert g.value == 80

    def test_histogram_stats_and_buckets(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)
        assert h.mean == pytest.approx(1.85)
        assert h.min == 0.05 and h.max == 5.0
        assert h.bucket_counts == [1, 1, 1]  # <=0.1, <=1.0, +inf

    def test_same_name_labels_returns_same_object(self, registry):
        assert registry.counter("x", layer="a") is registry.counter("x", layer="a")
        assert registry.counter("x", layer="a") is not registry.counter("x", layer="b")

    def test_kind_collision_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError, match="counter"):
            registry.gauge("x")
        with pytest.raises(TypeError, match="counter"):
            registry.histogram("x")

    def test_get_does_not_create(self, registry):
        assert registry.get("nope") is None
        registry.counter("yes").inc()
        assert registry.get("yes").value == 1
        assert len(registry) == 1

    def test_collect_snapshot(self, registry):
        registry.counter("a.b", kind="v").inc(2)
        registry.gauge("a.c").set(7)
        snap = registry.collect()
        assert snap["a.b"][0] == {"type": "counter", "labels": {"kind": "v"},
                                  "value": 2.0}
        assert snap["a.c"][0]["value"] == 7.0
        assert list(registry.collect(prefix="a.c")) == ["a.c"]

    def test_thread_safety_smoke(self, registry):
        c = registry.counter("contended")

        def worker():
            for _ in range(200):
                registry.counter("contended").inc()
                registry.histogram("h", t="1").observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * 200
        assert registry.histogram("h", t="1").count == 8 * 200

    def test_run_scope_deltas(self, registry):
        registry.counter("n").inc(10)
        registry.histogram("h").observe(1.0)
        with registry.run_scope("run-1") as scope:
            registry.counter("n").inc(3)
            registry.histogram("h").observe(2.0)
            registry.gauge("g").set(42)
        delta = scope.delta()
        assert delta["n"][0]["value"] == 3.0       # not 13
        assert delta["h"][0]["count"] == 1         # not 2
        assert delta["h"][0]["sum"] == pytest.approx(2.0)
        assert delta["g"][0]["value"] == 42.0      # gauges report state
        assert scope.started_at <= scope.ended_at

    def test_run_scope_reports_only_its_own_extremes(self, registry):
        h = registry.histogram("h")
        h.observe(1.0)
        h.observe(9.0)
        with registry.run_scope("inside") as scope:
            h.observe(5.0)
        entry = scope.delta()["h"][0]
        assert (entry["count"], entry["min"], entry["max"]) == (1, None, None)
        with registry.run_scope("new-max") as scope:
            h.observe(0.5)
            h.observe(12.0)
        entry = scope.delta()["h"][0]
        assert (entry["min"], entry["max"]) == (0.5, 12.0)
        with registry.run_scope("fresh") as scope:
            registry.histogram("new").observe(3.0)
        entry = scope.delta()["new"][0]
        assert (entry["min"], entry["max"]) == (3.0, 3.0)
        parent = MetricsRegistry()
        merge_metric_delta({"h": [{"type": "histogram", "labels": {},
                                   "count": 1, "sum": 5.0, "min": None,
                                   "max": None}]}, parent)
        assert parent.histogram("h").count == 1
        assert parent.histogram("h").max == -math.inf

    def test_run_scope_skips_untouched_metrics(self, registry):
        registry.counter("quiet").inc(5)
        with registry.run_scope("r") as scope:
            pass
        assert "quiet" not in scope.delta()


# ----------------------------------------------------------------------
# tracer + JSONL sink
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_and_event_schema(self):
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf))
        with tracer.span("campaign.run", kind="value") as span:
            tracer.event("campaign.injection", layer="fc", site=3,
                         bits=[0, 4], delta_loss=0.5)
            span.set(performed=1)
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [e["type"] for e in events] == ["event", "span"]
        inj, run = events
        assert inj["name"] == "campaign.injection"
        assert inj["bits"] == [0, 4] and inj["site"] == 3
        assert run["name"] == "campaign.run"
        assert run["dur_s"] >= 0 and run["performed"] == 1 and run["kind"] == "value"
        assert all("ts" in e for e in events)

    def test_span_records_error(self):
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf))
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        event = json.loads(buf.getvalue())
        assert event["error"] == "RuntimeError"

    def test_numpy_attrs_serialise(self):
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf))
        tracer.event("e", scalar=np.float32(1.5), arr=np.arange(3),
                     i=np.int64(7))
        event = json.loads(buf.getvalue())
        assert event["scalar"] == 1.5
        assert event["arr"] == [0, 1, 2]
        assert event["i"] == 7

    def test_span_durations_mirrored_to_registry(self, registry):
        tracer = Tracer(JsonlSink(io.StringIO()), registry=registry)
        with tracer.span("work"):
            pass
        hist = registry.get("trace.span_seconds", span="work")
        assert hist is not None and hist.count == 1

    def test_null_tracer_is_noop_and_shared(self):
        tracer = NullTracer()
        assert not tracer.enabled
        span1 = tracer.span("a", k=1)
        span2 = tracer.span("b")
        assert span1 is span2  # shared, allocation-free
        with span1 as s:
            s.set(x=1)  # must not raise
        tracer.event("e", any="thing")
        tracer.close()

    def test_configure_tracing_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = configure_tracing(str(path))
        try:
            assert get_tracer() is tracer and tracer.enabled
            tracer.event("hello", n=1)
        finally:
            tracer.close()
            assert configure_tracing(None) is NULL_TRACER
        assert json.loads(path.read_text())["name"] == "hello"
        assert get_tracer() is NULL_TRACER

    def test_sink_counts_and_file_ownership(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.write({"a": 1})
            sink.write({"b": 2})
            assert sink.events_written == 2
        assert len(path.read_text().splitlines()) == 2


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfiler:
    #: what a profiler wraps on the platform's objects while attached
    WRAPPED = {"forward", "real_to_format_tensor", "clamp",
               "apply_neuron_injections", "apply_lane_injection",
               "apply_lane_injections"}

    @staticmethod
    def _calls(prof, phase):
        return {layer: profile["phases"][phase]["calls"]
                for layer, profile in prof.as_dict().items()}

    def test_phases_recorded_under_goldeneye(self, model, data):
        """Under a profiler the campaign keeps K > 1 and the output resume:
        every layer computes once in the golden pass and once per chunk
        injected upstream of it, and books one inject call per pass,
        including the chunk served from its own cached output."""
        images, labels = data
        prof = LayerProfiler()
        with GoldenEye(model, "fp16", profiler=prof) as ge:
            result = run_campaign(ge, images, labels, injections_per_layer=4,
                                  seed=0)
        assert result.telemetry["fault_batch"] == 4
        assert self._calls(prof, "compute") == {"conv1": 1, "conv2": 2,
                                                "fc": 3}
        assert self._calls(prof, "quantize") == self._calls(prof, "compute")
        assert self._calls(prof, "inject") == {"conv1": 2, "conv2": 3, "fc": 4}
        for profile in prof.as_dict().values():
            compute = profile["phases"]["compute"]
            assert compute["total_s"] > 0 and compute["ns_per_element"] > 0

    def test_activation_footprints(self, model, data):
        images, labels = data
        prof = LayerProfiler()
        with GoldenEye(model, "fp16", profiler=prof) as ge:
            golden_inference(ge, images, labels)
        d = prof.as_dict()
        for layer, entry in d.items():
            assert entry["activation_bytes"] == 4 * np.prod(entry["output_shape"])
            assert entry["output_shape"][0] == 8  # batch axis preserved

    def test_detach_removes_pre_hooks(self, model, data):
        """Attached, a profiler adds no hook of its own; detached, it leaves
        no wrapper behind."""
        images, labels = data
        prof = LayerProfiler()
        ge = GoldenEye(model, "fp16", profiler=prof,
                       range_detector=RangeDetector())
        objects = [ge.injector, ge.detector] + [
            obj for state in ge.layers.values()
            for obj in (state.module, state.neuron_format)]
        with ge:
            golden_inference(ge, images, labels)
            for state in ge.layers.values():
                assert not state.module._forward_pre_hooks
                assert list(state.module._forward_hooks) == [
                    state.hook_handle.id]
            assert set().union(*map(vars, objects)) >= self.WRAPPED
        for state in ge.layers.values():
            assert not state.module._forward_pre_hooks
            assert not state.module._forward_hooks
        assert not set().union(*map(vars, objects)) & self.WRAPPED

    def test_counters_reach_the_registry_without_publish(
            self, model, data, fresh_global_registry):
        images, labels = data
        prof = LayerProfiler()
        with GoldenEye(model, "int8", profiler=prof) as ge:
            run_campaign(ge, images, labels, injections_per_layer=1, seed=0)
        stats = prof.as_dict()["fc"]["phases"]["quantize"]
        for name, field in (("profile.phase_seconds", "total_s"),
                            ("profile.phase_elements", "elements"),
                            ("profile.phase_calls", "calls")):
            counter = fresh_global_registry.get(name, layer="fc",
                                                phase="quantize")
            assert isinstance(counter, Counter)
            assert counter.value == stats[field] > 0
        table = prof.table()
        assert "fc" in table and "quantize" in table and "ns/elem" in table

    def test_a_second_profiler_books_only_its_own_run(self, data):
        """Readouts are the registry's delta since attach: a second profiled
        run in the process does not count the first one's calls."""
        images, labels = data
        for _ in range(2):
            prof = LayerProfiler()
            with GoldenEye(simple_cnn(num_classes=4, image_size=8, seed=0),
                           "fp16", profiler=prof) as ge:
                golden_inference(ge, images, labels)
            assert self._calls(prof, "compute") == {"conv1": 1, "conv2": 1,
                                                    "fc": 1}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="parallel executor requires the fork start method")
    def test_worker_bookings_reach_the_parent(self, model, data):
        """A 2-worker campaign's profile holds the serial one's element
        totals per (layer, phase): the workers' bookings come home."""
        images, labels = data
        elements = []
        for workers in (1, 2):
            prof = LayerProfiler()
            with GoldenEye(model, "bfp_e5m5_b16", profiler=prof) as ge:
                result = run_campaign(ge, images, labels, seed=0,
                                      injections_per_layer=12,
                                      workers=workers)
            elements.append({
                (layer, phase): stats["elements"]
                for layer, profile in prof.as_dict().items()
                for phase, stats in profile["phases"].items()})
        assert elements[1] == elements[0]
        assert result.telemetry["fault_batch"] > 1
        # the workers' replayed chunks, not the golden pass alone
        assert self._calls(prof, "compute")["fc"] > 1

    def test_empty_profiler_table(self):
        assert "no layers profiled" in LayerProfiler().table()

    def test_total_seconds_by_phase(self, model, data):
        images, labels = data
        prof = LayerProfiler()
        with GoldenEye(model, "int8", profiler=prof) as ge:
            golden_inference(ge, images, labels)
        total = prof.total_seconds()
        assert total == pytest.approx(
            sum(prof.total_seconds(p)
                for p in ("compute", "quantize", "inject", "detect")))

    def test_no_profiler_means_no_pre_hooks(self, model, data):
        images, labels = data
        ge = GoldenEye(model, "fp16")
        with ge:
            for state in ge.layers.values():
                assert not state.module._forward_pre_hooks


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _sample_registry(self):
        registry = MetricsRegistry()
        registry.counter("injection.flips_total", kind="value",
                         location="neuron").inc(5)
        registry.gauge("resume.hit_rate").set(0.75)
        h = registry.histogram("campaign.injection_seconds",
                               buckets=(0.01, 0.1), layer="fc")
        h.observe(0.005)
        h.observe(0.05)
        h.observe(1.0)
        return registry

    def test_export_json_roundtrips(self, tmp_path):
        registry = self._sample_registry()
        path = tmp_path / "m.json"
        payload = write_json(str(path), registry, extra={"run": "t"})
        loaded = json.loads(path.read_text())
        assert loaded["run"] == "t"
        metrics = loaded["metrics"]
        assert metrics["resume.hit_rate"][0]["value"] == 0.75
        assert metrics["injection.flips_total"][0]["labels"] == {
            "kind": "value", "location": "neuron"}
        assert metrics["campaign.injection_seconds"][0]["count"] == 3
        assert payload["metrics"] == metrics

    def test_export_prometheus_format(self):
        text = export_prometheus(self._sample_registry())
        assert '# TYPE injection_flips_total counter' in text
        assert 'injection_flips_total{kind="value",location="neuron"} 5.0' in text
        assert "# TYPE resume_hit_rate gauge" in text
        # cumulative buckets: 1 <= 0.01, 2 <= 0.1, 3 total
        assert 'campaign_injection_seconds_bucket{layer="fc",le="0.01"} 1' in text
        assert 'campaign_injection_seconds_bucket{layer="fc",le="0.1"} 2' in text
        assert 'campaign_injection_seconds_bucket{layer="fc",le="+Inf"} 3' in text
        assert 'campaign_injection_seconds_count{layer="fc"} 3' in text

    def test_prometheus_sanitises_names(self):
        registry = MetricsRegistry()
        registry.counter("weird-name.with stuff", **{"bad label": "q\"uote"}).inc()
        text = export_prometheus(registry)
        assert "weird_name_with_stuff" in text
        assert 'bad_label="q\\"uote"' in text

    def test_write_bench_json(self, tmp_path):
        path = write_bench_json("demo", {"speedup": 2.5},
                                directory=str(tmp_path))
        loaded = json.loads(open(path).read())
        assert loaded["bench"] == "demo"
        assert loaded["speedup"] == 2.5
        assert path.endswith("BENCH_demo.json")


# ----------------------------------------------------------------------
# platform instrumentation end-to-end
# ----------------------------------------------------------------------
class TestPlatformInstrumentation:
    def test_campaign_trace_has_one_event_per_injection(self, model, data,
                                                        tmp_path):
        images, labels = data
        path = tmp_path / "trace.jsonl"
        tracer = configure_tracing(str(path))
        try:
            with GoldenEye(model, "int8") as ge:
                result = run_campaign(ge, images, labels,
                                      injections_per_layer=4, seed=0)
        finally:
            tracer.close()
            set_tracer(NULL_TRACER)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        injections = [e for e in events if e["name"] == "campaign.injection"]
        performed = sum(r.injections for r in result.per_layer.values())
        assert len(injections) == performed == 12
        for e in injections:
            assert {"layer", "site", "bits", "delta_loss", "mismatch_rate",
                    "dur_s"} <= set(e)
        layer_spans = [e for e in events if e["name"] == "campaign.layer"]
        assert {s["layer"] for s in layer_spans} == set(result.per_layer)
        run_spans = [e for e in events if e["name"] == "campaign.run"]
        assert len(run_spans) == 1
        assert run_spans[0]["injections"] == performed
        assert any(e["name"] == "goldeneye.capture_golden" for e in events)

    def test_campaign_telemetry_field(self, model, data):
        images, labels = data
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, images, labels,
                                  injections_per_layer=3, seed=0)
        tel = result.telemetry
        assert tel is not None
        assert tel["injections"] == 9
        assert tel["wall_seconds"] > 0
        assert tel["injections_per_sec"] > 0
        assert set(tel["per_layer"]) == set(result.per_layer)
        for layer, entry in tel["per_layer"].items():
            assert entry["seconds"] > 0
            assert entry["injections"] == result.per_layer[layer].injections

    def test_campaign_metrics_in_registry(self, model, data,
                                          fresh_global_registry):
        images, labels = data
        with GoldenEye(model, "int8") as ge:
            run_campaign(ge, images, labels, injections_per_layer=3, seed=0)
        registry = fresh_global_registry
        flips = registry.get("injection.flips_total",
                             kind="value", location="neuron")
        assert flips is not None and flips.value == 9
        assert registry.get("campaign.injections_total",
                            kind="value", location="neuron").value == 9
        assert registry.get("resume.hit_rate").value == 1.0
        assert registry.get("campaign.injections_per_sec").value > 0
        assert registry.get("goldeneye.attaches_total").value == 1
        hist = registry.get("campaign.injection_seconds", layer="fc")
        assert hist is not None and hist.count == 3

    def test_cache_counts_are_registry_counters(self, fresh_global_registry):
        cache = ActivationCache(budget_bytes=16)
        cache.put(0, np.zeros(2, dtype=np.float32))
        cache.get(0)
        cache.get(1)
        cache.put(1, np.zeros(5, dtype=np.float32))  # over budget: skipped
        cache.put(2, np.zeros(4, dtype=np.float32))  # evicts key 0
        booked = {name: fresh_global_registry.get(f"resume.{name}")
                  for name in COUNTS}
        assert all(type(c) is Counter for c in booked.values())
        assert {name: c.value for name, c in booked.items() if c.value} == {
            "hits": 1, "misses": 1, "skipped": 1, "evictions": 1}

    def test_resume_gauges_read_the_campaign_counts(self, model, data,
                                                    fresh_global_registry):
        registry = fresh_global_registry
        with GoldenEye(model, "int8") as ge:
            first = run_campaign(ge, *data, injections_per_layer=3, seed=0)
            second = run_campaign(ge, *data, injections_per_layer=2, seed=1)
        stats = second.resume_stats
        assert stats["hits"] > 0
        # the counters hold both campaigns, the gauges the last one's rates
        assert {name: registry.get(f"resume.{name}").value
                for name in COUNTS} == {
            name: first.resume_stats[name] + stats[name] for name in COUNTS}
        assert registry.get("resume.hit_rate").value == hit_rate(
            stats["hits"], stats["misses"])
        assert registry.get("resume.replay_rate").value == hit_rate(
            stats["replayed"], stats["recomputed"])
        assert registry.get("resume.cache_bytes").value > 0
        assert registry.get("resume.cache_entries").value > 0

    def test_hit_rate_zero_division_safe(self):
        assert hit_rate(0, 0) == 0.0
        assert hit_rate(30, 10) == 0.75

    def test_weight_conversion_timing_recorded(self, model, data,
                                               fresh_global_registry):
        with GoldenEye(model, "bfp_e5m5_b16") as ge:
            pass
        hist = fresh_global_registry.get("goldeneye.weight_convert_seconds",
                                         layer="conv1")
        assert hist is not None and hist.count == 1

    def test_dse_instrumentation(self, model, data, fresh_global_registry):
        from repro.core import binary_tree_search
        images, labels = data
        binary_tree_search(model, images, labels, family="int", threshold=0.5,
                           bitwidths=(4, 8), max_nodes=4)
        nodes = fresh_global_registry.get("dse.nodes_total", family="int")
        assert nodes is not None and nodes.value >= 1
        assert fresh_global_registry.get("dse.node_seconds",
                                         family="int").count == nodes.value


# ----------------------------------------------------------------------
# NaN guards on the metric primitives
# ----------------------------------------------------------------------
class TestNaNGuards:
    def test_counter_nan_inc_counted_not_accumulated(self, registry):
        c = registry.counter("c")
        c.inc(2)
        c.inc(float("nan"))
        assert c.value == 2.0
        assert c.nan_count == 1
        assert c.snapshot() == {"value": 2.0, "nan_count": 1}

    def test_gauge_set_nan_keeps_previous_state(self, registry):
        g = registry.gauge("g")
        g.set(5.0)
        g.set(float("nan"))
        assert g.value == 5.0
        assert g.nan_count == 1

    def test_histogram_observe_nan_never_poisons_stats(self, registry):
        h = registry.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        h.observe(float("nan"))
        assert h.count == 1
        assert h.sum == 0.5 and h.mean == 0.5
        assert h.nan_count == 1
        assert sum(h.bucket_counts) == 1  # NaN landed in no bucket

    def test_nan_count_absent_from_snapshot_when_zero(self, registry):
        assert "nan_count" not in registry.counter("k").snapshot()
        assert "nan_count" not in registry.gauge("g").snapshot()
        assert "nan_count" not in registry.histogram("h").snapshot()

    def test_run_scope_carries_nan_count_deltas(self, registry):
        h = registry.histogram("h")
        h.observe(float("nan"))  # before the scope
        with registry.run_scope("r") as scope:
            h.observe(float("nan"))
        entry = scope.delta()["h"][0]
        assert entry["count"] == 0
        assert entry["nan_count"] == 1  # the scope's NaN only, not 2

    def test_exports_stay_finite_after_nan_observations(self, registry):
        registry.histogram("h", buckets=(1.0,)).observe(float("nan"))
        registry.gauge("g").set(float("nan"))
        text = export_prometheus(registry)
        assert "nan" not in text.lower().replace("nan_count", "")
        assert json.dumps(export_json(registry)["metrics"])  # serialisable


# ----------------------------------------------------------------------
# cross-process metric merging (the worker -> supervisor wire format)
# ----------------------------------------------------------------------
class TestCrossProcessMerge:
    def _worker_delta(self):
        worker = MetricsRegistry()
        # pre-existing state, as in a forked registry
        worker.counter("flips", kind="value").inc(7)
        with worker.run_scope("w0-s0-a1") as scope:
            worker.counter("flips", kind="value").inc(4)
            h = worker.histogram("lat", buckets=(0.1, 1.0))
            h.observe(0.05)
            h.observe(0.5)
            worker.gauge("resume.hit_rate").set(0.25)
        return scope.delta()

    def test_counter_deltas_fold_exactly(self):
        parent = MetricsRegistry()
        parent.counter("flips", kind="value").inc(1)
        merge_metric_delta(self._worker_delta(), parent, worker=3)
        # parent 1 + worker delta 4 (NOT the worker's absolute 11)
        assert parent.counter("flips", kind="value").value == 5.0

    def test_histogram_merge_preserves_buckets_and_stats(self):
        parent = MetricsRegistry()
        local = parent.histogram("lat", buckets=(0.1, 1.0))
        local.observe(5.0)  # parent's own observation, +inf bucket
        merge_metric_delta(self._worker_delta(), parent, worker=3)
        assert local.count == 3
        assert local.sum == pytest.approx(5.55)
        assert local.bucket_counts == [1, 1, 1]
        assert local.min == 0.05 and local.max == 5.0

    def test_gauges_are_worker_tagged_never_clobbered(self):
        parent = MetricsRegistry()
        parent.gauge("resume.hit_rate").set(0.9)
        merge_metric_delta(self._worker_delta(), parent, worker=3)
        assert parent.gauge("resume.hit_rate").value == 0.9  # untouched
        tagged = parent.get("resume.hit_rate", worker="3")
        assert tagged is not None and tagged.value == 0.25

    def test_unchanged_worker_gauges_not_in_delta(self):
        worker = MetricsRegistry()
        worker.gauge("steady").set(1.0)  # inherited state
        with worker.run_scope("r") as scope:
            worker.counter("c").inc()
        delta = scope.delta()
        assert "steady" not in delta  # no per-worker gauge registry bloat
        assert "c" in delta

    def test_merge_without_bucket_detail_attributes_to_mean(self):
        parent = MetricsRegistry()
        h = parent.histogram("lat", buckets=(0.1, 1.0))
        merge_metric_delta(
            {"lat": [{"type": "histogram", "labels": {},
                      "count": 4, "sum": 2.0}]}, parent)
        assert h.count == 4 and h.sum == 2.0
        assert h.bucket_counts[1] == 4  # mean 0.5 <= 1.0

    def test_double_merge_is_additive(self):
        parent = MetricsRegistry()
        delta = self._worker_delta()
        merge_metric_delta(delta, parent, worker=1)
        merge_metric_delta(delta, parent, worker=2)
        assert parent.counter("flips", kind="value").value == 8.0
        assert parent.histogram("lat", buckets=(0.1, 1.0)).count == 4


# ----------------------------------------------------------------------
# worker-side buffering tracer + parent-side foreign replay
# ----------------------------------------------------------------------
class TestBufferingTracer:
    def test_spans_and_events_buffer_then_drain(self):
        buf = BufferingTracer()
        assert buf.enabled
        with buf.span("exec.worker_shard", shard_id=1) as span:
            span.set(records=2)
        buf.event("campaign.injection", layer="fc", delta_loss=0.5)
        events = buf.drain()
        assert [e["type"] for e in events] == ["span", "event"]
        assert events[0]["name"] == "exec.worker_shard"
        assert events[0]["records"] == 2 and events[0]["dur_s"] >= 0
        assert events[1]["layer"] == "fc"
        assert buf.drain() == []  # drained

    def test_close_discards_buffer(self):
        buf = BufferingTracer()
        buf.event("e")
        buf.close()
        assert buf.drain() == []

    def test_emit_foreign_writes_verbatim_without_registry_mirror(
            self, registry):
        sink_io = io.StringIO()
        tracer = Tracer(JsonlSink(sink_io), registry=registry)
        tracer.emit_foreign({"type": "span", "name": "exec.worker_shard",
                             "dur_s": 1.0, "worker_id": 2})
        event = json.loads(sink_io.getvalue())
        assert event["worker_id"] == 2
        # the worker's metric delta already carries span timings; foreign
        # replay must not double-count them into trace.span_seconds
        assert registry.get("trace.span_seconds",
                            span="exec.worker_shard") is None

    def test_null_tracer_accepts_foreign_events(self):
        NULL_TRACER.emit_foreign({"type": "event", "name": "x"})  # no raise


# ----------------------------------------------------------------------
# exporter escaping + parity
# ----------------------------------------------------------------------
class TestExporterEscaping:
    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", path="a\\b", note="line1\nline2").inc()
        text = export_prometheus(registry)
        # one TYPE line + one sample line: the newline never splits a sample
        assert len(text.strip().splitlines()) == 2
        assert 'note="line1\\nline2"' in text
        assert 'path="a\\\\b"' in text

    def test_prometheus_escapes_help_text(self):
        registry = MetricsRegistry()
        registry.counter("c", help="multi\nline \\ help").inc()
        text = export_prometheus(registry)
        assert "# HELP c multi\\nline \\\\ help" in text
        assert len(text.strip().splitlines()) == 3  # HELP + TYPE + sample


class TestExporterParity:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("injection.flips_total", kind="value",
                         location="neuron").inc(5)
        registry.counter("numerics.saturated_total", layer="fc",
                         role="neuron").inc(17)
        registry.gauge("resume.hit_rate").set(0.75)
        h = registry.histogram("campaign.injection_seconds",
                               buckets=(0.01, 0.1), layer="fc")
        for v in (0.005, 0.05, 1.0):
            h.observe(v)
        return registry

    def test_json_csv_prometheus_agree_on_every_metric(self):
        registry = self._registry()
        metrics = export_json(registry)["metrics"]

        prom_samples = {}
        for line in export_prometheus(registry).splitlines():
            if not line or line.startswith("#"):
                continue
            sample, value = line.rsplit(" ", 1)
            prom_samples[sample] = float(value)

        checked = 0
        for name, entries in metrics.items():
            for snap in entries:
                labels = snap["labels"]
                prom_name = name.replace(".", "_")
                prom_labels = ("{" + ",".join(
                    f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
                    if labels else "")
                if snap["type"] == "histogram":
                    assert prom_samples[f"{prom_name}_count{prom_labels}"] == \
                        snap["count"]
                    assert prom_samples[f"{prom_name}_sum{prom_labels}"] == \
                        pytest.approx(snap["sum"])
                else:
                    assert prom_samples[f"{prom_name}{prom_labels}"] == \
                        snap["value"]
                checked += 1
        assert checked == 4  # every metric in the sample registry


# ----------------------------------------------------------------------
# campaign health reports (repro.obs.report + the `repro report` command)
# ----------------------------------------------------------------------
class TestReport:
    def _artifacts(self):
        events = [
            {"type": "event", "name": "campaign.injection", "layer": "fc",
             "site": 1, "bits": [2], "delta_loss": 0.5, "mismatch_rate": 0.25,
             "sdc_rate": 0.25, "dur_s": 0.01},
            {"type": "event", "name": "campaign.injection", "layer": "fc",
             "site": 9, "bits": [0], "delta_loss": 1.5, "mismatch_rate": 0.75,
             "sdc_rate": 0.25, "dur_s": 0.01, "worker_id": 1},
            {"type": "span", "name": "exec.worker_shard", "dur_s": 0.2,
             "worker_id": 2},
            {"type": "event", "name": "exec.quarantine", "shard_id": 3,
             "layer": "fc", "seqs": [1, 2], "reason": "timeout"},
        ]
        lbl = {"layer": "fc", "role": "neuron", "format": "fp(e4m3)"}
        metrics = {
            "campaign.injections_total": [
                {"type": "counter",
                 "labels": {"kind": "value", "location": "neuron"},
                 "value": 2.0}],
            "campaign.injections_per_sec": [
                {"type": "gauge", "labels": {}, "value": 10.0}],
            "campaign.wall_seconds": [
                {"type": "gauge", "labels": {}, "value": 0.2}],
            "injection.flips_total": [
                {"type": "counter",
                 "labels": {"kind": "value", "location": "neuron"},
                 "value": 2.0}],
            "resume.hits": [{"type": "gauge", "labels": {}, "value": 3.0}],
            "resume.misses": [{"type": "gauge", "labels": {}, "value": 1.0}],
            "exec.shards_total": [
                {"type": "counter", "labels": {}, "value": 4.0}],
            "exec.telemetry_merges_total": [
                {"type": "counter", "labels": {}, "value": 4.0}],
            "numerics.elements_total": [
                {"type": "counter", "labels": lbl, "value": 100.0}],
            "numerics.saturated_total": [
                {"type": "counter", "labels": lbl, "value": 5.0}],
        }
        return metrics, events

    def test_build_and_validate(self):
        metrics, events = self._artifacts()
        report = build_report(metrics, events)
        assert validate_report(report)
        assert report["campaign"]["injections"] == 2
        assert report["campaign"]["flips_total"] == 2.0
        assert report["cache"]["hits"] == 3.0
        assert report["execution"]["telemetry_merges"] == 4.0
        assert report["workers_seen"] == [1, 2]
        (row,) = report["layers"]
        assert row["layer"] == "fc"
        assert row["injections"] == 2
        assert row["mean_delta_loss"] == pytest.approx(1.0)
        assert row["sdc_rate"] == pytest.approx(0.25)
        assert row["numerics"]["neuron"]["saturation_rate"] == \
            pytest.approx(0.05)
        assert len(report["quarantined"]) == 1

    def test_report_from_single_artifact(self):
        metrics, events = self._artifacts()
        assert validate_report(build_report(metrics=metrics))
        trace_only = build_report(events=events)
        assert validate_report(trace_only)
        assert trace_only["campaign"]["injections"] == 2  # re-aggregated

    def test_validate_rejects_schema_drift(self):
        metrics, events = self._artifacts()
        report = build_report(metrics, events)
        bad = dict(report, schema="repro.report/v999")
        with pytest.raises(ValueError, match="schema"):
            validate_report(bad)
        missing = dict(report)
        del missing["layers"]
        with pytest.raises(ValueError, match="layers"):
            validate_report(missing)
        with pytest.raises(ValueError, match="dict"):
            validate_report([])

    def test_render_markdown_html_json(self):
        metrics, events = self._artifacts()
        report = build_report(metrics, events)
        md = render_report(report, "markdown")
        assert "# Campaign health report" in md
        assert "| fc |" in md
        assert "Quarantined shards" in md
        html = render_report(report, "html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<td>fc</td>" in html
        loaded = json.loads(render_report(report, "json"))
        assert loaded["schema"] == REPORT_SCHEMA
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(report, "pdf")

    def test_cache_section_is_the_counters_of_every_campaign(
            self, fresh_global_registry):
        """Two campaigns in one process with different hit rates: the
        section's rates derive from the counters, which sum both, and the
        last campaign's gauges are not printed beside them."""
        rng = np.random.default_rng(4)
        images = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 4, size=4)
        stats = []
        for budget in (None, 64 * 1024):  # conv1's output skips the second
            with GoldenEye(simple_cnn(num_classes=4), "fp16") as ge:
                enable = ge.enable_resume
                ge.enable_resume = lambda: enable(budget_bytes=budget)
                stats.append(run_campaign(ge, images, labels,
                                          injections_per_layer=4, seed=1,
                                          fault_batch=1).resume_stats)
        rates = [hit_rate(s["hits"], s["misses"]) for s in stats]
        replay_rates = [hit_rate(s["replayed"], s["recomputed"])
                        for s in stats]
        assert rates[0] != rates[1] and replay_rates[0] != replay_rates[1]
        total = {name: sum(s[name] for s in stats) for name in COUNTS}
        report = build_report(metrics=export_json()["metrics"])
        assert report["cache"] == total
        md = render_report(report, "markdown")
        section = md.split("## Resume cache")[1].split("##")[0]
        hits, misses = total["hits"], total["misses"]
        replayed, recomputed = total["replayed"], total["recomputed"]
        assert (f"- hit rate: {hit_rate(hits, misses):.1%} ({hits} hits / "
                f"{misses} misses)") in section
        assert (f"- replay rate: {hit_rate(replayed, recomputed):.1%} "
                f"({replayed} replayed / {recomputed} recomputed)") in section
        for gauge in ("hit_rate", "replay_rate", "cache_bytes",
                      "cache_entries"):
            assert fresh_global_registry.get(f"resume.{gauge}") is not None
            assert gauge not in section

    def test_load_artifacts_roundtrip(self, tmp_path):
        metrics, events = self._artifacts()
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"generated_at": 0, "metrics": metrics}))
        tpath = tmp_path / "t.jsonl"
        tpath.write_text("\n".join(json.dumps(e) for e in events)
                         + '\n{"torn tail')
        assert load_metrics(str(mpath)) == metrics
        assert load_trace_events(str(tpath)) == events  # torn tail tolerated

    def test_cli_report_subcommand(self, tmp_path):
        from repro.cli import main
        metrics, events = self._artifacts()
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"metrics": metrics}))
        tpath = tmp_path / "t.jsonl"
        tpath.write_text("\n".join(json.dumps(e) for e in events))
        out = tmp_path / "report.json"
        rc = main(["report", "--from-metrics", str(mpath),
                   "--from-trace", str(tpath),
                   "--render", "json", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == REPORT_SCHEMA
        assert report["sources"]["metrics"] == str(mpath)

    def test_cli_report_requires_an_artifact(self, capsys):
        from repro.cli import main
        assert main(["report"]) == 2
        assert "--from-metrics" in capsys.readouterr().err


# ----------------------------------------------------------------------
# atomic artifact writes (temp file + os.replace)
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("old content")
        assert atomic_write_text(str(target), "new content") == str(target)
        assert target.read_text() == "new content"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_chunk_iterables_stream(self, tmp_path):
        target = tmp_path / "streamed.txt"
        atomic_write_text(str(target), (f"line {i}\n" for i in range(5)))
        assert target.read_text().splitlines() == [
            f"line {i}" for i in range(5)]

    def test_failed_write_leaves_old_artifact_and_no_tmp(self, tmp_path):
        target = tmp_path / "metrics.json"
        target.write_text('{"complete": "old"}')

        def torn_chunks():
            yield '{"complete": '
            raise RuntimeError("export died mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            atomic_write_text(str(target), torn_chunks())
        # the reader's contract: complete old artifact, never a hybrid
        assert json.loads(target.read_text()) == {"complete": "old"}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_killed_mid_export_leaves_old_artifact(self, tmp_path):
        """SIGKILL during the export must not tear the target file."""
        import signal
        import subprocess
        import sys as _sys
        import time as _time

        target = tmp_path / "metrics.json"
        target.write_text('{"complete": "old"}')
        script = (
            "import sys, time\n"
            "from repro.obs import atomic_write_text\n"
            "def chunks():\n"
            "    yield '{\"partial\": '\n"
            "    print('MIDWRITE', flush=True)\n"
            "    time.sleep(30)\n"
            "    yield '\"never\"}'\n"
            f"atomic_write_text({str(target)!r}, chunks())\n")
        proc = subprocess.Popen(
            [_sys.executable, "-c", script], stdout=subprocess.PIPE,
            text=True, env={**os.environ,
                            "PYTHONPATH": os.pathsep.join(_sys.path)})
        try:
            assert proc.stdout.readline().strip() == "MIDWRITE"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        deadline = _time.monotonic() + 5
        while list(tmp_path.glob("*.tmp")) and _time.monotonic() < deadline:
            _time.sleep(0.05)  # the kernel may still be reaping the child
        assert json.loads(target.read_text()) == {"complete": "old"}

    def test_write_json_is_atomic(self, tmp_path, registry):
        target = tmp_path / "m.json"
        target.write_text("old")
        registry.counter("c").inc()
        write_json(str(target), registry)
        assert json.loads(target.read_text())["metrics"]["c"]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_cli_metrics_prom_write_is_atomic(self, tmp_path):
        from repro.cli import main
        prom = tmp_path / "m.prom"
        assert main(["ranges", "--format", "fp16",
                     "--metrics-prom", str(prom)]) == 0
        assert prom.exists()
        assert list(tmp_path.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# tracer clock hygiene: monotonic durations, wall-clock timestamps
# ----------------------------------------------------------------------
class TestTracerClockHygiene:
    def test_span_records_both_clocks(self):
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf))
        with tracer.span("work"):
            pass
        tracer.event("point")
        span, event = [json.loads(l) for l in buf.getvalue().splitlines()]
        for rec in (span, event):
            assert "ts" in rec and "ts_mono" in rec
        assert span["dur_s"] >= 0.0

    def test_wall_clock_step_cannot_produce_negative_duration(
            self, registry, monkeypatch):
        """An NTP step (time.time jumping backwards) mid-span must not
        yield a negative dur_s or a negative span_seconds observation."""
        import repro.obs.tracing as tracing_mod

        wall = iter([2_000_000.0, 1_000_000.0])  # steps back 11.5 days
        monkeypatch.setattr(tracing_mod.time, "time",
                            lambda: next(wall, 1_000_000.0))
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf), registry=registry)
        with tracer.span("stepped"):
            pass
        span = json.loads(buf.getvalue())
        assert span["dur_s"] >= 0.0
        hist = registry.get("trace.span_seconds", span="stepped")
        assert hist.count == 1 and hist.sum >= 0.0

    def test_monotonic_step_clamped_to_zero(self, monkeypatch):
        """Even a (theoretically impossible) backwards monotonic reading
        is clamped: dur_s is never negative."""
        import repro.obs.tracing as tracing_mod

        mono = iter([100.0, 50.0])
        monkeypatch.setattr(tracing_mod.time, "monotonic",
                            lambda: next(mono, 50.0))
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf))
        with tracer.span("clamped"):
            pass
        assert json.loads(buf.getvalue())["dur_s"] == 0.0


# ----------------------------------------------------------------------
# hierarchical span context
# ----------------------------------------------------------------------
class TestSpanHierarchy:
    def test_nested_spans_link_parent_ids(self):
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf))
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("leaf")
        leaf, inner, outer = [json.loads(l)
                              for l in buf.getvalue().splitlines()]
        assert outer["name"] == "outer" and "parent_id" not in outer
        assert inner["parent_id"] == outer["span_id"]
        assert leaf["parent_id"] == inner["span_id"]
        assert len({outer["span_id"], inner["span_id"]}) == 2

    def test_current_span_id_tracks_stack(self):
        tracer = Tracer(JsonlSink(io.StringIO()))
        assert current_span_id() is None
        with tracer.span("a") as a:
            assert current_span_id() == a.span_id
            with tracer.span("b") as b:
                assert current_span_id() == b.span_id
            assert current_span_id() == a.span_id
        assert current_span_id() is None

    def test_seed_span_context_adopts_foreign_root(self):
        buf = io.StringIO()
        tracer = Tracer(JsonlSink(buf))
        seed_span_context("f00dd00d5eedf00d")
        try:
            with tracer.span("adopted"):
                pass
        finally:
            seed_span_context(None)
        span = json.loads(buf.getvalue())
        assert span["parent_id"] == "f00dd00d5eedf00d"
        assert current_span_id() is None

    def test_sink_path_unwraps_composition(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlSink(str(path)))
        try:
            assert sink_path(tracer) == str(path)
            wrapped = BroadcastTracer(tracer, lambda e: None)
            assert sink_path(wrapped) == str(path)
        finally:
            tracer.close()
        assert sink_path(NULL_TRACER) is None
        assert sink_path(BufferingTracer()) is None
