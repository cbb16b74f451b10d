"""Tests for the numeric-health monitors (repro.obs.numerics).

Covers the stats-sink contract on every format family (nonzero saturation
counts on synthetic overflow workloads — the ISSUE's acceptance criterion),
the flush-to-zero and NaN-remap counters, the quantization-error histograms,
the dynamic-range coverage gauges, the GoldenEye platform wiring
(attach/detach, readouts of the monitor's own run), and the disabled-path
no-op guarantee.  Monitors book into the process registry, so every test
that books runs on a fresh one (the ``registry`` fixture).
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import GoldenEye, run_campaign
from repro.formats import make_format
from repro.formats.afp import AdaptivFloat
from repro.formats.bfp import BlockFloatingPoint
from repro.formats.fp import FloatingPoint
from repro.formats.fxp import FixedPoint
from repro.formats.intq import IntegerQuant
from repro.formats.posit import Posit
from repro.models import simple_cnn, simple_mlp
from repro.obs import (
    NumericHealthMonitor,
    NumericStatsSink,
    summarize_numerics,
)
from repro.obs.numerics import ULP_ERROR_BUCKETS, summarize_collected
from repro.obs.telemetry import reset_registry


@pytest.fixture
def registry(fresh_global_registry):
    """Monitors book into the process registry: a fresh one per test."""
    return fresh_global_registry


@pytest.fixture
def monitor(registry):
    return NumericHealthMonitor()


def convert(monitor, fmt, x):
    """Install a sink on ``fmt``, convert ``x``, return the sink."""
    sink = monitor.sink("L", "neuron", fmt)
    fmt.set_stats_sink(sink)
    fmt.real_to_format_tensor(np.asarray(x, dtype=np.float32))
    return sink


# ----------------------------------------------------------------------
# per-format saturation / flush / NaN counters on synthetic workloads
# ----------------------------------------------------------------------
class TestFormatCounters:
    def test_fp_saturation_and_flush(self, monitor):
        fmt = FloatingPoint(4, 3)  # fp8 e4m3, max 240
        sink = convert(monitor, fmt,
                       [300.0, -500.0, np.inf, 1.0, 1e-40, 0.0])
        assert sink.saturated.value == 3  # two finite overflows + inf
        assert sink.flushed.value == 1    # 1e-40 below the denormal grid
        assert sink.nan_remapped.value == 0
        assert sink.elements.value == 6
        assert sink.tensors.value == 1

    def test_bfp_saturation_against_pinned_exponent_register(self, monitor):
        # 4 exponent bits: register tops out at shared exponent 8, so a
        # peak of 2^10 saturates while small block-mates flush to zero
        fmt = BlockFloatingPoint(exp_bits=4, mantissa_bits=3, block_size=4)
        sink = convert(monitor, fmt, [1024.0, 1.0, 0.5, np.nan])
        assert sink.saturated.value == 1   # 1024 > max mantissa on the grid
        assert sink.flushed.value == 2     # 1.0 and 0.5 rounded to zero
        assert sink.nan_remapped.value == 1

    def test_bfp_no_saturation_when_register_reaches(self, monitor):
        fmt = BlockFloatingPoint(exp_bits=8, mantissa_bits=7, block_size=4)
        sink = convert(monitor, fmt, [1024.0, 512.0, 8.0, 16.0])
        assert sink.saturated.value == 0

    def test_afp_saturation_is_inf_only_and_small_values_flush(self, monitor):
        fmt = AdaptivFloat(4, 3)  # bias adapts: finite peaks never saturate
        sink = convert(monitor, fmt, [np.inf, 1.0, np.nan, 1e-7])
        assert sink.saturated.value == 1   # inf beyond any movable window
        assert sink.flushed.value == 1     # 1e-7 under the adapted grid
        assert sink.nan_remapped.value == 1

    def test_afp_degenerate_all_zero_tensor(self, monitor):
        fmt = AdaptivFloat(4, 3)
        sink = convert(monitor, fmt, [0.0, np.inf, np.nan])
        assert sink.saturated.value == 1
        assert sink.nan_remapped.value == 1

    def test_int_calibrated_range_clips(self, monitor):
        fmt = IntegerQuant(8, calibration_range=1.0)  # scale pinned
        sink = convert(monitor, fmt, [2.0, -3.0, 0.001, np.nan, 0.5])
        assert sink.saturated.value == 2   # |raw code| > 127
        assert sink.flushed.value == 1     # 0.001 rounds to code 0
        assert sink.nan_remapped.value == 1

    def test_int_degenerate_zero_scale(self, monitor):
        fmt = IntegerQuant(8)
        sink = convert(monitor, fmt, [0.0, np.inf, np.nan])
        assert sink.saturated.value == 1
        assert sink.nan_remapped.value == 1

    def test_fxp_saturates_outside_its_codes(self, monitor):
        fmt = FixedPoint(3, 4)  # codes [-128, 127] at scale 1/16
        sink = convert(monitor, fmt, [100.0, np.nan, 1e-5, 1.0, -np.inf])
        assert sink.tensors.value == 1
        assert sink.saturated.value == 2   # 100 -> code 1600, and -inf
        assert sink.flushed.value == 1     # 1e-5 rounds to code 0
        assert sink.nan_remapped.value == 1

    def test_posit_saturates_but_never_flushes(self, monitor):
        fmt = Posit(8, 1)  # maxpos = 4096
        sink = convert(monitor, fmt, [5000.0, -1e6, 1.0, np.nan, 1e-30])
        assert sink.saturated.value == 2
        assert sink.flushed.value == 0     # nonzero never rounds to zero
        assert sink.nan_remapped.value == 1

    @pytest.mark.parametrize("spec", ["fp8", "bfp16", "int8", "afp8",
                                      "posit8", "fxp16"])
    def test_every_named_family_reports_nonzero_saturation(self, monitor,
                                                           spec):
        """The ISSUE's acceptance criterion: a synthetic overflow workload
        produces nonzero saturation counts for every format family."""
        fmt = make_format(spec)
        if isinstance(fmt, IntegerQuant):
            fmt = IntegerQuant(fmt.bits, calibration_range=1.0)
        if isinstance(fmt, BlockFloatingPoint):
            fmt = BlockFloatingPoint(exp_bits=4,
                                     mantissa_bits=fmt.mantissa_bits,
                                     block_size=4)
        x = np.array([np.inf, 3.0e38, -3.0e38, 1.0], dtype=np.float32)
        sink = convert(monitor, fmt, x)
        assert sink.saturated.value > 0, f"{fmt.name} reported no saturation"


# ----------------------------------------------------------------------
# quantization-error histograms + dynamic-range gauges
# ----------------------------------------------------------------------
class TestErrorAndRange:
    def test_abs_and_ulp_error_histograms_filled(self, monitor, rng):
        fmt = FloatingPoint(5, 10)  # fp16
        x = rng.standard_normal(512).astype(np.float32)
        sink = convert(monitor, fmt, x)
        assert sink.abs_error.count == 512
        assert sink.ulp_error.count == 512
        # fp16 round-to-nearest: error within ~half a local step
        assert sink.ulp_error.max <= 1.0
        assert sink.abs_error.sum >= 0.0

    def test_exact_values_have_zero_error(self, monitor):
        fmt = FloatingPoint(5, 10)
        sink = convert(monitor, fmt, [0.5, 1.0, 2.0, -4.0])
        assert sink.abs_error.sum == 0.0
        assert sink.abs_error.count == 4

    def test_ulp_bucket_fill_matches_scalar_observe(self, registry):
        from repro.obs.numerics import _bulk_observe
        values = np.array([0.0005, 0.05, 0.4, 0.9, 3.0, 1e6, np.nan])
        bulk = registry.histogram("bulk", buckets=ULP_ERROR_BUCKETS)
        _bulk_observe(bulk, values)
        scalar = registry.histogram("scalar", buckets=ULP_ERROR_BUCKETS)
        for v in values:
            scalar.observe(float(v))
        assert bulk.bucket_counts == scalar.bucket_counts
        assert bulk.count == scalar.count == 6
        assert bulk.nan_count == scalar.nan_count == 1
        assert bulk.sum == pytest.approx(scalar.sum)
        assert bulk.min == scalar.min and bulk.max == scalar.max

    def test_range_gauges_cover_observed_span(self, monitor):
        fmt = FloatingPoint(5, 10)
        sink = convert(monitor, fmt, [1.0, 1024.0])  # 60.2 dB span
        assert sink.range_used.value == pytest.approx(
            20 * np.log10(1024.0), rel=1e-6)
        assert sink.format_range.value > 0
        assert 0 < sink.range_coverage.value < 1

    def test_range_tracks_running_min_max_across_tensors(self, monitor):
        fmt = FloatingPoint(5, 10)
        sink = convert(monitor, fmt, [1.0, 2.0])
        fmt.real_to_format_tensor(np.float32([4096.0]))
        assert sink.range_used.value == pytest.approx(
            20 * np.log10(4096.0), rel=1e-6)


# ----------------------------------------------------------------------
# monitor plumbing: sinks, summaries, platform wiring
# ----------------------------------------------------------------------
class TestMonitor:
    def test_sink_is_cached_per_stream(self, monitor):
        fmt = FloatingPoint(4, 3)
        assert monitor.sink("a", "neuron", fmt) is \
            monitor.sink("a", "neuron", fmt)
        assert monitor.sink("a", "neuron", fmt) is not \
            monitor.sink("a", "weight", fmt)

    def test_summarize_numerics_rates(self, registry, monitor):
        fmt = IntegerQuant(8, calibration_range=1.0)
        convert(monitor, fmt, [2.0, 0.5, 0.25, 3.0])
        summary = summarize_numerics(registry)
        s = summary["L"]["neuron"]
        assert s["format"] == "int8"
        assert s["elements"] == 4
        assert s["saturation_rate"] == pytest.approx(0.5)
        assert s["abs_error"]["count"] == 4

    def test_summarize_collected_equals_registry_summary(self, registry,
                                                         monitor):
        convert(monitor, FloatingPoint(4, 3), [300.0, 1.0])
        assert summarize_collected(registry.collect()) == \
            summarize_numerics(registry)

    def test_monitor_table_renders(self, monitor):
        convert(monitor, FloatingPoint(4, 3), [300.0, 1.0])
        table = monitor.table()
        assert "sat_rate" in table and "L" in table

    def test_goldeneye_attach_detach(self, registry):
        model = simple_cnn(num_classes=4, image_size=8, seed=0)
        monitor = NumericHealthMonitor()
        x = np.random.default_rng(0).standard_normal(
            (4, 3, 8, 8)).astype(np.float32)
        ge = GoldenEye(model, "fp8", numerics=monitor)
        with ge:
            from repro.core.campaign import golden_inference
            golden_inference(ge, x, np.zeros(4, dtype=np.int64))
            for state in ge.layers.values():
                assert state.neuron_format.stats_sink is not None
                assert state.weight_format.stats_sink is not None
        # detach cleared every sink
        for state in ge.layers.values():
            assert state.neuron_format.stats_sink is None
            assert state.weight_format.stats_sink is None
        summary = summarize_numerics(registry)
        assert set(summary) == {"conv1", "conv2", "fc"}
        for layer in summary.values():
            assert layer["neuron"]["elements"] > 0
            assert layer["weight"]["elements"] > 0
            assert layer["neuron"]["abs_error"]["count"] > 0

    @pytest.mark.parametrize("runs,second", [
        # the first run's 760 (1000 saturating to 240) is not the second's
        (([1000.0, 1.0], [1.0, 2.0]), {"count": 2, "mean": 0.0, "max": None}),
        # a second run that sets a new maximum reports it
        (([1.0, 2.0], [1000.0, 1.0]),
         {"count": 2, "mean": 380.0, "max": 760.0}),
    ])
    def test_a_second_monitor_reads_only_its_own_extremes(self, registry,
                                                          runs, second):
        health = []
        for x in runs:
            monitor = NumericHealthMonitor()
            convert(monitor, FloatingPoint(4, 3), x)
            health.append(monitor.as_dict()["L"]["neuron"]["abs_error"])
        assert health[0]["max"] == max(abs(v - min(v, 240.0)) for v in runs[0])
        assert health[1] == second

    def test_a_second_monitor_books_only_its_own_run(self, registry, rng):
        """Both monitors book into one registry; each reads its own run."""
        images = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=4)
        health = []
        for _ in range(2):
            model = simple_cnn(num_classes=4, image_size=8, seed=0)
            monitor = NumericHealthMonitor()
            with GoldenEye(model, "int8", numerics=monitor) as ge:
                result = run_campaign(ge, images, labels,
                                      injections_per_layer=2, seed=0)
            health.append(monitor.as_dict())
        assert "numeric_health" not in result.telemetry
        first, second = health
        assert set(first) == set(second) == {"conv1", "conv2", "fc"}
        assert first["fc"]["neuron"]["elements"] > 0
        for layer, roles in first.items():
            for role, mine in roles.items():
                theirs = second[layer][role]
                for field in ("tensors", "elements", "saturated", "flushed",
                              "nan_remapped", "format_range_db"):
                    assert theirs[field] == mine[field], (layer, role, field)
                # a delta's sum is a difference of running sums
                assert theirs["abs_error"]["count"] == \
                    mine["abs_error"]["count"]
                assert theirs["abs_error"]["mean"] == \
                    pytest.approx(mine["abs_error"]["mean"])
        tensors = registry.get("numerics.tensors_total", layer="fc",
                               role="neuron", format="int8").value
        assert tensors == 2 * first["fc"]["neuron"]["tensors"]

    def test_no_sink_no_recording(self):
        fmt = FloatingPoint(4, 3)
        assert fmt.stats_sink is None
        out = fmt.real_to_format_tensor(np.float32([300.0, 1.0]))
        assert out[0] == np.float32(240.0)  # behaviour unchanged

    def test_spawn_does_not_copy_the_sink(self, monitor):
        fmt = FloatingPoint(4, 3)
        fmt.set_stats_sink(monitor.sink("L", "neuron", fmt))
        assert fmt.spawn().stats_sink is None

    def test_sink_never_changes_conversion_results(self, monitor, rng):
        x = rng.standard_normal(256).astype(np.float32)
        x[0], x[1], x[2] = np.inf, -np.inf, np.nan
        for fmt_factory in (lambda: FloatingPoint(4, 3),
                            lambda: BlockFloatingPoint(4, 3, 8),
                            lambda: AdaptivFloat(4, 3),
                            lambda: IntegerQuant(8),
                            lambda: FixedPoint(3, 4),
                            lambda: Posit(8, 1)):
            plain = fmt_factory().real_to_format_tensor(x)
            fmt = fmt_factory()
            convert(monitor, fmt, x)
            monitored = fmt.real_to_format_tensor(x)
            np.testing.assert_array_equal(plain, monitored)


# ----------------------------------------------------------------------
# monitored campaigns: one execution path, exact bookings
# ----------------------------------------------------------------------
def _monitored_campaign(model_fn, spec, **fields):
    """One campaign under a fresh process registry and its own monitor.

    Returns the result, the monitor's readout and the registry's
    ``numerics.*`` snapshot (exact sums: nothing was booked before)."""
    registry = reset_registry()
    try:
        rng = np.random.default_rng(3)
        images = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=4)
        monitor = NumericHealthMonitor()
        with GoldenEye(model_fn(num_classes=4, image_size=8, seed=0), spec,
                       numerics=monitor) as ge:
            result = run_campaign(ge, images, labels, seed=0, **fields)
        return result, monitor.as_dict(), registry.collect(prefix="numerics.")
    finally:
        reset_registry()


def _counters(readout) -> dict:
    return {(layer, role): tuple(s[f] for f in (
                "tensors", "elements", "saturated", "flushed",
                "nan_remapped"))
            for layer, roles in readout.items() for role, s in roles.items()}


class TestMonitoredCampaign:
    @pytest.mark.parametrize("spec", ["fp16", "bfp_e5m5_b16"])
    def test_k_lanes_book_like_single_passes(self, spec):
        """A K-lane chunk quantizes a monitored layer lane by lane, so every
        ``numerics.*`` counter and histogram (count, sum, buckets) equals
        the ``fault_batch=1`` run's, as do the outcomes."""
        batched, _, lanes = _monitored_campaign(
            simple_mlp, spec, injections_per_layer=9)
        single, _, passes = _monitored_campaign(
            simple_mlp, spec, injections_per_layer=9, fault_batch=1)
        assert batched.telemetry["fault_batch"] == 9
        assert lanes == passes
        for layer, stats in single.per_layer.items():
            assert batched.per_layer[layer].delta_losses == \
                stats.delta_losses, layer

    def test_a_served_layer_books_no_conversion(self):
        """Each injected layer is served from its cached output: fc1 books
        the golden pass only, and each later layer one conversion per
        fault upstream of it."""
        _, health, _ = _monitored_campaign(simple_mlp, "fp16",
                                           injections_per_layer=40)
        assert {layer: roles["neuron"]["tensors"]
                for layer, roles in health.items()} == \
            {"fc1": 1, "fc2": 41, "fc3": 81}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="requires the fork start method")
    def test_worker_bookings_reach_the_monitor(self):
        """Worker bookings arrive in the shard deltas the supervisor merges
        into the process registry, so two workers read like one."""
        _, serial, _ = _monitored_campaign(simple_cnn, "fp16",
                                           injections_per_layer=12,
                                           fault_batch=1)
        _, parallel, _ = _monitored_campaign(simple_cnn, "fp16",
                                             injections_per_layer=12,
                                             fault_batch=1, workers=2)
        assert _counters(parallel) == _counters(serial)
        assert serial["fc"]["neuron"]["tensors"] == 25


# ----------------------------------------------------------------------
# sink internals
# ----------------------------------------------------------------------
class TestSinkInternals:
    def test_nonfinite_pairs_excluded_from_error_stats(self, registry):
        fmt = FloatingPoint(4, 3)
        sink = NumericStatsSink(registry, "L", "neuron", fmt)
        x = np.array([np.inf, np.nan, 1.0], dtype=np.float32)
        q = np.array([240.0, 0.0, 1.0], dtype=np.float32)
        sink.record(fmt, x, q, saturated=1, nan_remapped=1)
        assert sink.abs_error.count == 1  # only the finite pair
        assert sink.elements.value == 3

    def test_labels_key_every_metric(self, registry):
        fmt = FloatingPoint(4, 3)
        NumericStatsSink(registry, "conv1", "weight", fmt)
        counter = registry.get("numerics.tensors_total", layer="conv1",
                               role="weight", format=fmt.name)
        assert counter is not None
