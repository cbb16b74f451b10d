"""Differential lockdown of the parallel executor (see tests/differential.py).

One seeded campaign per format family is executed serial, parallel (2 and
4 workers) and interrupted-then-journal-resumed — and every mode must
reproduce the serial run exactly: bit-identical per-layer statistics, an
identical ``campaign.injection`` trace-event multiset, and identical
deterministic counter totals.  Three format families keep the executor
honest across very different numerics: plain floating point (``fp16``),
integer quantization (``int8``) and block floating point
(``bfp_e5m5_b16``).  The two with metadata registers also run a neuron
metadata campaign through the batched and parallel modes.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.differential import MODES, run_mode
from repro.models import simple_mlp

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method")

FORMATS = ("fp16", "int8", "bfp_e5m5_b16")
METADATA_FORMATS = ("int8", "bfp_e5m5_b16")
METADATA_MODES = ("parallel2", "serial-k4", "parallel2-k4", "resumed-k4",
                  "default")
INJECTIONS = 5
SEED = 13


def _make_data():
    rng = np.random.default_rng(77)
    return (rng.standard_normal((4, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 4, size=4))


def _serial_baselines(tmp_path_factory, formats, kind):
    """Per-format (model, data, serial outcome) triples of one kind."""
    out = {}
    for spec in formats:
        model = simple_mlp(num_classes=4)
        model.eval()
        data = _make_data()
        serial = run_mode("serial", model, spec, data,
                          tmp_path_factory.mktemp(f"serial-{kind}-{spec}"),
                          injections_per_layer=INJECTIONS, seed=SEED,
                          kind=kind)
        out[spec] = (model, data, serial)
    return out


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """Per-format value-campaign baselines, computed once."""
    return _serial_baselines(tmp_path_factory, FORMATS, "value")


@pytest.fixture(scope="module")
def metadata_baselines(tmp_path_factory):
    """Per-format neuron metadata-campaign baselines, computed once."""
    return _serial_baselines(tmp_path_factory, METADATA_FORMATS, "metadata")


def _assert_mode_reproduces_serial(mode, spec, baseline, tmp_path, kind):
    model, data, serial = baseline
    out = run_mode(mode, model, spec, data, tmp_path,
                   injections_per_layer=INJECTIONS, seed=SEED, kind=kind)
    assert not out.result.quarantined
    assert not out.result.interrupted
    # surface 1: per-layer statistics, bit for bit
    assert out.stats == serial.stats
    # surface 2: the campaign.injection event multiset (exact floats)
    assert out.injections == serial.injections
    assert len(out.injections) == sum(
        r.injections for r in serial.result.per_layer.values())
    # surface 3: deterministic counter totals.  Across an interrupt
    # boundary only the parent-side acceptance counter is exact (see
    # tests/differential.py), so the resumed mode compares that subset.
    if mode.startswith("resumed"):
        expected = {key: value for key, value in serial.counters.items()
                    if key[0] == "campaign.injections_total"}
    else:
        expected = serial.counters
    assert out.counters == expected
    if mode.endswith("default"):
        # the shipped default batches this small model's faults: each
        # layer's plans share one chunk
        assert out.result.telemetry["fault_batch"] == INJECTIONS


@needs_fork
@pytest.mark.parametrize("spec", FORMATS)
@pytest.mark.parametrize("mode", [m for m in MODES if m != "serial"])
class TestDifferentialParity:
    def test_mode_reproduces_serial_exactly(self, mode, spec, baselines,
                                            tmp_path):
        _assert_mode_reproduces_serial(mode, spec, baselines[spec], tmp_path,
                                       "value")


@needs_fork
@pytest.mark.parametrize("spec", METADATA_FORMATS)
@pytest.mark.parametrize("mode", METADATA_MODES)
def test_metadata_mode_reproduces_serial_exactly(mode, spec,
                                                 metadata_baselines,
                                                 tmp_path):
    """Neuron metadata plans take lanes too: each lane's register is live
    during that lane's own quantize, so every mode matches K=1 serial."""
    _assert_mode_reproduces_serial(mode, spec, metadata_baselines[spec],
                                   tmp_path, "metadata")


@needs_fork
def test_default_config_keeps_one_lane_on_a_large_recording(tmp_path):
    """simple_cnn at batch 40 records more than ``LANE_BYTES`` per lane, so
    the shipped default runs K=1 — serially and on two workers — and
    matches the serial run."""
    from repro.core.campaign import LANE_BYTES
    from repro.models import simple_cnn

    model = simple_cnn(num_classes=4)
    model.eval()
    rng = np.random.default_rng(5)
    data = (rng.standard_normal((40, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 4, size=40))
    assert data[0].nbytes < LANE_BYTES
    serial = run_mode("serial", model, "fp16", data, tmp_path,
                      injections_per_layer=INJECTIONS, seed=SEED)
    for mode in ("default", "parallel2-default"):
        out = run_mode(mode, model, "fp16", data, tmp_path,
                       injections_per_layer=INJECTIONS, seed=SEED)
        assert out.result.telemetry["fault_batch"] == 1
        assert out.stats == serial.stats
        assert out.injections == serial.injections
        assert out.counters == serial.counters


@pytest.mark.parametrize("spec", FORMATS)
def test_serial_baseline_is_self_consistent(spec, baselines):
    """The baseline itself: events and stats agree on the injection count."""
    _, _, serial = baselines[spec]
    total = sum(r.injections for r in serial.result.per_layer.values())
    assert total == INJECTIONS * len(serial.result.per_layer)
    assert len(serial.injections) == total
    assert serial.counters, "deterministic counters must be populated"


# ----------------------------------------------------------------------
# fault-axis batching: property-based record parity
# ----------------------------------------------------------------------
#: the record fields that must be *bit-identical* between a K-lane batched
#: execution and K sequential executions (``dur_s`` amortizes the shared
#: forward and is explicitly not a parity surface)
PARITY_FIELDS = ("kind", "site", "bits", "delta_loss", "mismatch_rate",
                 "sdc_rate")


@pytest.fixture(scope="module")
def batching_platforms():
    """Per-format attached platforms with a recorded golden checkpoint."""
    from repro.core import GoldenEye
    from repro.core.campaign import golden_inference

    out = {}
    platforms = []
    for spec in FORMATS:
        model = simple_mlp(num_classes=4)
        model.eval()
        images, labels = _make_data()
        ge = GoldenEye(model, spec).attach()
        ge.enable_resume(None)
        ge.capture_golden(images)
        golden = golden_inference(ge, images, labels)
        out[spec] = (ge, golden, images)
        platforms.append(ge)
    yield out
    for ge in platforms:
        ge.detach()


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(FORMATS),
       layer_index=st.integers(min_value=0, max_value=10),
       plan_seed=st.integers(min_value=0, max_value=2 ** 20),
       lanes=st.integers(min_value=2, max_value=8),
       use_resume=st.booleans(),
       metadata=st.booleans())
def test_batched_records_match_sequential_property(
        batching_platforms, spec, layer_index, plan_seed, lanes, use_resume,
        metadata):
    """Property: for ANY K same-layer neuron plans the platform can sample
    (metadata plans on the formats that have registers),
    ``execute_injection_batch`` returns records field-for-field identical
    (delta_loss / mismatch_rate / sdc_rate exact floats) to K one-plan
    chunks — with and without checkpoint-resume."""
    from repro.core.campaign import execute_injection_batch

    ge, golden, images = batching_platforms[spec]
    layers = list(ge.layers)
    layer = layers[layer_index % len(layers)]
    sample = (ge.injector.sample_metadata_injection
              if metadata and spec in METADATA_FORMATS
              else ge.injector.sample_value_injection)
    plans = [sample(np.random.default_rng([plan_seed, k]), layer=layer)
             for k in range(lanes)]
    batched = execute_injection_batch(ge, golden, images, plans, use_resume)
    sequential = [execute_injection_batch(ge, golden, images, [plan],
                                          use_resume)[0]
                  for plan in plans]
    assert len(batched) == len(sequential) == lanes
    for got, want in zip(batched, sequential):
        for field in PARITY_FIELDS:
            assert got[field] == want[field], field
