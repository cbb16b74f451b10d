"""Checkpoint-and-resume engine: cache behaviour and bit-exact equivalence.

The contract under test: for any injection at layer L, restarting inference
from L with the cached golden prefix must produce logits *bit-identical* to a
full forward pass under the same armed plans — on the CNN and the DeiT
transformer alike — and every degraded mode (evicted cache entries, missing
recording, structural divergence) must fall back gracefully while keeping
that equivalence.  A neuron fault at L is applied to L's own cached output
(L's compute and quantizer skipped) whenever nothing observes L's call;
otherwise L recomputes, and either way the logits must not move by a bit.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.core import (
    ActivationCache,
    GoldenEye,
    RangeDetector,
    ResumeSession,
    ValueInjection,
    run_campaign,
)
from repro.core.campaign import execute_injection_batch, golden_inference
from repro.core.goldeneye import CONE_GEMM_FLOOR
from repro.core.resume import LazyTile
from repro.models import create_model, simple_cnn, simple_mlp
from repro.models.deit import deit_tiny
from repro.obs import LayerProfiler
from repro.obs.numerics import NumericHealthMonitor


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(42)
    images = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 6, 4)
    return images, labels


@pytest.fixture()
def cnn():
    model = simple_cnn(num_classes=6, seed=0)
    model.eval()
    return model


@pytest.fixture()
def deit():
    model = deit_tiny(num_classes=6, seed=0)
    model.eval()
    return model


@pytest.fixture()
def mlp():
    model = simple_mlp(num_classes=6, seed=0)
    model.eval()
    return model


def _full(ge, images):
    """Logits of a full (non-resumed) forward under the armed plans."""
    return golden_inference(ge, images, np.zeros(len(images), np.int64)).logits


def _assert_bits(actual, expected, msg=""):
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual, np.float32).view(np.uint32),
        np.ascontiguousarray(expected, np.float32).view(np.uint32),
        err_msg=msg)


@contextlib.contextmanager
def _counted_quantizer(fmt):
    """Count the calls of ``fmt``'s tensor quantizer inside the block.

    A wrapper already on the instance (a profiler's) is kept under the
    counter and put back afterwards.
    """
    calls = []
    shadowed = vars(fmt).get("real_to_format_tensor")
    original = fmt.real_to_format_tensor

    def counted(tensor):
        calls.append(1)
        return original(tensor)

    fmt.real_to_format_tensor = counted
    try:
        yield calls
    finally:
        if shadowed is None:
            del fmt.real_to_format_tensor
        else:
            fmt.real_to_format_tensor = shadowed


# ----------------------------------------------------------------------
# ActivationCache
# ----------------------------------------------------------------------
class TestActivationCache:
    def test_put_get_roundtrip(self, fresh_global_registry):
        cache = ActivationCache(budget_bytes=None)
        arr = np.arange(8, dtype=np.float32)
        assert cache.put(0, arr)
        assert cache.get(0) is arr
        assert cache.counters["hits"].value == 1

    def test_budget_evicts_lru(self, fresh_global_registry):
        cache = ActivationCache(budget_bytes=3 * 40)  # three 10-float arrays
        for k in range(3):
            cache.put(k, np.zeros(10, dtype=np.float32))
        cache.get(0)  # refresh 0: key 1 becomes LRU
        cache.put(3, np.zeros(10, dtype=np.float32))
        assert 0 in cache and 3 in cache
        assert 1 not in cache
        assert cache.counters["evictions"].value == 1
        assert cache.nbytes <= 3 * 40

    def test_oversize_tensor_never_stored(self, fresh_global_registry):
        cache = ActivationCache(budget_bytes=16)
        assert not cache.put(0, np.zeros(100, dtype=np.float32))
        assert 0 not in cache
        assert cache.counters["skipped"].value == 1

    def test_replace_same_key_updates_bytes(self):
        cache = ActivationCache(budget_bytes=None)
        cache.put(0, np.zeros(10, dtype=np.float32))
        cache.put(0, np.zeros(5, dtype=np.float32))
        assert cache.nbytes == 5 * 4
        assert len(cache) == 1

    def test_clear(self):
        cache = ActivationCache()
        cache.put(0, np.zeros(4, dtype=np.float32))
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ActivationCache(budget_bytes=-1)


# ----------------------------------------------------------------------
# resumed-vs-full equivalence (clean and injected)
# ----------------------------------------------------------------------
class TestResumedEquivalence:
    @pytest.mark.parametrize("spec", ["fp16", "bfp_e5m5_b16"])
    def test_clean_resume_bit_exact_every_layer_cnn(self, cnn, batch, spec):
        images, labels = batch
        with GoldenEye(cnn, spec) as ge:
            ge.enable_resume()
            golden = ge.capture_golden(images)
            for layer in ge.layer_names():
                resumed = ge.forward_from(layer, images)
                np.testing.assert_array_equal(resumed, golden, err_msg=layer)

    def test_clean_resume_bit_exact_every_layer_deit(self, deit, batch):
        images, _ = batch
        with GoldenEye(deit, "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            golden = ge.capture_golden(images)
            for layer in ge.layer_names():
                resumed = ge.forward_from(layer, images)
                np.testing.assert_array_equal(resumed, golden, err_msg=layer)

    def test_capture_matches_plain_golden_inference(self, cnn, batch):
        images, labels = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            recorded = ge.capture_golden(images)
            plain = golden_inference(ge, images, labels).logits
            np.testing.assert_array_equal(recorded, plain)

    @pytest.mark.parametrize("model_name", ["cnn", "deit"])
    def test_neuron_injection_resume_matches_full(self, model_name, cnn, deit, batch):
        model = cnn if model_name == "cnn" else deit
        images, labels = batch
        rng = np.random.default_rng(7)
        with GoldenEye(model, "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            for layer in (ge.layer_names()[0], ge.layer_names()[-1]):
                plan = ge.injector.sample_value_injection(rng, layer=layer)
                with ge.injector.armed(plan):
                    full = golden_inference(ge, images, labels).logits
                with ge.injector.armed(plan):
                    resumed = ge.forward_from(layer, images)
                np.testing.assert_array_equal(resumed, full, err_msg=layer)

    def test_metadata_injection_resume_matches_full(self, cnn, batch):
        images, labels = batch
        rng = np.random.default_rng(11)
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            layer = ge.layer_names()[-1]
            plan = ge.injector.sample_metadata_injection(rng, layer=layer)
            with ge.injector.armed(plan):
                full = golden_inference(ge, images, labels).logits
            with ge.injector.armed(plan):
                resumed = ge.forward_from(layer, images)
            np.testing.assert_array_equal(resumed, full)

    def test_deep_layer_skips_prefix(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            before = session.stats["replayed"]
            ge.forward_from(ge.layer_names()[-1], images)
            # the deepest instrumented layer sits behind several leaf modules,
            # all of which must come from the cache
            assert session.stats["replayed"] - before >= 3
            assert session.stats["diverged"] == 0


# ----------------------------------------------------------------------
# weight injections resume from the victim layer too
# ----------------------------------------------------------------------
class TestWeightInjectionResume:
    def test_weight_value_injection_matches_full(self, cnn, batch):
        images, labels = batch
        rng = np.random.default_rng(3)
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            golden = ge.capture_golden(images)
            for layer in ge.layer_names():
                plan = ge.injector.sample_value_injection(rng, layer=layer,
                                                          location="weight")
                with ge.injector.armed(plan):
                    full = golden_inference(ge, images, labels).logits
                with ge.injector.armed(plan):
                    resumed = ge.forward_from(layer, images)
                np.testing.assert_array_equal(resumed, full, err_msg=layer)
            # disarm restored the weights: a clean resumed pass is golden again
            np.testing.assert_array_equal(
                ge.forward_from(ge.layer_names()[0], images), golden)

    def test_weight_metadata_injection_matches_full(self, cnn, batch):
        images, labels = batch
        rng = np.random.default_rng(5)
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            layer = ge.layer_names()[-1]
            plan = ge.injector.sample_metadata_injection(rng, layer=layer,
                                                         location="weight")
            with ge.injector.armed(plan):
                full = golden_inference(ge, images, labels).logits
            with ge.injector.armed(plan):
                resumed = ge.forward_from(layer, images)
            np.testing.assert_array_equal(resumed, full)


# ----------------------------------------------------------------------
# degraded modes stay bit-exact
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_eviction_fallback_recomputes_bit_exact(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            # budget fits roughly one activation tensor: most entries evicted
            session = ge.enable_resume(budget_bytes=64 * 1024)
            golden = ge.capture_golden(images)
            assert session.stats["evictions"] + session.stats["skipped"] > 0
            resumed = ge.forward_from(ge.layer_names()[-1], images)
            np.testing.assert_array_equal(resumed, golden)
            assert session.stats["recomputed"] > 0  # fell back module-by-module

    def test_zero_budget_still_bit_exact(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            ge.enable_resume(budget_bytes=0)
            golden = ge.capture_golden(images)
            resumed = ge.forward_from(ge.layer_names()[-1], images)
            np.testing.assert_array_equal(resumed, golden)

    def test_forward_from_without_recording_is_full_forward(self, cnn, batch):
        images, labels = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            expected = golden_inference(ge, images, labels).logits
            out = ge.forward_from(ge.layer_names()[-1], images)  # no session
            np.testing.assert_array_equal(out, expected)

    def test_capture_requires_enable(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "fp16") as ge:
            with pytest.raises(RuntimeError, match="enable_resume"):
                ge.capture_golden(images)

    def test_capture_refuses_armed_injections(self, cnn, batch):
        images, labels = batch
        with GoldenEye(cnn, "fp16") as ge:
            golden_inference(ge, images, labels)  # warm shapes
            ge.enable_resume()
            plan = ge.injector.sample_value_injection(np.random.default_rng(0))
            with ge.injector.armed(plan):
                with pytest.raises(RuntimeError, match="armed"):
                    ge.capture_golden(images)

    def test_structural_divergence_falls_back(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            session = ge.enable_resume()
            golden = ge.capture_golden(images)
            session.order[0] = -1  # simulate a model edited after recording
            resumed = ge.forward_from(ge.layer_names()[-1], images)
            np.testing.assert_array_equal(resumed, golden)
            assert session.stats["diverged"] == 1

    def test_unknown_layer_raises(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "fp16") as ge:
            with pytest.raises(KeyError):
                ge.forward_from("nope", images)

    def test_replaying_requires_recording(self, cnn):
        session = ResumeSession(cnn)
        with pytest.raises(RuntimeError, match="recorded"):
            with session.replaying(0):
                pass

    def test_detach_clears_session(self, cnn, batch):
        images, _ = batch
        ge = GoldenEye(cnn, "fp16").attach()
        ge.enable_resume()
        ge.capture_golden(images)
        ge.detach()
        assert ge.resume_session is None


# ----------------------------------------------------------------------
# a plan armed upstream of the resume layer still applies
# ----------------------------------------------------------------------
class TestUpstreamPlans:
    @pytest.mark.parametrize("location", ["neuron", "weight"])
    def test_plan_upstream_of_resume_layer_is_applied(self, mlp, batch,
                                                      location):
        images, _ = batch
        with GoldenEye(mlp, "fp32") as ge:
            ge.enable_resume()
            golden = ge.capture_golden(images)
            with ge.injector.armed(ValueInjection("fc1", location, 3, (1,))):
                full = _full(ge, images)
                resumed = ge.forward_from("fc2", images)
        assert not np.array_equal(full, golden)
        _assert_bits(resumed, full)


# ----------------------------------------------------------------------
# output resume: a neuron fault at L is applied to L's cached output
# ----------------------------------------------------------------------
ORACLE_FORMATS = ["fp32", "fp16", "bfp_e5m5_b16", "int8", "afp_e5m2", "posit8"]


class _TwiceMLP(nn.Module):
    """Applies ``shared`` twice, so its module has two recorded positions."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.flatten = nn.Flatten(1)
        self.fc_in = nn.Linear(3 * 32 * 32, 16, rng=rng)
        self.act = nn.ReLU()
        self.shared = nn.Linear(16, 16, rng=rng)
        self.head = nn.Linear(16, 6, rng=rng)

    def forward(self, x):
        x = self.act(self.fc_in(self.flatten(x)))
        return self.head(self.shared(self.act(self.shared(x))))


class TestOutputResume:
    @pytest.mark.parametrize("spec", ORACLE_FORMATS)
    @pytest.mark.parametrize("model_name", ["mlp", "cnn", "deit"])
    def test_resumed_output_matches_full_forward(self, model_name, spec,
                                                 request, batch):
        """Every layer, value and metadata plans, K=1 and K=4 lanes.

        The layers run in sequence, so a layer's live metadata comes from
        the faulty passes before it: a value plan's resumed pass runs first
        (after an upstream fault), a metadata plan's runs after its full
        pass (which left the register corrupted), and the lanes run after
        that.  Each resumed pass must restore the golden metadata itself.
        """
        model = request.getfixturevalue(model_name)
        images, _ = batch
        rng = np.random.default_rng(17)
        with GoldenEye(model, spec) as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            for layer in ge.layer_names():
                fmt = ge.layers[layer].neuron_format
                plan = ge.injector.sample_value_injection(rng, layer=layer)
                with ge.injector.armed(plan):
                    with _counted_quantizer(fmt) as calls:
                        resumed = ge.forward_from(layer, images)
                    full = _full(ge, images)
                assert not calls, layer
                _assert_bits(resumed, full, f"{layer} {plan}")
                if fmt.has_metadata:
                    plan = ge.injector.sample_metadata_injection(rng, layer=layer)
                    with ge.injector.armed(plan):
                        full = _full(ge, images)
                        with _counted_quantizer(fmt) as calls:
                            resumed = ge.forward_from(layer, images)
                    assert not calls, layer
                    _assert_bits(resumed, full, f"{layer} {plan}")
                plans = [ge.injector.sample_value_injection(rng, layer=layer)
                         for _ in range(4)]
                with _counted_quantizer(fmt) as calls:
                    lanes = ge.forward_from_batched(layer, plans, images)
                assert not calls, layer
                for k, plan in enumerate(plans):
                    with ge.injector.armed(plan):
                        full = _full(ge, images)
                    _assert_bits(lanes[k], full, f"{layer} lane {k} {plan}")

    def test_profiled_layer_is_served_from_its_output(self, cnn, batch):
        """A profiler observes no layer call: each injected layer is still
        served from its cached output (its quantizer does not run) and the
        logits match a full forward bit for bit."""
        images, _ = batch
        rng = np.random.default_rng(23)
        profiler = LayerProfiler()
        with GoldenEye(cnn, "bfp_e5m5_b16", profiler=profiler) as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            for layer in ge.layer_names():
                plan = ge.injector.sample_value_injection(rng, layer=layer)
                with ge.injector.armed(plan):
                    with _counted_quantizer(
                            ge.layers[layer].neuron_format) as calls:
                        resumed = ge.forward_from(layer, images)
                    full = _full(ge, images)
                assert not calls, layer
                _assert_bits(resumed, full, layer)
        for layer, profile in profiler.as_dict().items():
            phases = profile["phases"]
            # served once from its own output: injected without computing
            assert (phases["inject"]["calls"]
                    == phases["compute"]["calls"] + 1), layer

    def test_monitored_layer_is_served_from_its_output(
            self, cnn, batch, fresh_global_registry):
        """A numerics monitor observes no layer call: each injected layer is
        served from its cached output, so its quantizer does not run and it
        books no conversion, and the logits match a full forward bit for
        bit."""
        images, _ = batch
        rng = np.random.default_rng(23)
        with GoldenEye(cnn, "bfp_e5m5_b16",
                       numerics=NumericHealthMonitor()) as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            for layer in ge.layer_names():
                fmt = ge.layers[layer].neuron_format
                booked = fmt.stats_sink.tensors.value
                plan = ge.injector.sample_value_injection(rng, layer=layer)
                with ge.injector.armed(plan):
                    with _counted_quantizer(fmt) as calls:
                        resumed = ge.forward_from(layer, images)
                    assert fmt.stats_sink.tensors.value == booked, layer
                    full = _full(ge, images)
                assert not calls, layer
                _assert_bits(resumed, full, layer)

    def test_resumed_position_counts_as_replayed_hit(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "fp16") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            layer = ge.layer_names()[-1]
            start = session.start_index_for(ge.layers[layer].module)
            ge.forward_from(layer, images)
            assert session.stats["replayed"] == session.stats["hits"] == start + 1
            assert session.stats["misses"] == 0


class TestOutputResumeFallbacks:
    """Each condition of the output resume broken on purpose: the layer
    recomputes (its quantizer runs as often as in a full forward) and the
    logits stay bit-exact."""

    @staticmethod
    def _check(ge, layer, images, *extra):
        plan = ge.injector.sample_value_injection(np.random.default_rng(23),
                                                  layer=layer)
        fmt = ge.layers[layer].neuron_format
        with ge.injector.armed(plan, *extra):
            with _counted_quantizer(fmt) as resumed_calls:
                resumed = ge.forward_from(layer, images)
            with _counted_quantizer(fmt) as full_calls:
                full = _full(ge, images)
        assert len(resumed_calls) == len(full_calls) > 0, layer
        _assert_bits(resumed, full, layer)

    @pytest.mark.parametrize("observer", ["detector"])
    def test_observed_layer_recomputes(self, cnn, batch, observer):
        images, _ = batch
        detector = RangeDetector()
        with GoldenEye(cnn, "bfp_e5m5_b16", range_detector=detector) as ge:
            _full(ge, images)  # profile the ranges, then protect
            detector.active = True
            ge.enable_resume()
            ge.capture_golden(images)
            for layer in ge.layer_names():
                self._check(ge, layer, images)

    def test_armed_weight_plan_recomputes(self, cnn, batch):
        images, _ = batch
        rng = np.random.default_rng(29)
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            for layer in ge.layer_names():
                weight = ge.injector.sample_value_injection(
                    rng, layer=layer, location="weight")
                self._check(ge, layer, images, weight)

    def test_evicted_entry_recomputes(self, cnn, batch):
        images, _ = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            session = ge.enable_resume(budget_bytes=64 * 1024)
            ge.capture_golden(images)
            layer = ge.layer_names()[0]  # its output is over the budget
            assert session.start_index_for(cnn.conv1) not in session.cache
            self._check(ge, layer, images)

    def test_module_called_twice_recomputes(self, batch):
        images, _ = batch
        with GoldenEye(_TwiceMLP(), "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            self._check(ge, "shared", images)

    def test_observer_counts_unchanged(self, cnn, batch,
                                       fresh_global_registry):
        """A serial value + metadata campaign with every observer attached
        books the conversions and detections it booked before the output
        resume existed: under a detector no layer is served, and a K-lane
        chunk books each lane.  Only the compute calls fall, because each
        layer's five faults share one K=5 pass."""
        images, labels = batch
        detector = RangeDetector()
        profiler = LayerProfiler()
        monitor = NumericHealthMonitor()
        with GoldenEye(cnn, "bfp_e5m5_b16", range_detector=detector,
                       profiler=profiler, numerics=monitor) as ge:
            golden_inference(ge, images, labels)  # profile the ranges
            detector.active = True
            for kind in ("value", "metadata"):
                run_campaign(ge, images, labels, kind=kind,
                             injections_per_layer=5, seed=2)
        tensors = {layer: int(roles["neuron"]["tensors"])
                   for layer, roles in monitor.as_dict().items()}
        assert tensors == {"conv1": 13, "conv2": 23, "fc": 33}
        assert detector.detections == {"conv1": 16, "conv2": 18, "fc": 13}
        compute = {layer: profile["phases"]["compute"]["calls"]
                   for layer, profile in profiler.as_dict().items()}
        assert compute == {"conv1": 5, "conv2": 7, "fc": 9}


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------
class TestCampaignResume:
    @pytest.mark.parametrize("kind,location", [("value", "neuron"),
                                               ("value", "weight"),
                                               ("metadata", "neuron")])
    def test_campaign_resume_matches_full_rerun(self, cnn, batch, kind, location):
        images, labels = batch
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            fast = run_campaign(ge, images, labels, kind=kind, location=location,
                                injections_per_layer=4, seed=9, resume=True)
        with GoldenEye(cnn, "bfp_e5m5_b16") as ge:
            slow = run_campaign(ge, images, labels, kind=kind, location=location,
                                injections_per_layer=4, seed=9, resume=False)
        assert fast.per_layer.keys() == slow.per_layer.keys()
        for layer in fast.per_layer:
            assert fast.per_layer[layer].delta_losses == \
                slow.per_layer[layer].delta_losses, layer
            assert fast.per_layer[layer].mismatch_rate == \
                slow.per_layer[layer].mismatch_rate, layer

    def test_campaign_reports_stats_and_releases_cache(self, cnn, batch):
        images, labels = batch
        with GoldenEye(cnn, "fp16") as ge:
            result = run_campaign(ge, images, labels, injections_per_layer=3,
                                  seed=1, resume=True)
            assert result.resume_stats is not None
            assert result.resume_stats["replayed"] > 0
            assert ge.resume_session is None  # released after the campaign

    def test_campaign_without_resume_has_no_stats(self, cnn, batch):
        images, labels = batch
        with GoldenEye(cnn, "fp16") as ge:
            result = run_campaign(ge, images, labels, injections_per_layer=2,
                                  seed=1, resume=False)
            assert result.resume_stats is None


# ----------------------------------------------------------------------
# fork-ownership protocol (parallel campaign workers)
# ----------------------------------------------------------------------
class TestSessionOwnership:
    def test_fresh_session_is_owned_by_creator(self, cnn):
        session = ResumeSession(cnn)
        assert session.is_owner

    def test_foreign_session_refuses_record_and_replay(self, cnn, batch):
        import os

        from repro.nn import Tensor

        session = ResumeSession(cnn)
        with session.recording():
            cnn.forward_from(session, Tensor(batch[0]))
        session.owner_pid = os.getpid() + 1  # simulate a fork-inherited copy
        with pytest.raises(RuntimeError, match="adopt"):
            with session.recording():
                pass
        with pytest.raises(RuntimeError, match="adopt"):
            with session.replaying(0):
                pass

    def test_adopt_claims_session_and_keeps_counting(self, cnn, batch):
        import os

        from repro.nn import Tensor

        session = ResumeSession(cnn)
        with session.recording():
            full = cnn.forward_from(session, Tensor(batch[0]))
        start = session.start_index_for(cnn.fc)
        with session.replaying(start):
            cnn.forward_from(session, Tensor(batch[0]))
        before = session.stats
        session.owner_pid = os.getpid() + 1  # pretend we are the fork child
        session.adopt()
        assert session.is_owner
        # no reset: a worker's counts leave as shard deltas, which are relative
        assert session.stats == before
        # the recording itself survives adoption: replay is still bit-exact
        assert session.recorded
        with session.replaying(start):
            resumed = cnn.forward_from(session, Tensor(batch[0]))
        np.testing.assert_array_equal(full.data, resumed.data)
        assert session.stats["replayed"] == 2 * before["replayed"] > 0

    def test_adopt_is_idempotent_for_the_owner(self, cnn):
        session = ResumeSession(cnn)
        session.counters["hits"].inc(7)
        session.adopt()  # already the owner: nothing changes
        assert session.stats["hits"] == 7
        with session.recording():  # and it may still record
            pass

    def test_recording_refusal_leaves_session_intact(self, cnn, batch):
        """A worker re-recording over the cache it adopted must raise
        *before* touching any session state, not corrupt it."""
        import os

        from repro.nn import Tensor

        session = ResumeSession(cnn)
        with session.recording():
            full = cnn.forward_from(session, Tensor(batch[0]))
        session.owner_pid = os.getpid() + 1  # pretend we are the fork child
        session.adopt()
        order_before = list(session.order)
        with pytest.raises(RuntimeError, match="adopted"):
            with session.recording():
                pass  # pragma: no cover - never reached
        # the refusal must not have wiped the recorded pass
        assert session.order == order_before
        assert session.recorded
        start = session.start_index_for(cnn.fc)
        with session.replaying(start):
            resumed = cnn.forward_from(session, Tensor(batch[0]))
        np.testing.assert_array_equal(full.data, resumed.data)


# ----------------------------------------------------------------------
# cone-of-influence replay: a conv downstream of the fault recomputes
# only the region the fault can reach
# ----------------------------------------------------------------------
CONE_MODELS = ["simple_cnn", "resnet18", "mobilenet_small", "vgg11"]
CONE_FORMATS = ["fp32", "fp16", "bfp_e5m5_b16", "bfp_e8m7_b8", "posit8",
                "int8", "afp_e5m2"]
#: formats whose per-tensor state keeps every conv on the dense path
DENSE_FORMATS = {"int8", "afp_e5m2", "bfp16"}


def _zoo(name):
    model = create_model(name, num_classes=10, seed=0)
    model.eval()
    return model


def _images(n):
    return np.random.default_rng(n).standard_normal(
        (n, 3, 32, 32)).astype(np.float32)


def _uint(values):
    return np.asarray(values, np.float64).view(np.uint64)


@contextlib.contextmanager
def _cone_calls(ge):
    """Names of the layers whose cone region ``ge`` computed in the block."""
    names = []
    original = ge._cone_conv

    def spy(state, *args):
        names.append(state.name)
        return original(state, *args)

    ge._cone_conv = spy
    try:
        yield names
    finally:
        del ge._cone_conv


def _cone_cases():
    for model in CONE_MODELS:
        for spec in CONE_FORMATS:
            for n in (1, 3):
                yield pytest.param(model, spec, n, id=f"{model}-{spec}-{n}")
        for spec in ("fp32", "bfp_e5m5_b16"):
            yield pytest.param(model, spec, 16, id=f"{model}-{spec}-16")


class TestConeOracle:
    """Cone-served replays against full forwards, compared as bits."""

    @pytest.mark.parametrize("model_name,spec,n", list(_cone_cases()))
    def test_value_faults_match_full_forward(self, model_name, spec, n):
        images = _images(n)
        rng = np.random.default_rng(31)
        with GoldenEye(_zoo(model_name), spec) as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            for layer in ge.layer_names():
                plan = ge.injector.sample_value_injection(rng, layer=layer)
                with ge.injector.armed(plan):
                    resumed = ge.forward_from(layer, images)
                    full = _full(ge, images)
                _assert_bits(resumed, full, f"{layer} {plan}")
        served = session.stats["cone_patched"] + session.stats["cone_unchanged"]
        assert (served == 0) == (spec in DENSE_FORMATS)
        assert session.stats["misses"] == 0

    @pytest.mark.parametrize("spec", ["fp32", "bfp_e5m5_b16"])
    @pytest.mark.parametrize("kind,location", [("value", "neuron"),
                                               ("metadata", "neuron"),
                                               ("value", "weight"),
                                               ("metadata", "weight")])
    @pytest.mark.parametrize("model_name", ["resnet18", "mobilenet_small",
                                            "vgg11"])
    def test_campaigns_match_resume_false(self, model_name, kind, location,
                                          spec):
        if kind == "metadata" and spec == "fp32":
            pytest.skip("fp32 has no metadata registers")
        images = _images(3)
        labels = np.arange(3) % 10
        results = {}
        for resume in (True, False):
            with GoldenEye(_zoo(model_name), spec) as ge:
                results[resume] = run_campaign(
                    ge, images, labels, kind=kind, location=location,
                    injections_per_layer=2, seed=4, resume=resume,
                    fault_batch=1)
        fast, slow = results[True], results[False]
        assert (fast.resume_stats["cone_patched"]
                + fast.resume_stats["cone_unchanged"]) > 0
        assert fast.per_layer.keys() == slow.per_layer.keys()
        for layer in fast.per_layer:
            got, want = fast.per_layer[layer], slow.per_layer[layer]
            np.testing.assert_array_equal(_uint(got.delta_losses),
                                          _uint(want.delta_losses), layer)
            assert _uint(got.mismatch_rate) == _uint(want.mismatch_rate)

    def test_unchanged_input_conv_is_served_whole(self):
        """A clean replay changes no conv input: every conv past the start
        returns its golden output, and no downstream quantizer runs."""
        images = _images(3)
        with GoldenEye(_zoo("resnet18"), "bfp_e5m5_b16") as ge:
            session = ge.enable_resume()
            golden = ge.capture_golden(images)
            first, *rest = ge.layer_names()
            convs = [name for name in rest
                     if isinstance(ge.layers[name].module, nn.Conv2d)]
            with contextlib.ExitStack() as stack:
                counts = [stack.enter_context(_counted_quantizer(
                    ge.layers[name].neuron_format)) for name in convs]
                resumed = ge.forward_from(first, images)
            assert not any(counts)
            _assert_bits(resumed, golden)
            assert session.stats["cone_unchanged"] == len(convs)
            assert session.stats["cone_patched"] == 0
            for name in convs:  # the golden register is live again
                state = ge.layers[name]
                np.testing.assert_array_equal(
                    state.neuron_format.metadata.exp_fields,
                    session.neuron_metadata[name].exp_fields)

    def test_patched_conv_leaves_the_dense_register(self):
        """After a cone-served pass every conv's register, and its output
        shape, equal what a full forward under the same fault leaves."""
        images = _images(3)
        rng = np.random.default_rng(5)
        with GoldenEye(_zoo("resnet18"), "bfp_e8m7_b8") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            first = ge.layer_names()[0]
            plan = ge.injector.sample_value_injection(rng, layer=first)

            def registers():
                return {name: (state.neuron_format.metadata.exp_fields.copy(),
                               state.neuron_golden_metadata.exp_fields.copy(),
                               state.last_output_shape)
                        for name, state in ge.layers.items()}

            with ge.injector.armed(plan):
                ge.forward_from(first, images)
                served = registers()
                _full(ge, images)
                dense = registers()
            assert session.stats["cone_patched"] > 0
            for name, (live, captured, shape) in served.items():
                np.testing.assert_array_equal(live, dense[name][0], name)
                np.testing.assert_array_equal(captured, dense[name][1], name)
                assert shape == dense[name][2], name

    def test_batch_norm_behind_a_served_conv_is_served(self, monkeypatch):
        images = _images(3)
        rng = np.random.default_rng(8)
        calls = {}
        original = nn.BatchNorm2d.forward

        def counted(self, x):
            calls[id(self)] = x.shape
            return original(self, x)

        monkeypatch.setattr(nn.BatchNorm2d, "forward", counted)
        with GoldenEye(_zoo("resnet18"), "fp32") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            first = ge.layer_names()[0]
            plan = ge.injector.sample_value_injection(rng, layer=first)
            with ge.injector.armed(plan):
                calls.clear()
                resumed = ge.forward_from(first, images)
                served = dict(calls)
                calls.clear()
                full = _full(ge, images)
            _assert_bits(resumed, full)
            # a served norm runs only on its conv's region
            assert any(shape[2:] < calls[norm][2:]
                       for norm, shape in served.items())

    def test_profiler_books_the_cone_as_compute_and_quantize(self):
        images = _images(3)
        rng = np.random.default_rng(6)
        profiler = LayerProfiler()
        with GoldenEye(_zoo("simple_cnn"), "bfp_e5m5_b16",
                       profiler=profiler) as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            conv2 = ge.layers["conv2"].module
            full_size = ge.layers["conv2"].last_output_shape
            before = profiler.as_dict()["conv2"]["phases"]
            plan = ge.injector.sample_value_injection(rng, layer="conv1")
            with ge.injector.armed(plan):
                ge.forward_from("conv1", images)
            after = profiler.as_dict()["conv2"]["phases"]
        assert session.stats["cone_patched"] == 1
        assert isinstance(conv2, nn.Conv2d)
        for phase in ("compute", "quantize", "inject"):
            assert after[phase]["calls"] == before[phase]["calls"] + 1, phase
        region = after["compute"]["elements"] - before["compute"]["elements"]
        assert region == (after["quantize"]["elements"]
                          - before["quantize"]["elements"])
        assert 0 < region < np.prod(full_size)


class _Plane5(nn.Module):
    """Two convs whose 5x5 output planes (from 7x7 images) 16-element
    blocks cannot tile."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv1 = nn.Conv2d(3, 8, 3, rng=rng)
        self.act = nn.ReLU()
        self.conv2 = nn.Conv2d(8, 8, 3, padding=1, rng=rng)
        self.flatten = nn.Flatten(1)
        self.fc = nn.Linear(8 * 5 * 5, 6, rng=rng)

    def forward(self, x):
        return self.fc(self.flatten(self.conv2(self.act(self.conv1(x)))))


class _PooledConvs(nn.Module):
    """conv -> conv -> global average pool: the pool sums in memory order."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(1)
        self.conv1 = nn.Conv2d(3, 16, 3, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(16, 24, 3, padding=1, rng=rng)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten(1)
        self.fc = nn.Linear(24, 6, rng=rng)

    def forward(self, x):
        return self.fc(self.flatten(self.pool(self.conv2(self.conv1(x)))))


class _SideNorm(nn.Module):
    """A norm that runs right after a conv but reads another tensor: the
    1x1 stride-2 conv skips odd rows, the norm reads them all."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(2)
        self.conv1 = nn.Conv2d(3, 8, 3, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(8, 8, 1, stride=2, rng=rng)
        self.norm = nn.BatchNorm2d(8)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten(1)
        self.fc = nn.Linear(8, 6, rng=rng)

    def forward(self, x):
        h = self.conv1(x)
        skipped = self.conv2(h)
        return self.fc(self.flatten(self.pool(self.norm(h * 2.0))
                                    + self.pool(skipped)))


class _SharedConv(nn.Module):
    """One conv run twice per forward, on two plane sizes."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(3)
        self.conv1 = nn.Conv2d(3, 8, 3, padding=1, rng=rng)
        self.shared = nn.Conv2d(8, 8, 3, padding=1, rng=rng)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten(1)
        self.fc = nn.Linear(8, 6, rng=rng)

    def forward(self, x):
        h = self.conv1(x)
        big = self.shared(h)
        small = self.shared(nn.functional.avg_pool2d(h, 2))
        return self.fc(self.flatten(self.pool(big) + self.pool(small)))


class TestConeFallbacks:
    """Each guard of the cone broken on purpose: the conv runs dense (no
    cone region is computed for it) and the logits stay bit-exact."""

    def test_conv_run_twice_per_forward_runs_dense(self, batch):
        images, _ = batch
        with GoldenEye(_SharedConv(), "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            self._check(ge, "conv1", images, dense=("shared",))

    @pytest.mark.parametrize("hook", ["forward", "pre"])
    def test_hooked_conv_runs_dense(self, batch, hook):
        images, _ = batch
        calls = []
        with GoldenEye(_zoo("simple_cnn"), "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            conv2 = ge.layers["conv2"].module
            if hook == "forward":
                conv2.register_forward_hook(
                    lambda module, inputs, output: calls.append(1))
            else:
                conv2.register_forward_pre_hook(
                    lambda module, inputs: calls.append(1))
            self._check(ge, "conv1", images, dense=("conv2",))
        assert len(calls) == 2  # the replay and the full forward

    def test_hooked_norm_runs_dense(self, batch):
        """A hook on a norm behind a served conv still sees every call."""
        images, _ = batch
        seen = []
        with GoldenEye(_zoo("resnet18"), "fp32") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            norms = [module for _, module in ge.model.named_modules()
                     if isinstance(module, nn.BatchNorm2d)]
            for norm in norms:
                norm.register_forward_hook(
                    lambda module, inputs, output: seen.append(output.shape))
            self._check(ge, ge.layer_names()[0], images)
        assert session.stats["cone_patched"] > 0
        # each norm once in the replay and once in the full forward
        assert len(seen) == 2 * len(norms)
        assert seen[:len(norms)] == seen[len(norms):]

    def test_norm_reading_another_tensor_runs_dense(self, batch):
        images, _ = batch
        site = 5 * 32 * 32 + 1 * 32 + 7  # channel 5, row 1: conv2 skips it
        with GoldenEye(_SideNorm(), "fp32") as ge:
            session = ge.enable_resume()
            golden = ge.capture_golden(images)
            with ge.injector.armed(ValueInjection("conv1", "neuron", site, (0,))):
                resumed = ge.forward_from("conv1", images)
                full = _full(ge, images)
        assert not np.array_equal(full, golden)
        _assert_bits(resumed, full)
        assert session.stats["cone_unchanged"] == 1  # conv2 did not see it

    def test_session_refuses_a_cone_for_fault_lanes(self, cnn, batch):
        session = ResumeSession(cnn)
        with session.recording():
            cnn.forward_from(session, nn.Tensor(batch[0]))
        with pytest.raises(ValueError, match="K=1"):
            with session.replaying(0, lanes=2, cone={id(cnn.conv2): None}):
                pass

    @staticmethod
    def _check(ge, layer, images, *extra, dense=None, seed=23):
        """Replay a fault at ``layer`` (plus ``extra`` plans); return the
        layers whose cone ran.  ``dense`` layers must not be among them."""
        plan = ge.injector.sample_value_injection(
            np.random.default_rng(seed), layer=layer)
        with ge.injector.armed(plan, *extra):
            with _cone_calls(ge) as coned:
                resumed = ge.forward_from(layer, images)
            full = _full(ge, images)
        _assert_bits(resumed, full, layer)
        for name in dense or ():
            assert name not in coned, name
        return coned

    def test_conv_with_an_armed_plan_runs_dense(self, batch):
        images, _ = batch
        with GoldenEye(_zoo("resnet18"), "bfp_e5m5_b16") as ge:
            ge.enable_resume()
            ge.capture_golden(images)
            first, second, third = ge.layer_names()[:3]
            rng = np.random.default_rng(2)
            neuron = ge.injector.sample_value_injection(rng, layer=second)
            weight = ge.injector.sample_value_injection(rng, layer=third,
                                                        location="weight")
            coned = self._check(ge, first, images, neuron, weight,
                                dense=(second, third))
            assert coned  # the convs behind them still take the cone

    @pytest.mark.parametrize("spec", sorted(DENSE_FORMATS))
    def test_tensor_global_formats_run_dense(self, batch, spec):
        images, _ = batch
        with GoldenEye(_zoo("resnet18"), spec) as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            assert not self._check(ge, ge.layer_names()[0], images)
        assert session.stats["cone_patched"] == session.stats["cone_unchanged"] == 0

    @pytest.mark.parametrize("observer", ["detector", "numerics"])
    def test_range_detector_and_stats_sink_run_dense(self, batch, observer):
        images, _ = batch
        detector = RangeDetector() if observer == "detector" else None
        monitor = NumericHealthMonitor() if observer == "numerics" else None
        with GoldenEye(_zoo("resnet18"), "bfp_e5m5_b16",
                       range_detector=detector, numerics=monitor) as ge:
            if detector is not None:
                _full(ge, images)
                detector.active = True
            session = ge.enable_resume()
            ge.capture_golden(images)
            assert not self._check(ge, ge.layer_names()[0], images)
        assert session.stats["cone_patched"] == session.stats["cone_unchanged"] == 0

    def test_untiled_plane_runs_dense(self):
        images = np.random.default_rng(4).standard_normal(
            (4, 3, 7, 7)).astype(np.float32)
        for spec, coned in (("bfp_e5m5_b16", False), ("fp32", True)):
            with GoldenEye(_Plane5(), spec) as ge:
                ge.enable_resume()
                ge.capture_golden(images)
                assert bool(self._check(ge, "conv1", images)) == coned, spec

    @pytest.mark.parametrize("missing", ["input", "output"])
    def test_cache_miss_runs_dense(self, batch, missing):
        images, _ = batch
        with GoldenEye(_zoo("simple_cnn"), "bfp_e5m5_b16") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            pos = session.start_index_for(ge.layers["conv2"].module)
            if missing == "input":
                del session.golden_inputs[pos]
            else:
                session.cache.drop(pos)
            self._check(ge, "conv1", images, dense=("conv2",))
        assert session.stats["recomputed"] == (missing == "output")

    def test_budget_keeps_inputs_beside_the_cache(self, batch):
        images, _ = batch
        with GoldenEye(_zoo("simple_cnn"), "bfp_e5m5_b16") as ge:
            session = ge.enable_resume(budget_bytes=64 * 1024)
            ge.capture_golden(images)
            held = sum(a.nbytes for a in session.golden_inputs.values())
            assert session.cache.nbytes + held <= 64 * 1024
            self._check(ge, "conv1", images)

    def test_fault_lanes_run_dense(self, batch):
        images, _ = batch
        with GoldenEye(_zoo("simple_cnn"), "bfp_e5m5_b16") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            rng = np.random.default_rng(3)
            plans = [ge.injector.sample_value_injection(rng, layer="conv1")
                     for _ in range(3)]
            with _cone_calls(ge) as coned:
                lanes = ge.forward_from_batched("conv1", plans, images)
            assert not coned
            assert session.stats["cone_patched"] == 0
            for k, plan in enumerate(plans):
                with ge.injector.armed(plan):
                    _assert_bits(lanes[k], _full(ge, images), f"lane {k}")

    def test_fp32_patch_keeps_the_dense_layout(self, batch):
        """fp32 keeps the conv's NHWC-ordered view; a patched output in any
        other layout changes the pool's summation order and the logits'
        last bits."""
        images, _ = batch
        layouts = []
        model = _PooledConvs()
        model.pool.register_forward_pre_hook(
            lambda module, inputs: layouts.append(inputs[0].data.strides))
        with GoldenEye(model, "fp32") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            for seed in range(6):
                layouts.clear()
                self._check(ge, "conv1", images, seed=seed)
                assert len(set(layouts)) == 1, layouts
        assert session.stats["cone_patched"] > 0


# ----------------------------------------------------------------------
# the BLAS property the cone relies on
# ----------------------------------------------------------------------
def _conv_shapes(name, n):
    """(input shape, module) of every groups=1 conv call of a zoo model."""
    model = _zoo(name)
    shapes = []
    handles = [module.register_forward_pre_hook(
        lambda module, inputs: shapes.append((inputs[0].shape, module)))
        for _, module in model.named_modules()
        if isinstance(module, nn.Conv2d) and module.groups == 1]
    with nn.no_grad():
        model(nn.Tensor(_images(n)))
    for handle in handles:
        handle.remove()
    return shapes


class TestConeBlasProbe:
    """A GEMM of ``CONE_GEMM_FLOOR // out_channels`` rows reproduces the
    full conv GEMM's rows, bit for bit, for every conv of the zoo."""

    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("model_name", CONE_MODELS)
    def test_floor_rows_match_the_full_gemm(self, model_name, n):
        from repro.nn.functional import im2col

        rng = np.random.default_rng(n)
        for shape, conv in _conv_shapes(model_name, n):
            x = np.maximum(rng.standard_normal(shape), 0).astype(np.float32)
            cols, _ = im2col(x, conv.weight.shape[2:], (conv.stride,) * 2,
                             (conv.padding,) * 2)
            w_mat = conv.weight.data.reshape(conv.out_channels, -1)
            full = cols @ w_mat.T
            rows = -(-CONE_GEMM_FLOOR // conv.out_channels)
            if rows >= len(cols):
                continue  # the cone computes such a conv whole
            for start in (0, (len(cols) - rows) // 2, len(cols) - rows):
                part = np.ascontiguousarray(cols[start:start + rows]) @ w_mat.T
                np.testing.assert_array_equal(
                    part.view(np.uint32), full[start:start + rows].view(np.uint32),
                    f"{model_name} {shape} rows {start}:{start + rows}")


class TestConeObservability:
    def test_counts_reach_resume_stats_summed_over_workers(self):
        """Forked workers reach the golden inputs they inherit and report
        the serial run's cone."""
        images = _images(4)
        labels = np.arange(4) % 10
        stats = {}
        for workers in (1, 2):
            with GoldenEye(_zoo("simple_cnn"), "bfp_e5m5_b16") as ge:
                stats[workers] = run_campaign(
                    ge, images, labels, injections_per_layer=6, seed=3,
                    fault_batch=1, workers=workers).resume_stats
        keys = ("cone_patched", "cone_unchanged", "cone_positions")
        assert stats[1]["cone_patched"] > 0
        assert {k: stats[2][k] for k in keys} == {k: stats[1][k] for k in keys}


# ----------------------------------------------------------------------
# fault lanes share the golden prefix: lazy tiles and chain recordings
# ----------------------------------------------------------------------
#: whether each zoo model's golden pass records a chain of leaf calls
CHAINS = {"simple_mlp": True, "simple_cnn": True, "vgg11": True,
          "resnet18": False, "mobilenet_small": False, "deit_tiny": False}
LANE_FORMATS = ["fp16", "bfp_e5m5_b16"]


class _FanOut(nn.Module):
    """``fc3(fc2(h) + h)``: fc3 takes a value no leaf call returned, which
    reads ``h``, an output of fc1."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.flatten = nn.Flatten(1)
        self.fc1 = nn.Linear(3 * 32 * 32, 16, rng=rng)
        self.fc2 = nn.Linear(16, 16, rng=rng)
        self.fc3 = nn.Linear(16, 6, rng=rng)

    def forward(self, x):
        h = self.fc1(self.flatten(x))
        return self.fc3(self.fc2(h) + h)


class _AddsZero(nn.Module):
    """Returns ``fc2(h) + 0``: every leaf call takes the previous one's
    output, but the pass returns a value no leaf call returned."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.flatten = nn.Flatten(1)
        self.fc1 = nn.Linear(3 * 32 * 32, 16, rng=rng)
        self.fc2 = nn.Linear(16, 6, rng=rng)

    def forward(self, x):
        return self.fc2(self.fc1(self.flatten(x))) + 0


def _lane_model(name):
    return _TwiceMLP() if name == "twice" else _zoo(name)


def _protected(model, spec, images):
    """``model`` under ``spec`` with a range detector profiled on
    ``images`` and active: every layer recomputes in a replay."""
    detector = RangeDetector()
    ge = GoldenEye(model, spec, range_detector=detector).attach()
    _full(ge, images)
    detector.active = True
    return ge


class TestChainRecording:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_zoo_models(self, name):
        with GoldenEye(_zoo(name), "fp16") as ge:
            session = ge.enable_resume()
            assert session.chain is False  # no recording yet
            ge.capture_golden(_images(2))
            assert session.chain is CHAINS[name]

    @pytest.mark.parametrize("model", [_FanOut, _AddsZero, _TwiceMLP])
    def test_toys(self, model):
        with GoldenEye(model(), "fp16") as ge:
            session = ge.enable_resume()
            ge.capture_golden(_images(2))
            assert session.chain is (model is _TwiceMLP)

    def test_every_recording_resets_the_flag(self, mlp, batch):
        images, _ = batch
        session = ResumeSession(mlp)
        session.record_pass(nn.Tensor(images))
        assert session.chain
        with session.recording():  # no model input to link the pass to
            mlp.forward_from(session, nn.Tensor(images))
        assert session.recorded and not session.chain


class TestLaneTiles:
    """A K-lane replay tiles a replayed value only when something reads it."""

    @staticmethod
    def _tiled(monkeypatch):
        """The arrays ``np.tile`` copies while the spy is installed."""
        tiled = []
        tile = np.tile

        def spy(array, reps):
            tiled.append(array)
            return tile(array, reps)

        monkeypatch.setattr(np, "tile", spy)
        return tiled

    @pytest.mark.parametrize("name", ["simple_mlp", "simple_cnn", "twice"])
    @pytest.mark.parametrize("protected", [False, True])
    def test_a_chain_chunk_tiles_one_value(self, name, protected,
                                           monkeypatch):
        """Served from its cached output, the layer tiles that output, the
        stack its lanes' corruptions are applied to; recomputing (under a
        range detector, or as a module run twice), it tiles its input, the
        output recorded just before it (the images at position 0), and
        computes its own output on the tile."""
        images = _images(2)
        labels = np.zeros(2, np.int64)
        model = _lane_model(name)
        ge = (_protected(model, "fp16", images) if protected
              else GoldenEye(model, "fp16").attach())
        session = ge.enable_resume()
        ge.capture_golden(images)
        golden = golden_inference(ge, images, labels)
        rng = np.random.default_rng(5)
        tiled = self._tiled(monkeypatch)
        for layer, state in ge.layers.items():
            start = session.start_index_for(state.module)
            served = ge._serves_output(state)
            assert served == (not protected
                              and session.runs_once(state.module))
            first = start if served else start - 1
            plans = [ge.injector.sample_value_injection(rng, layer=layer)
                     for _ in range(3)]
            tiled.clear()
            execute_injection_batch(ge, golden, images, plans, True)
            expected = (session.cache._entries[first] if first >= 0
                        else images)
            assert len(tiled) == 1 and tiled[0] is expected, layer
        ge.detach()

    def test_a_tile_reads_the_golden_array_and_never_writes_it(self):
        base = np.arange(6, dtype=np.float32).reshape(2, 3)
        base.flags.writeable = False
        lazy = LazyTile(base, 3)
        assert lazy._base is base  # nothing built yet
        assert lazy.data.shape == (6, 3) and lazy.data.flags.writeable
        np.testing.assert_array_equal(lazy.data, np.tile(base, (3, 1)))
        assert lazy.data is lazy.data  # built once
        assert (lazy * 2).data.shape == (6, 3)


def _lane_parity_cases():
    for name in [*CHAINS, "twice"]:
        for spec in LANE_FORMATS:
            for protected in (False, True):
                yield pytest.param(
                    name, spec, protected,
                    id=f"{name}-{spec}-{'detector' if protected else 'plain'}")


class TestLaneParity:
    @pytest.mark.parametrize("name,spec,protected", list(_lane_parity_cases()))
    def test_each_lane_is_its_single_replay(self, name, spec, protected):
        """Every layer, value and (for formats with metadata) metadata
        plans: lane k's logits are, bit for bit, ``forward_from`` with
        plan k armed alone."""
        images = _images(2)
        model = _lane_model(name)
        ge = (_protected(model, spec, images) if protected
              else GoldenEye(model, spec).attach())
        ge.enable_resume()
        ge.capture_golden(images)
        rng = np.random.default_rng(31)
        kinds = ["value", "metadata"] if ge.layers[
            ge.layer_names()[0]].neuron_format.has_metadata else ["value"]
        for layer in ge.layer_names():
            for kind in kinds:
                sample = getattr(ge.injector, f"sample_{kind}_injection")
                plans = [sample(rng, layer=layer) for _ in range(3)]
                lanes = ge.forward_from_batched(layer, plans, images)
                for k, plan in enumerate(plans):
                    with ge.injector.armed(plan):
                        single = ge.forward_from(layer, images)
                    _assert_bits(lanes[k], single, f"{layer} lane {k} {plan}")
        ge.detach()
