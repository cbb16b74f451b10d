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
    MetadataInjection,
    RangeDetector,
    ResumeSession,
    ValueInjection,
    run_campaign,
)
from repro.core.campaign import golden_inference
from repro.models import simple_cnn, simple_mlp
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
    def test_put_get_roundtrip(self):
        cache = ActivationCache(budget_bytes=None)
        arr = np.arange(8, dtype=np.float32)
        assert cache.put(0, arr)
        assert cache.get(0) is arr
        assert cache.stats.hits == 1

    def test_budget_evicts_lru(self):
        cache = ActivationCache(budget_bytes=3 * 40)  # three 10-float arrays
        for k in range(3):
            cache.put(k, np.zeros(10, dtype=np.float32))
        cache.get(0)  # refresh 0: key 1 becomes LRU
        cache.put(3, np.zeros(10, dtype=np.float32))
        assert 0 in cache and 3 in cache
        assert 1 not in cache
        assert cache.stats.evictions == 1
        assert cache.nbytes <= 3 * 40

    def test_oversize_tensor_never_stored(self):
        cache = ActivationCache(budget_bytes=16)
        assert not cache.put(0, np.zeros(100, dtype=np.float32))
        assert 0 not in cache
        assert cache.stats.skipped == 1

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
            before = session.stats.replayed
            ge.forward_from(ge.layer_names()[-1], images)
            # the deepest instrumented layer sits behind several leaf modules,
            # all of which must come from the cache
            assert session.stats.replayed - before >= 3
            assert session.stats.diverged == 0


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
            assert session.stats.evictions + session.stats.skipped > 0
            resumed = ge.forward_from(ge.layer_names()[-1], images)
            np.testing.assert_array_equal(resumed, golden)
            assert session.stats.recomputed > 0  # fell back module-by-module

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
            assert session.stats.diverged == 1

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
            assert session.stats.replayed == session.stats.hits == start + 1
            assert session.stats.misses == 0


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

    def test_adopt_claims_session_and_resets_stats(self, cnn, batch):
        import os

        from repro.nn import Tensor

        session = ResumeSession(cnn)
        with session.recording():
            full = cnn.forward_from(session, Tensor(batch[0]))
        session.cache.stats.hits = 99
        session.owner_pid = os.getpid() + 1  # pretend we are the fork child
        session.adopt()
        assert session.is_owner
        assert session.stats.hits == 0  # per-worker delta starts clean
        # the recording itself survives adoption: replay is still bit-exact
        assert session.recorded
        start = session.start_index_for(cnn.fc)
        with session.replaying(start):
            resumed = cnn.forward_from(session, Tensor(batch[0]))
        np.testing.assert_array_equal(full.data, resumed.data)
        assert session.stats.replayed > 0

    def test_adopt_is_idempotent_for_the_owner(self, cnn):
        session = ResumeSession(cnn)
        session.cache.stats.hits = 7
        session.adopt()  # already the owner: stats must be preserved
        assert session.stats.hits == 7


# ----------------------------------------------------------------------
# shared read-only cache adoption (exec/shmcache integration)
# ----------------------------------------------------------------------
class TestSharedAdoption:
    """`adopt_shared` swaps the private cache for the published read-only
    segment: replay must stay bit-exact while every write path raises
    instead of silently diverging a worker from its siblings."""

    def _published_session(self, cnn, batch):
        from repro.exec import SharedGoldenCache
        from repro.nn import Tensor

        session = ResumeSession(cnn)
        with session.recording():
            full = cnn.forward_from(session, Tensor(batch[0]))
        shm = SharedGoldenCache.publish(session.cache.entries())
        return session, shm, full

    def test_adopt_shared_replays_bit_exact(self, cnn, batch):
        from repro.nn import Tensor

        session, shm, full = self._published_session(cnn, batch)
        try:
            session.adopt_shared(shm)
            assert session.is_owner and session.recorded
            start = session.start_index_for(cnn.fc)
            with session.replaying(start):
                resumed = cnn.forward_from(session, Tensor(batch[0]))
            np.testing.assert_array_equal(full.data, resumed.data)
            assert session.stats.replayed > 0
            assert session.stats.hits > 0  # served from the shared pages
        finally:
            shm.release()

    def test_adopted_cache_refuses_writes(self, cnn, batch):
        from repro.core.resume import ReadOnlyCacheError

        session, shm, _ = self._published_session(cnn, batch)
        try:
            session.adopt_shared(shm)
            with pytest.raises(ReadOnlyCacheError, match="read-only"):
                session.cache.put(0, np.zeros(3))
            with pytest.raises(ReadOnlyCacheError, match="read-only"):
                session.cache.drop(0)
            with pytest.raises(ReadOnlyCacheError, match="read-only"):
                session.cache.clear()
        finally:
            shm.release()

    def test_recording_refusal_leaves_session_intact(self, cnn, batch):
        """The regression of ISSUE 6: re-recording over a shared cache must
        raise *before* touching any session state, not corrupt it."""
        from repro.core.resume import ReadOnlyCacheError
        from repro.nn import Tensor

        session, shm, full = self._published_session(cnn, batch)
        try:
            session.adopt_shared(shm)
            order_before = list(session.order)
            with pytest.raises(ReadOnlyCacheError, match="read-only"):
                with session.recording():
                    pass  # pragma: no cover - never reached
            # the refusal must not have wiped the recorded pass
            assert session.order == order_before
            assert session.recorded
            start = session.start_index_for(cnn.fc)
            with session.replaying(start):
                resumed = cnn.forward_from(session, Tensor(batch[0]))
            np.testing.assert_array_equal(full.data, resumed.data)
        finally:
            shm.release()

    def test_shared_views_are_immutable(self, cnn, batch):
        session, shm, _ = self._published_session(cnn, batch)
        try:
            session.adopt_shared(shm)
            start = session.start_index_for(cnn.fc)
            view = session.cache.get(start)
            assert view is not None and not view.flags.writeable
            with pytest.raises(ValueError):
                view[...] = 0.0
        finally:
            shm.release()
