"""Tests for the injection-campaign runner and the 8-site catalogue."""

import re

import numpy as np
import pytest

from repro.analysis import profile_resilience
from repro.core import (
    GoldenEye,
    INJECTION_SITES,
    injection_sites,
    run_campaign,
    site_by_name,
)
from repro.models import simple_cnn
from repro.nn import Linear, Module


@pytest.fixture
def model():
    return simple_cnn(num_classes=4, image_size=8, seed=0)


@pytest.fixture
def data(rng):
    return (rng.standard_normal((8, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=8))


class TestCampaignRunner:
    def test_requires_attached_platform(self, model, data):
        ge = GoldenEye(model, "fp16")
        with pytest.raises(RuntimeError, match="attach"):
            run_campaign(ge, *data)

    def test_rejects_unknown_kind(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            with pytest.raises(ValueError, match="kind"):
                run_campaign(ge, *data, kind="gradient")

    def test_per_layer_results_cover_targets(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=5, seed=0)
        assert set(result.per_layer) == {"conv1", "conv2", "fc"}
        for layer_result in result.per_layer.values():
            assert layer_result.injections == 5
            assert len(layer_result.delta_losses) == 5
            assert layer_result.max_delta_loss >= layer_result.mean_delta_loss

    def test_deterministic_with_same_seed(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            r1 = run_campaign(ge, *data, injections_per_layer=5, seed=3)
            r2 = run_campaign(ge, *data, injections_per_layer=5, seed=3)
        for layer in r1.per_layer:
            assert r1.per_layer[layer].delta_losses == r2.per_layer[layer].delta_losses

    def test_different_seeds_differ(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            r1 = run_campaign(ge, *data, injections_per_layer=8, seed=0)
            r2 = run_campaign(ge, *data, injections_per_layer=8, seed=99)
        assert any(
            r1.per_layer[n].delta_losses != r2.per_layer[n].delta_losses
            for n in r1.per_layer
        )

    def test_layer_subset(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=3, layers=["fc"])
        assert list(result.per_layer) == ["fc"]

    def test_metadata_campaign_on_fp_yields_nothing(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, kind="metadata", injections_per_layer=3)
        assert result.per_layer == {}

    def test_metadata_campaign_on_int(self, model, data):
        with GoldenEye(model, "int8") as ge:
            result = run_campaign(ge, *data, kind="metadata", injections_per_layer=5)
        assert set(result.per_layer) == {"conv1", "conv2", "fc"}

    def test_unique_sites_exhausted_gracefully(self, data, rng):
        # a layer with 2 outputs x 8 bits = 16 unique neuron sites; asking for
        # 100 must stop at 16, not loop forever
        class Tiny(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(3 * 8 * 8, 2, rng=np.random.default_rng(0))

            def forward(self, x):
                return self.fc(x.flatten(1))

        images, labels = data
        with GoldenEye(Tiny(), "int8") as ge:
            result = run_campaign(ge, images, labels % 2,
                                  injections_per_layer=100, seed=0)
        assert result.per_layer["fc"].injections == 16

    def test_metadata_site_space_exhaustion(self, model, data):
        # int8 neurons: 1 register x 32 bits = 32 unique metadata sites
        with GoldenEye(model, "int8") as ge:
            result = run_campaign(ge, *data, kind="metadata",
                                  injections_per_layer=1000, layers=["fc"])
        assert result.per_layer["fc"].injections == 32

    def test_weight_location_campaign(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, location="weight",
                                  injections_per_layer=4, seed=0)
        assert result.location == "weight"
        assert all(r.injections == 4 for r in result.per_layer.values())

    def test_golden_accuracy_recorded(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=2)
        assert 0.0 <= result.golden_accuracy <= 1.0

    def test_aggregates(self, model, data):
        with GoldenEye(model, "int8") as ge:
            result = run_campaign(ge, *data, injections_per_layer=4)
        assert result.mean_delta_loss() == pytest.approx(
            np.mean([r.mean_delta_loss for r in result.per_layer.values()]))
        assert 0.0 <= result.mean_mismatch_rate() <= 1.0

    def test_model_state_unchanged_after_campaign(self, model, data):
        before = {k: v.copy() for k, v in model.state_dict().items()}
        with GoldenEye(model, "bfp_e5m5_b16") as ge:
            run_campaign(ge, *data, injections_per_layer=3, seed=0)
            run_campaign(ge, *data, kind="metadata", injections_per_layer=3, seed=0)
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestSiteCatalogue:
    def test_exactly_eight_sites(self):
        assert len(INJECTION_SITES) == 8

    def test_five_value_sites(self):
        value_sites = injection_sites("value")
        assert len(value_sites) == 5
        kinds = {s.make_format().kind for s in value_sites}
        assert kinds == {"fp", "fxp", "int", "bfp", "afp"}

    def test_three_metadata_sites(self):
        meta_sites = injection_sites("metadata")
        assert len(meta_sites) == 3
        assert all(s.make_format().has_metadata for s in meta_sites)

    def test_kind_filter_validation(self):
        with pytest.raises(ValueError, match="value.*metadata"):
            injection_sites("gradient")

    def test_site_by_name(self):
        site = site_by_name("bfp-metadata")
        assert site.kind == "metadata"
        with pytest.raises(KeyError, match="unknown"):
            site_by_name("dram-ecc")

    def test_sites_have_descriptions(self):
        assert all(len(s.description) > 20 for s in INJECTION_SITES)

    def test_site_formats_instantiate(self):
        for site in INJECTION_SITES:
            fmt = site.make_format()
            assert fmt.bit_width >= 2


class TestMultiBitCampaign:
    def test_num_bits_respected(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=4,
                                  num_bits=3, seed=0)
        assert all(r.injections == 4 for r in result.per_layer.values())

    @pytest.mark.parametrize("spec,kind", [("fp16", "value"),
                                           ("int8", "metadata")])
    @pytest.mark.parametrize("location", ["neuron", "weight"])
    def test_num_bits_wider_than_the_word_raises(self, model, data, spec,
                                                 kind, location):
        """40 distinct bits fit no 16-bit word or 32-bit register: the
        campaign raises instead of recording a sampling error per layer."""
        with GoldenEye(model, spec) as ge:
            with pytest.raises(ValueError, match="larger sample"):
                run_campaign(ge, *data, kind=kind, location=location,
                             injections_per_layer=2, num_bits=40, seed=0)

    def test_burst_wider_than_the_word_is_a_sampling_error(self, model,
                                                           data):
        """A burst that fits no word of a layer stays that layer's sampling
        error: the campaign returns, with no injection at any layer."""
        from repro.core import parse_fault_model
        from repro.core.campaign import sample_layer_plans

        with GoldenEye(model, "int8") as ge:
            result = run_campaign(ge, *data, injections_per_layer=2, seed=0,
                                  fault_model="burst4:stride8")
            plan = sample_layer_plans(
                ge, "fc", "value", "neuron", 2, np.random.default_rng(0),
                fault_model=parse_fault_model("burst4:stride8"))
        assert not result.per_layer
        assert not plan.plans
        assert "cannot fit a 8-bit word" in plan.sampling_error

    def test_multibit_at_least_as_damaging_on_average(self, model, data):
        # flipping 4 bits of a 16-bit word is (statistically) no gentler
        # than flipping 1; compare with matched seeds
        with GoldenEye(model, "fp16") as ge:
            single = run_campaign(ge, *data, injections_per_layer=12,
                                  layers=["fc"], num_bits=1, seed=3)
            multi = run_campaign(ge, *data, injections_per_layer=12,
                                 layers=["fc"], num_bits=4, seed=3)
        assert (multi.per_layer["fc"].mean_delta_loss
                >= single.per_layer["fc"].mean_delta_loss * 0.5)


class TestPerLayerDeterminism:
    """The per-layer child RNG makes each layer's draw independent of which
    other layers run in the same campaign (regression for the shared-stream
    bug where subsetting ``layers=`` shifted every subsequent draw)."""

    def test_subset_matches_full_campaign(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            full = run_campaign(ge, *data, injections_per_layer=6, seed=7)
            only_fc = run_campaign(ge, *data, injections_per_layer=6, seed=7,
                                   layers=["fc"])
        assert only_fc.per_layer["fc"].delta_losses == \
            full.per_layer["fc"].delta_losses

    def test_layer_order_is_irrelevant(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            fwd = run_campaign(ge, *data, injections_per_layer=5, seed=11,
                               layers=["conv1", "fc"])
            rev = run_campaign(ge, *data, injections_per_layer=5, seed=11,
                               layers=["fc", "conv1"])
        for layer in ("conv1", "fc"):
            assert fwd.per_layer[layer].delta_losses == \
                rev.per_layer[layer].delta_losses

    def test_metadata_campaign_subset_matches(self, model, data):
        with GoldenEye(model, "bfp_e5m5_b16") as ge:
            full = run_campaign(ge, *data, kind="metadata",
                                injections_per_layer=4, seed=2)
            sub = run_campaign(ge, *data, kind="metadata",
                               injections_per_layer=4, seed=2,
                               layers=["conv2"])
        assert sub.per_layer["conv2"].delta_losses == \
            full.per_layer["conv2"].delta_losses


class TestSiteSpace:
    """Site-space accounting excludes the batch axis at every rank."""

    def test_per_sample_numel_ranks(self):
        from repro.core.injection import per_sample_numel
        assert per_sample_numel((8,)) == 1          # 1-D: batch of scalars
        assert per_sample_numel((8, 10)) == 10      # 2-D: linear output
        assert per_sample_numel((8, 4, 5, 5)) == 100  # 4-D: conv feature map
        assert per_sample_numel(()) == 1            # rank-0 corner

    def test_site_space_uses_per_sample_elements(self, model, data):
        from repro.core.campaign import _site_space, golden_inference
        with GoldenEye(model, "fp16") as ge:
            golden_inference(ge, *data)
            fc = ge.layers["fc"]
            batch, classes = fc.last_output_shape
            assert batch == 8 and classes == 4
            width = fc.neuron_format.bit_width
            assert _site_space(ge, "fc", "value", "neuron") == classes * width

    def test_site_space_one_dim_output_is_one_element(self, model, data):
        from repro.core.campaign import _site_space, golden_inference
        with GoldenEye(model, "fp16") as ge:
            golden_inference(ge, *data)
            fc = ge.layers["fc"]
            fc.last_output_shape = (8,)  # simulate a scalar-per-sample head
            assert _site_space(ge, "fc", "value", "neuron") == \
                fc.neuron_format.bit_width

    def test_site_space_before_golden_is_zero(self, model):
        from repro.core.campaign import _site_space
        with GoldenEye(model, "fp16") as ge:
            assert _site_space(ge, "fc", "value", "neuron") == 0


class TestCampaignRobustness:
    """Regression tests for the executor-hardening satellites (ISSUE 4)."""

    def test_unknown_layers_rejected_upfront(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            with pytest.raises(ValueError, match=r"unknown layer\(s\).*'nope'"):
                run_campaign(ge, *data, layers=["conv1", "nope"],
                             injections_per_layer=2)
            # nothing ran: the platform is untouched and still usable
            result = run_campaign(ge, *data, layers=["conv1"],
                                  injections_per_layer=2)
            assert set(result.per_layer) == {"conv1"}

    @pytest.mark.parametrize("images_rows,labels_of", [
        (8, lambda labels: labels[:, None]),  # used to broadcast to 8x8
        (8, lambda labels: labels[:7]),
        (0, lambda labels: labels[:0]),
    ], ids=["column-labels", "seven-labels", "empty-batch"])
    def test_labels_that_do_not_fit_the_batch_fail_fast(self, model,
                                                        images_rows,
                                                        labels_of):
        rng = np.random.default_rng(0)  # leaves the session rng to others
        images = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
        images, labels = images[:images_rows], labels_of(
            rng.integers(0, 4, size=8))
        shapes = rf"{re.escape(str(labels.shape))}.*" \
                 rf"{re.escape(str(images.shape))}"
        with GoldenEye(model, "fp32") as ge:
            with pytest.raises(ValueError, match=shapes):
                run_campaign(ge, images, labels, injections_per_layer=2,
                             seed=0)
        with pytest.raises(ValueError, match=shapes):
            profile_resilience(model, "simple_cnn", "fp32", images, labels,
                               injections_per_layer=2, seed=0)

    def test_resume_cache_released_when_injection_raises(self, model, data,
                                                         monkeypatch):
        """platform.clear_resume() must run even when execution blows up,
        and the sealed /progress keeps the cache counts, not the cache."""
        import gc
        import weakref

        import repro.core.campaign as campaign_mod
        from repro.core.resume import COUNTS
        from repro.obs.live import LiveServer

        def boom(*args, **kwargs):
            raise RuntimeError("injection exploded")

        sessions = []
        enable_resume = GoldenEye.enable_resume

        def spy(platform, *args, **kwargs):
            session = enable_resume(platform, *args, **kwargs)
            sessions.append(weakref.ref(session))
            return session

        # every chunk, batched or not, executes through this call
        monkeypatch.setattr(campaign_mod, "execute_injection_batch", boom)
        monkeypatch.setattr(GoldenEye, "enable_resume", spy)
        with LiveServer.start("127.0.0.1:0") as server:
            with GoldenEye(model, "fp16") as ge:
                with pytest.raises(RuntimeError, match="injection exploded"):
                    run_campaign(ge, *data, injections_per_layer=2, seed=0,
                                 serve=server)
                assert ge.resume_session is None  # cache released, not leaked
            gc.collect()
            assert [ref() for ref in sessions] == [None]
            sealed = server.progress.snapshot()
        assert sealed["state"] == "error"
        # the golden pass was recorded and no injection ran: all ten zero
        assert sealed["resume"] == dict.fromkeys(COUNTS, 0) | {"hit_rate": 0.0}

    def test_late_injection_error_keeps_partial_layer(self, model, data,
                                                      monkeypatch):
        """An InjectionError mid-sampling must not discard the plans already
        drawn: the layer aggregates a partial result (satellite regression
        for the old behaviour of discarding the whole layer)."""
        from repro.core.injection import InjectionError

        with GoldenEye(model, "fp16") as ge:
            engine = ge.injector
            original = engine.sample_value_injection
            calls = {"fc": 0}

            def flaky(rng, layer, **kwargs):
                if layer == "fc":
                    calls["fc"] += 1
                    if calls["fc"] > 2:
                        raise InjectionError("site space collapsed")
                return original(rng, layer=layer, **kwargs)

            monkeypatch.setattr(engine, "sample_value_injection", flaky)
            result = run_campaign(ge, *data, injections_per_layer=5, seed=0)
        # the two successful draws at fc were executed and aggregated
        assert "fc" in result.per_layer
        assert result.per_layer["fc"].injections == 2
        assert len(result.per_layer["fc"].delta_losses) == 2
        # the healthy layers are untouched by fc's sampling failure
        assert result.per_layer["conv1"].injections == 5
        assert result.per_layer["conv2"].injections == 5

    def test_sampling_error_recorded_on_plan(self, model, data, monkeypatch):
        from repro.core.campaign import sample_layer_plans
        from repro.core.injection import InjectionError

        with GoldenEye(model, "fp16") as ge:
            run_campaign(ge, *data, injections_per_layer=1, seed=0)  # warm shapes
            engine = ge.injector

            def always_fails(rng, **kwargs):
                raise InjectionError("nope")

            monkeypatch.setattr(engine, "sample_value_injection", always_fails)
            plan = sample_layer_plans(ge, "fc", "value", "neuron", 4,
                                      np.random.default_rng(0))
        assert plan.plans == []
        assert plan.sampling_error == "nope"


class TestCampaignSettings:
    """One settings path: keywords apply over ``spec`` / ``exec_config``."""

    def test_exec_config_alone_defaults_to_serial(self, model, data):
        from repro.exec import ExecConfig

        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=3, seed=0,
                                  exec_config=ExecConfig(fault_batch=4))
        assert result.telemetry["workers"] == 1
        assert result.telemetry["fault_batch"] == 4

    def test_keyword_overrides_exec_config(self, model, data):
        from repro.exec import ExecConfig

        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=3, seed=0,
                                  exec_config=ExecConfig(workers=2),
                                  workers=1)
        assert result.telemetry["workers"] == 1

    def test_misspelled_keyword_is_named(self, model, data):
        with GoldenEye(model, "fp16") as ge:
            with pytest.raises(TypeError, match="'worker'"):
                run_campaign(ge, *data, worker=2)

    def test_profile_campaigns_differ_only_in_kind_and_seed(self, model,
                                                            data):
        from repro.analysis import profile_resilience

        profile = profile_resilience(model, "cnn", "int8", *data,
                                     injections_per_layer=3, seed=4,
                                     workers=1, fault_batch=2)
        value = profile.value_campaign.fingerprint
        metadata = profile.metadata_campaign.fingerprint
        assert value.keys() == metadata.keys()
        assert {k for k in value if value[k] != metadata[k]} == {"kind",
                                                                "seed"}
        assert (value["kind"], value["seed"]) == ("value", 4)
        assert (metadata["kind"], metadata["seed"]) == ("metadata", 5)


class TestLaneCount:
    """``ExecConfig.fault_batch=None`` resolves K per layer (``lane_count``)."""

    @staticmethod
    def _chunks(monkeypatch):
        """Spy on the chunk sizes ``execute_chunks`` hands to the batch call."""
        import repro.core.campaign as campaign_mod

        sizes: list[int] = []
        inner = campaign_mod.execute_injection_batch

        def spy(platform, golden, images, plans, *args, **kwargs):
            sizes.append(len(plans))
            return inner(platform, golden, images, plans, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "execute_injection_batch", spy)
        return sizes

    @staticmethod
    def _split(total, k):
        """The chunk sizes of ``total`` plans at ``k`` per chunk."""
        return [k] * (total // k) + [total % k] * (total % k > 0)

    def test_automatic_k_is_the_lane_budget_over_one_lane(self, model, data,
                                                          monkeypatch):
        """Each layer's K is ``LANE_BYTES //`` its lane, capped at its plan
        count.  simple_cnn records a chain and no observer makes a layer
        recompute, so a lane holds the recorded outputs from its layer on."""
        import repro.core.campaign as campaign_mod

        images, labels = data
        with GoldenEye(model, "fp16") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            assert session.chain
            lanes = {name: session.bytes_from(
                         session.start_index_for(state.module))
                     for name, state in ge.layers.items()}
            ge.clear_resume()
            # a small model: the plan count caps K
            assert campaign_mod.LANE_BYTES // max(lanes.values()) > 40
            sizes = self._chunks(monkeypatch)
            capped = run_campaign(ge, images, labels, injections_per_layer=40,
                                  seed=0)
            assert capped.telemetry["fault_batch"] == 40
            assert sizes == [40] * len(capped.per_layer)
            sizes.clear()
            budget = 3 * lanes["conv1"] + 1
            monkeypatch.setattr(campaign_mod, "LANE_BYTES", budget)
            budgeted = run_campaign(ge, images, labels,
                                    injections_per_layer=40, seed=0)
        ks = {name: min(40, budget // lane) for name, lane in lanes.items()}
        assert ks["conv1"] == 3 and len(set(ks.values())) == len(ks)
        assert budgeted.telemetry["fault_batch"] == max(ks.values())
        assert sizes == [size for name in budgeted.per_layer
                         for size in self._split(40, ks[name])]
        for layer, stats in capped.per_layer.items():
            assert stats.delta_losses == budgeted.per_layer[layer].delta_losses

    @staticmethod
    def _lane_counts(name, images, protected, plans=10 ** 6):
        """Automatic K of every layer of zoo model ``name`` recorded on
        ``images`` (under an active range detector when ``protected``),
        for ``plans`` plans, the session, and each layer's input bytes."""
        from repro.core import RangeDetector
        from repro.core.campaign import golden_inference, lane_count
        from repro.exec import ExecConfig
        from repro.models import create_model

        model = create_model(name, num_classes=4, seed=0)
        model.eval()
        detector = RangeDetector() if protected else None
        labels = np.zeros(len(images), np.int64)
        inputs = {}

        def measure(layer):
            def hook(module, args):
                inputs[layer] = args[0].data.nbytes
            return hook

        with GoldenEye(model, "fp16", range_detector=detector) as ge:
            handles = [state.module.register_forward_pre_hook(measure(layer))
                       for layer, state in ge.layers.items()]
            golden_inference(ge, images, labels)  # profiles the detector
            for handle in handles:
                handle.remove()
            if detector is not None:
                detector.active = True
            session = ge.enable_resume()
            ge.capture_golden(images)
            rng = np.random.default_rng(0)
            ks = {layer: lane_count(
                      ge, images,
                      [ge.injector.sample_value_injection(rng, layer=layer)]
                      * plans, ExecConfig())
                  for layer in ge.layers}
            starts = {layer: session.start_index_for(state.module)
                      for layer, state in ge.layers.items()}
        return ks, session, starts, inputs

    @pytest.mark.parametrize("name", ["simple_mlp", "simple_cnn", "vgg11"])
    @pytest.mark.parametrize("protected", [False, True])
    def test_a_chain_lane_holds_the_recording_from_its_layer_on(
            self, name, protected):
        """Lanes share every value before their layer, and a chain reads
        none of them but the layer's input, when the layer recomputes (a
        range detector makes it)."""
        from repro.core.campaign import LANE_BYTES

        images = np.random.default_rng(3).standard_normal(
            (4, 3, 32, 32)).astype(np.float32)
        ks, session, starts, inputs = self._lane_counts(name, images,
                                                        protected)
        assert session.chain
        for layer, start in starts.items():
            lane = session.bytes_from(start) + inputs[layer] * protected
            assert ks[layer] == max(1, min(10 ** 6, LANE_BYTES // lane)), layer
        capped, *_ = self._lane_counts(name, images, protected, plans=2)
        assert capped == {layer: min(2, k) for layer, k in ks.items()}

    @pytest.mark.parametrize("name", ["resnet18", "mobilenet_small",
                                      "deit_tiny"])
    @pytest.mark.parametrize("protected", [False, True])
    def test_any_other_lane_holds_the_images_and_the_whole_recording(
            self, name, protected):
        """Functional ops between leaf calls read prefix values, so a lane
        of a recording that is not a chain may tile every one of them."""
        from repro.core.campaign import LANE_BYTES

        images = np.random.default_rng(3).standard_normal(
            (1, 3, 32, 32)).astype(np.float32)
        ks, session, _, _ = self._lane_counts(name, images, protected)
        assert not session.chain
        lane = images.nbytes + session.cache.nbytes
        assert LANE_BYTES // lane > 1
        assert set(ks.values()) == {LANE_BYTES // lane}

    def test_an_explicit_k_is_honoured(self, model, data, monkeypatch):
        from repro.exec import ExecConfig

        sizes = self._chunks(monkeypatch)
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=7, seed=0,
                                  exec_config=ExecConfig(fault_batch=3))
        assert result.telemetry["fault_batch"] == 3
        assert sizes == [3, 3, 1] * len(result.per_layer)

    @pytest.mark.parametrize("value", [0, -2])
    def test_fault_batch_below_one_raises(self, model, data, value):
        from repro.cli import build_parser
        from repro.exec import ExecConfig

        with pytest.raises(ValueError, match="fault_batch"):
            ExecConfig(fault_batch=value)
        with GoldenEye(model, "fp16") as ge:
            with pytest.raises(ValueError, match="fault_batch"):
                run_campaign(ge, *data, injections_per_layer=2,
                             fault_batch=value)
        argv = ["campaign", "--model", "simple_cnn"]
        assert build_parser().parse_args(argv).fault_batch is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--fault-batch", str(value)])

    def test_k_is_one_without_a_recording(self, model, data, monkeypatch):
        sizes = self._chunks(monkeypatch)
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, *data, injections_per_layer=4, seed=0,
                                  resume=False)
        assert result.telemetry["fault_batch"] == 1
        assert set(sizes) == {1}

    def _assert_unobserved_path(self, model, data, monkeypatch, observer,
                                make):
        """An ``observer`` platform argument built by ``make`` leaves the
        chunks and every layer's outcomes those of the unobserved campaign,
        bit for bit, and K above 1."""
        sizes = self._chunks(monkeypatch)
        runs = []
        for instance in (None, make()):
            with GoldenEye(model, "fp16", **{observer: instance}) as ge:
                runs.append(run_campaign(ge, *data, injections_per_layer=7,
                                         seed=0))
        plain, observed = runs
        assert observed.telemetry["fault_batch"] == \
            plain.telemetry["fault_batch"] > 1
        half = len(sizes) // 2
        assert sizes[half:] == sizes[:half]
        for layer, stats in plain.per_layer.items():
            other = observed.per_layer[layer]
            assert other.delta_losses == stats.delta_losses, layer
            assert other.sdc_rate == stats.sdc_rate, layer
            assert other.mismatch_rate == stats.mismatch_rate, layer

    def test_k_under_a_monitor_equals_k_without_one(self, model, data,
                                                    monkeypatch):
        """A numerics monitor's sinks sit inside the quantizers and observe
        no layer call."""
        from repro.obs import NumericHealthMonitor

        self._assert_unobserved_path(model, data, monkeypatch, "numerics",
                                     NumericHealthMonitor)

    def test_k_under_a_profiler_equals_k_without_one(self, model, data,
                                                     monkeypatch):
        """A profiler only wraps calls."""
        from repro.obs import LayerProfiler

        self._assert_unobserved_path(model, data, monkeypatch, "profiler",
                                     LayerProfiler)

    @pytest.mark.parametrize("kind,location", [("value", "weight")])
    def test_k_is_one_for_plans_that_cannot_batch(self, model, data,
                                                  monkeypatch, kind,
                                                  location):
        sizes = self._chunks(monkeypatch)
        with GoldenEye(model, "int8") as ge:
            result = run_campaign(ge, *data, kind=kind, location=location,
                                  injections_per_layer=4, seed=0)
        assert result.telemetry["fault_batch"] == 1
        assert sizes and set(sizes) == {1}

    def test_neuron_metadata_plans_share_a_pass(self, model, data,
                                                monkeypatch):
        """Each lane's metadata register is live during its own quantize,
        so neuron metadata plans batch, bit for bit with K=1."""
        sizes = self._chunks(monkeypatch)
        runs = []
        for fault_batch in (None, 1):
            with GoldenEye(model, "int8") as ge:
                runs.append(run_campaign(ge, *data, kind="metadata",
                                         injections_per_layer=4, seed=0,
                                         fault_batch=fault_batch))
        batched, single = runs
        assert batched.telemetry["fault_batch"] == 4
        layers = len(batched.per_layer)
        assert sizes == [4] * layers + [1] * 4 * layers
        for layer, stats in single.per_layer.items():
            other = batched.per_layer[layer]
            assert other.delta_losses == stats.delta_losses, layer
            assert other.sdc_rate == stats.sdc_rate, layer
            assert other.mismatch_rate == stats.mismatch_rate, layer
