"""Tests for the error-injection engine (values, metadata, weights, sampling)."""

import numpy as np
import pytest

from repro.core import GoldenEye, InjectionError, MetadataInjection, ValueInjection
from repro.core.campaign import golden_inference
from repro.models import simple_cnn


@pytest.fixture
def model():
    return simple_cnn(num_classes=4, image_size=8, seed=0)


@pytest.fixture
def x(rng):
    return rng.standard_normal((3, 3, 8, 8)).astype(np.float32)


@pytest.fixture
def labels():
    return np.array([0, 1, 2])


class TestPlanValidation:
    def test_value_injection_rejects_bad_location(self):
        with pytest.raises(InjectionError, match="location"):
            ValueInjection("fc", "gradient", 0, (0,))

    def test_value_injection_requires_bits(self):
        with pytest.raises(InjectionError, match="bit"):
            ValueInjection("fc", "neuron", 0, ())

    def test_value_injection_rejects_negative_index(self):
        with pytest.raises(InjectionError, match="flat_index"):
            ValueInjection("fc", "neuron", -1, (0,))

    def test_metadata_injection_rejects_bad_location(self):
        with pytest.raises(InjectionError, match="location"):
            MetadataInjection("fc", "bias", 0, (0,))

    def test_arm_unknown_layer(self, model):
        ge = GoldenEye(model, "fp16").attach()
        with pytest.raises(InjectionError, match="not instrumented"):
            ge.injector.arm(ValueInjection("nope", "neuron", 0, (0,)))
        ge.detach()

    def test_arm_bit_out_of_format_range(self, model):
        ge = GoldenEye(model, "int8").attach()
        with pytest.raises(InjectionError, match="out of range"):
            ge.injector.arm(ValueInjection("fc", "neuron", 0, (8,)))
        ge.detach()

    def test_metadata_plan_on_metadata_free_format(self, model):
        ge = GoldenEye(model, "fp16").attach()
        with pytest.raises(InjectionError, match="no metadata"):
            ge.injector.arm(MetadataInjection("fc", "neuron", 0, (0,)))
        ge.detach()


class TestNeuronValueInjection:
    def test_flip_corrupts_exactly_one_site_per_sample(self, model, x, labels):
        ge = GoldenEye(model, "fp16", quantize_weights=False).attach()
        golden = golden_inference(ge, x, labels)
        plan = ValueInjection("fc", "neuron", 1, (1,))  # exponent MSB of logit 1
        captured = {}
        handle = model.fc.register_forward_hook(
            lambda m, i, o: captured.update(out=o.data.copy()))
        with ge.injector.armed(plan):
            faulty = golden_inference(ge, x, labels)
        handle.remove()
        ge.detach()
        # logit 1 of EVERY sample corrupted, all other logits identical
        diff = faulty.logits != golden.logits
        assert diff[:, 1].all()
        assert not diff[:, [0, 2, 3]].any()

    def test_disarm_restores_clean_inference(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        golden = golden_inference(ge, x, labels)
        with ge.injector.armed(ValueInjection("fc", "neuron", 0, (1,))):
            pass
        clean = golden_inference(ge, x, labels)
        np.testing.assert_array_equal(golden.logits, clean.logits)
        ge.detach()

    def test_out_of_range_index_raises_at_forward(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        ge.injector.arm(ValueInjection("fc", "neuron", 10 ** 9, (0,)))
        with pytest.raises(InjectionError, match="out of range"):
            golden_inference(ge, x, labels)
        ge.injector.disarm()
        ge.detach()

    def test_multi_bit_flip(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        golden = golden_inference(ge, x, labels)
        with ge.injector.armed(ValueInjection("fc", "neuron", 0, (0, 1, 5))):
            faulty = golden_inference(ge, x, labels)
        assert (faulty.logits[:, 0] != golden.logits[:, 0]).all()
        ge.detach()

    def test_fp32_fabric_injection_without_emulation(self, model, x, labels):
        # injection with no neuron format = classic PyTorchFI bit flip in FP32
        ge = GoldenEye(model, "fp32", quantize_neurons=False,
                       range_detector=None).attach()
        # need a hook to apply neuron injections: use detector-free neuron mode
        ge.detach()
        ge = GoldenEye(model, "fp32").attach()
        golden = golden_inference(ge, x, labels)
        with ge.injector.armed(ValueInjection("fc", "neuron", 0, (1,))):
            faulty = golden_inference(ge, x, labels)
        assert not np.array_equal(golden.logits, faulty.logits)
        ge.detach()

    def test_injection_counter(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        assert ge.injector.injections_applied == 0
        with ge.injector.armed(ValueInjection("fc", "neuron", 0, (0,))):
            golden_inference(ge, x, labels)
        assert ge.injector.injections_applied == 1
        ge.detach()


class TestWeightInjection:
    def test_weight_value_flip_applied_and_restored(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        quantized = model.fc.weight.data.copy()
        plan = ValueInjection("fc", "weight", 5, (1,))
        ge.injector.arm(plan)
        assert model.fc.weight.data.reshape(-1)[5] != quantized.reshape(-1)[5]
        changed = model.fc.weight.data != quantized
        assert changed.sum() == 1
        ge.injector.disarm()
        np.testing.assert_array_equal(model.fc.weight.data, quantized)
        ge.detach()

    def test_weight_metadata_flip_rescales_tensor(self, model):
        ge = GoldenEye(model, "int8").attach()
        quantized = model.fc.weight.data.copy()
        ge.injector.arm(MetadataInjection("fc", "weight", 0, (0,)))  # sign of scale
        np.testing.assert_allclose(model.fc.weight.data, -quantized, rtol=1e-5)
        ge.injector.disarm()
        np.testing.assert_array_equal(model.fc.weight.data, quantized)
        ge.detach()

    def test_weight_injection_changes_inference(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        golden = golden_inference(ge, x, labels)
        with ge.injector.armed(ValueInjection("fc", "weight", 0, (1,))):
            faulty = golden_inference(ge, x, labels)
        assert not np.array_equal(golden.logits, faulty.logits)
        ge.detach()

    def test_native_weight_flip_keeps_the_neuron_kernels_bits(self, model):
        """A weight on the FP32 fabric flips through the neuron kernel: bits
        (0, 2) of 2e19 give the signalling NaN 0xFF8AC723, not the quieted
        0xFFCAC723 of the scalar reference's Python-float round trip."""
        from repro.formats import flip_values

        ge = GoldenEye(model, "fp16", quantize_weights=False).attach()
        assert ge.layers["fc"].weight_format is None
        model.fc.weight.data.reshape(-1)[3] = np.float32(2e19)
        with ge.injector.armed(ValueInjection("fc", "weight", 3, (0, 2))):
            stored = model.fc.weight.data.reshape(-1)[3:4].view(np.uint32)
            assert stored[0] == 0xFF8AC723
            neuron = flip_values(None, np.float32([2e19]), (0, 2))
            assert neuron.view(np.uint32)[0] == stored[0]
        ge.detach()

    def test_weight_index_out_of_range(self, model):
        ge = GoldenEye(model, "fp16").attach()
        with pytest.raises(InjectionError, match="out of range"):
            ge.injector.arm(ValueInjection("fc", "weight", 10 ** 9, (0,)))
        ge.detach()


class TestMetadataNeuronInjection:
    def test_int_scale_flip_rescales_layer_output(self, model, x, labels):
        ge = GoldenEye(model, "int8").attach()
        golden = golden_inference(ge, x, labels)
        # sign-bit flip of the fc scale register: logits negate
        with ge.injector.armed(MetadataInjection("fc", "neuron", 0, (0,))):
            faulty = golden_inference(ge, x, labels)
        np.testing.assert_allclose(faulty.logits, -golden.logits, rtol=1e-4, atol=1e-5)
        ge.detach()

    def test_bfp_block_exponent_flip_hits_one_block(self, model, x, labels):
        ge = GoldenEye(model, "bfp_e8m7_b16").attach()
        golden = golden_inference(ge, x, labels)
        with ge.injector.armed(MetadataInjection("conv1", "neuron", 0, (7,))):
            faulty = golden_inference(ge, x, labels)
        assert not np.array_equal(golden.logits, faulty.logits)
        ge.detach()

    def test_afp_bias_flip_affects_whole_tensor(self, model, x, labels):
        ge = GoldenEye(model, "afp_e5m2").attach()
        golden = golden_inference(ge, x, labels)
        with ge.injector.armed(MetadataInjection("fc", "neuron", 0, (7,))):
            faulty = golden_inference(ge, x, labels)
        nz = golden.logits != 0
        ratios = faulty.logits[nz] / golden.logits[nz]
        assert np.allclose(ratios, ratios.reshape(-1)[0], rtol=1e-4)
        ge.detach()


class TestSampling:
    def test_neuron_sampling_requires_warmup(self, model):
        ge = GoldenEye(model, "fp16").attach()
        with pytest.raises(InjectionError, match="forward pass"):
            ge.injector.sample_value_injection(np.random.default_rng(0), layer="fc")
        ge.detach()

    def test_neuron_sampling_within_per_sample_bounds(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        golden_inference(ge, x, labels)
        rng = np.random.default_rng(0)
        for _ in range(50):
            plan = ge.injector.sample_value_injection(rng, layer="fc")
            assert plan.flat_index < 4  # 4 logits per sample
            assert all(0 <= b < 16 for b in plan.bits)
        ge.detach()

    def test_weight_sampling_bounds(self, model):
        ge = GoldenEye(model, "int8").attach()
        rng = np.random.default_rng(0)
        plan = ge.injector.sample_value_injection(rng, layer="fc", location="weight")
        assert plan.flat_index < model.fc.weight.data.size
        assert all(0 <= b < 8 for b in plan.bits)
        ge.detach()

    def test_metadata_sampling(self, model, x, labels):
        ge = GoldenEye(model, "bfp_e5m5_b16").attach()
        golden_inference(ge, x, labels)
        rng = np.random.default_rng(0)
        plan = ge.injector.sample_metadata_injection(rng, layer="conv1")
        state = ge.layers["conv1"]
        assert plan.register < state.neuron_format.num_metadata_registers()
        assert all(0 <= b < 5 for b in plan.bits)
        ge.detach()

    def test_metadata_sampling_rejects_fp(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        golden_inference(ge, x, labels)
        with pytest.raises(InjectionError):
            ge.injector.sample_metadata_injection(np.random.default_rng(0), layer="fc")
        ge.detach()

    def test_random_layer_selection_is_seeded(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        golden_inference(ge, x, labels)
        p1 = ge.injector.sample_value_injection(np.random.default_rng(42))
        p2 = ge.injector.sample_value_injection(np.random.default_rng(42))
        assert p1 == p2
        ge.detach()

    def test_multi_bit_sampling(self, model, x, labels):
        ge = GoldenEye(model, "fp16").attach()
        golden_inference(ge, x, labels)
        plan = ge.injector.sample_value_injection(
            np.random.default_rng(0), layer="fc", num_bits=3)
        assert len(plan.bits) == 3
        assert len(set(plan.bits)) == 3  # without replacement
        ge.detach()


class TestVectorizedFlipParity:
    """The batched encode→flip→decode kernel must match the scalar path
    bit-for-bit for every format family (it is what the neuron hot path
    now runs)."""

    SPECS = [None, "fp32", "fp16", "fp8", "int8", "fxp_1_3_4", "afp_e5m2",
             "posit8"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_scalar_kernel(self, spec, rng):
        from repro.formats import flip_value, flip_values, make_format

        fmt = make_format(spec) if spec is not None else None
        raw = (rng.standard_normal(48) * 3).astype(np.float32)
        values = fmt.real_to_format_tensor(raw) if fmt is not None else raw
        for bits in [(0,), (1,), (0, 2)]:
            vec = flip_values(fmt, values, bits)
            ref = np.array([np.float32(flip_value(fmt, float(v), bits))
                            for v in values], dtype=np.float32)
            same = (vec == ref) | (np.isnan(vec) & np.isnan(ref))
            assert same.all(), (spec, bits)
            # weight faults hit quantized values; gradient faults raw ones,
            # in a buffer that may be a transposed view
            self._assert_element_parity(fmt, values.reshape(6, 8), bits)
            self._assert_element_parity(fmt, raw.reshape(8, 6).T, bits)

    def test_bfp_matches_scalar_kernel_per_block(self, rng):
        from repro.formats import BlockFloatingPoint, flip_value, flip_values

        fmt = BlockFloatingPoint(8, 7, block_size=4)
        raw = rng.standard_normal(32).astype(np.float32).reshape(8, 4).T
        values = fmt.real_to_format_tensor(raw)  # blocks in C order of raw
        blocks = np.arange(32) // 4
        for bits in [(0,), (1,), (7,), (0, 7)]:
            vec = flip_values(fmt, values, bits, blocks=blocks)
            ref = np.array([np.float32(flip_value(fmt, float(v), bits, block=int(b)))
                            for v, b in zip(values.reshape(-1), blocks)],
                           dtype=np.float32)
            np.testing.assert_array_equal(vec, ref, err_msg=str(bits))
            self._assert_element_parity(fmt, values, bits, block_size=4)
            self._assert_element_parity(fmt, raw, bits, block_size=4)

    def _assert_element_parity(self, fmt, victims, bits, block_size=None):
        """``corrupt_element`` (the weight and gradient fault) on each
        element of ``victims`` in turn changes only that element, in place,
        to what ``flip_value`` gives it: the same bits, or NaN for NaN."""
        from repro.core.injection import corrupt_element
        from repro.formats import flip_value

        flat = victims.reshape(-1)  # C order, as flat_index counts
        for i, v in enumerate(flat):
            array = victims.copy(order="K")  # keeps a transposed layout
            corrupt_element(fmt, array, i, bits)
            block = 0 if block_size is None else i // block_size
            expected = flat.copy()
            expected[i] = np.float32(flip_value(fmt, float(v), bits,
                                                block=block))
            self._assert_bitwise_equal(array.reshape(-1), expected,
                                       f"{fmt} bits={bits} element {i}")

    def test_fp32_fabric_is_pure_xor(self):
        from repro.formats import flip_values

        out = flip_values(None, np.float32([1.0, -2.5]), (0,))
        np.testing.assert_array_equal(out, np.float32([-1.0, 2.5]))

    def test_out_of_range_bit_raises(self):
        from repro.formats import BlockFloatingPoint, flip_values

        with pytest.raises(IndexError):
            flip_values(None, np.float32([1.0]), (32,))
        fmt = BlockFloatingPoint(5, 5, block_size=None)
        fmt.real_to_format_tensor(np.float32([1.0]))
        with pytest.raises(IndexError):
            flip_values(fmt, np.float32([1.0]), (6,))

    def _nan_with_payload(self, pattern):
        return np.array([pattern], dtype=np.uint32).view(np.float32)[0]

    def _special_victims(self, with_nan=True):
        """-0.0 / +0.0 / ±inf plus (optionally) mixed-payload NaNs."""
        specials = [np.float32(-0.0), np.float32(0.0),
                    np.float32(np.inf), np.float32(-np.inf),
                    np.float32(1.0), np.float32(-1.0)]
        if with_nan:
            specials += [self._nan_with_payload(0x7FC00000),   # canonical qNaN
                         self._nan_with_payload(0x7FC01234),   # payload-bearing
                         self._nan_with_payload(0xFFC09999)]   # negative NaN
        return np.array(specials, dtype=np.float32)

    @staticmethod
    def _assert_bitwise_equal(vec, ref, context):
        """Bitwise float32 equality: distinguishes -0.0 from +0.0 and keeps
        NaN payloads honest (plain ``==`` treats NaN != NaN and -0.0 == 0.0)."""
        same = np.asarray(vec, dtype=np.float32).view(np.uint32) == \
            np.asarray(ref, dtype=np.float32).view(np.uint32)
        nan_both = np.isnan(vec) & np.isnan(ref)
        assert (same | nan_both).all(), context

    @pytest.mark.parametrize("spec", [None, "fp32", "fp16", "fp8", "int8",
                                      "posit8"])
    def test_special_value_parity_pins(self, spec):
        """-0.0, ±inf, mixed-payload NaN and huge finite victims flip
        bit-identically to the scalar kernel (regressions: the BFP vector
        path used ``value < 0`` where the scalar path uses ``signbit``,
        silently dropping the -0.0 sign; NaN encodes went through
        version-dependent ``np.unique``; the fused posit flip kept its own
        search without the ±maxpos clamp, so 1e30 encoded below maxpos)."""
        from repro.formats import flip_value, flip_values, make_format

        fmt = make_format(spec) if spec is not None else None
        values = self._special_victims()
        if fmt is not None:
            # (the fabric's XOR of 2e19 can give a signalling NaN, which the
            # scalar kernel's float64 round trip quiets)
            huge = np.float32([1e30, 3.4e38, -1e30, -3.4e38, 2e19, 5000.0])
            values = np.concatenate([values, huge])
        if fmt is not None:
            fmt.real_to_format_tensor(values)  # capture metadata if any
        for bits in [(0,), (1,), (0, 2), (3,), (7,)]:
            vec = flip_values(fmt, values, bits)
            ref = np.array([np.float32(flip_value(fmt, float(v), bits))
                            for v in values], dtype=np.float32)
            np.testing.assert_array_equal(
                vec.view(np.uint32), ref.view(np.uint32),
                err_msg=f"{spec} bits={bits}")

    @pytest.mark.parametrize("spec", ["fxp_1_3_4", "afp_e5m2"])
    def test_special_value_parity_pins_nanless_formats(self, spec):
        """Formats with no NaN encoding: -0.0/±inf flip bit-identically and
        NaN victims raise the same ValueError scalar and vectorized."""
        from repro.formats import flip_value, flip_values, make_format

        fmt = make_format(spec)
        values = self._special_victims(with_nan=False)
        fmt.real_to_format_tensor(values)
        for bits in [(0,), (1,)]:
            vec = flip_values(fmt, values, bits)
            ref = np.array([np.float32(flip_value(fmt, float(v), bits))
                            for v in values], dtype=np.float32)
            np.testing.assert_array_equal(
                vec.view(np.uint32), ref.view(np.uint32),
                err_msg=f"{spec} bits={bits}")
        with pytest.raises(ValueError):
            flip_value(fmt, float("nan"), (0,))
        with pytest.raises(ValueError):
            flip_values(fmt, np.float32([np.nan, 1.0]), (0,))

    def test_bfp_negative_zero_sign_parity(self, rng):
        """Regression: the vectorized BFP path computed the sign with
        ``value < 0``, so a ``-0.0`` victim encoded with sign 0 and a
        sign-bit flip produced ``-max_mantissa * 2^exp`` instead of the
        scalar path's ``+0.0 → -0.0 → 0.0`` round trip."""
        from repro.formats import BlockFloatingPoint, flip_value, flip_values

        fmt = BlockFloatingPoint(5, 5, block_size=4)
        values = np.float32([-0.0, 0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, -0.0])
        quantized = fmt.real_to_format_tensor(values)
        blocks = np.arange(8) // 4
        for bits in [(0,), (1,), (0, 5)]:
            vec = flip_values(fmt, values, bits, blocks=blocks)
            ref = np.array(
                [np.float32(flip_value(fmt, float(v), bits, block=int(b)))
                 for v, b in zip(values, blocks)], dtype=np.float32)
            self._assert_bitwise_equal(vec, ref, f"bfp bits={bits}")
        # a sign-bit flip of the -0.0 victim must produce +0.0, not a
        # full-magnitude negative value (the pre-fix vector-path failure)
        flipped = flip_values(fmt, values, (0,), blocks=blocks)
        assert flipped[0] == 0.0 and not np.signbit(flipped[0])
        assert quantized.shape == values.shape

    def test_memoized_nan_payloads_cross_version(self):
        """Regression: ``_flip_memoized`` deduplicated over float *values*,
        where ``np.unique``'s NaN handling changed across numpy versions
        (every NaN distinct vs all NaNs collapsed) and ``-0.0`` always
        collapsed with ``0.0``.  Memoizing over uint32 bit patterns makes
        the result version-independent and bit-identical to the scalar
        loop for mixed-payload NaN columns."""
        from repro.formats import flip_value, make_format
        from repro.formats.vectorized import _flip_memoized

        fmt = make_format("fp16")
        values = self._special_victims()  # includes 3 distinct NaN payloads
        for bits in [(0,), (1,), (0, 3)]:
            out = _flip_memoized(fmt, values, bits)
            ref = np.array([np.float32(flip_value(fmt, float(v), bits))
                            for v in values], dtype=np.float32)
            self._assert_bitwise_equal(out, ref, f"memoized bits={bits}")
            # determinism: a second call reproduces the same bits exactly
            again = _flip_memoized(fmt, values, bits)
            np.testing.assert_array_equal(out.view(np.uint32),
                                          again.view(np.uint32))

    def test_memoized_negative_zero_not_collapsed_with_positive_zero(self):
        """A sign-bit flip must send +0.0 → -0.0 and -0.0 → +0.0; value-based
        memoization collapsed the two victims into one memo entry."""
        from repro.formats import make_format
        from repro.formats.vectorized import _flip_memoized

        fmt = make_format("fp16")
        out = _flip_memoized(fmt, np.float32([-0.0, 0.0]), (0,))
        assert not np.signbit(out[0])
        assert np.signbit(out[1])

    def test_batched_neuron_corruption_matches_per_sample_loop(self, model, x, labels):
        """End-to-end: the neuron column routine (one lane) reproduces the
        historical per-sample scalar loop, including per-sample BFP block
        lookup."""
        from repro.formats import flip_value
        from repro.formats.bfp import BlockFloatingPoint

        ge = GoldenEye(model, "bfp_e5m5_b16").attach()
        golden_inference(ge, x, labels)
        state = ge.layers["conv1"]
        plan = ValueInjection("conv1", "neuron", 5, (0, 3))

        # capture the quantized-but-uncorrupted output of the victim layer
        quantized = state.neuron_format.real_to_format_tensor(
            np.random.default_rng(0).standard_normal(
                state.last_output_shape).astype(np.float32))
        out = ge.injector._corrupt_neuron(state, plan, quantized)

        # per-sample scalar reference (the pre-vectorization implementation)
        fmt = state.neuron_format
        expected = quantized.copy()
        batch = expected.shape[0]
        per_sample = expected.reshape(batch, -1)
        sample_size = per_sample.shape[1]
        for s in range(batch):
            block = (s * sample_size + plan.flat_index) // fmt.metadata.block_size
            per_sample[s, plan.flat_index] = np.float32(
                flip_value(fmt, float(per_sample[s, plan.flat_index]),
                           plan.bits, block=block))
        np.testing.assert_array_equal(out, expected)
        ge.detach()


class TestFlipValuesBatched:
    """K-lane fused flips: ``flip_values_batched`` must equal K independent
    ``flip_values`` calls on the K lane slices, for fused and memoized paths."""

    LANE_BITS = [(0,), (1,), (0, 2), (3,)]

    @pytest.mark.parametrize("spec", [None, "fp32", "fp16", "fp8", "int8",
                                      "posit8"])
    def test_matches_per_lane_flip_values(self, spec, rng):
        from repro.formats import flip_values, flip_values_batched, make_format

        fmt = make_format(spec) if spec is not None else None
        values = (rng.standard_normal(4 * 6) * 3).astype(np.float32)
        if fmt is not None:
            values = fmt.real_to_format_tensor(values)
        out = flip_values_batched(fmt, values, self.LANE_BITS)
        ref = np.concatenate([
            flip_values(fmt, values[k * 6:(k + 1) * 6], bits)
            for k, bits in enumerate(self.LANE_BITS)])
        same = (out.view(np.uint32) == ref.view(np.uint32)) | \
            (np.isnan(out) & np.isnan(ref))
        assert same.all(), spec

    def test_bfp_lanes_respect_per_element_blocks(self, rng):
        from repro.formats import BlockFloatingPoint, flip_values, \
            flip_values_batched

        fmt = BlockFloatingPoint(5, 5, block_size=4)
        values = fmt.real_to_format_tensor(
            rng.standard_normal(4 * 8).astype(np.float32))
        blocks = np.arange(4 * 8) // 4
        out = flip_values_batched(fmt, values, self.LANE_BITS, blocks=blocks)
        ref = np.concatenate([
            flip_values(fmt, values[k * 8:(k + 1) * 8], bits,
                        blocks=blocks[k * 8:(k + 1) * 8])
            for k, bits in enumerate(self.LANE_BITS)])
        np.testing.assert_array_equal(out.view(np.uint32), ref.view(np.uint32))

    def test_single_lane_is_flip_values(self, rng):
        from repro.formats import flip_values, flip_values_batched, make_format

        fmt = make_format("fp16")
        values = fmt.real_to_format_tensor(
            rng.standard_normal(8).astype(np.float32))
        np.testing.assert_array_equal(
            flip_values_batched(fmt, values, [(1,)]),
            flip_values(fmt, values, (1,)))

    def test_rejects_non_divisible_lane_split(self):
        from repro.formats import flip_values_batched

        with pytest.raises(ValueError, match="equal lanes"):
            flip_values_batched(None, np.zeros(10, dtype=np.float32),
                                [(0,), (1,), (2,)])

    def test_rejects_empty_lane_list(self):
        from repro.formats import flip_values_batched

        with pytest.raises(ValueError, match="at least one lane"):
            flip_values_batched(None, np.zeros(4, dtype=np.float32), [])

    def test_validates_every_lane_before_corrupting(self):
        """An out-of-range bit in the *last* lane raises before any lane is
        flipped — same fail-fast contract as sequential flip_values calls."""
        from repro.formats import flip_values_batched

        values = np.ones(6, dtype=np.float32)
        with pytest.raises(IndexError, match="out of range"):
            flip_values_batched(None, values, [(0,), (99,)])
        np.testing.assert_array_equal(values, np.ones(6, dtype=np.float32))


class TestRecordMatchesPlan:
    """Journal-aliasing regressions: resume must not adopt a record produced
    by a different layer or by the paired metadata/value campaign."""

    def _value_record(self, plan, **extra):
        from repro.core.campaign import plan_kind, plan_site

        record = {"kind": plan_kind(plan), "site": plan_site(plan),
                  "bits": list(plan.bits), "delta_loss": 0.1,
                  "mismatch_rate": 0.0, "sdc_rate": 0.0, "dur_s": 0.01}
        record.update(extra)
        return record

    def test_same_site_other_layer_does_not_match(self):
        from repro.core.campaign import record_matches_plan

        plan = ValueInjection("fc", "neuron", 3, (1,))
        record = self._value_record(plan, layer="conv1")
        assert not record_matches_plan(record, plan)
        record["layer"] = "fc"
        assert record_matches_plan(record, plan)

    def test_value_record_does_not_match_metadata_plan(self):
        from repro.core.campaign import plan_site, record_matches_plan

        value_plan = ValueInjection("fc", "neuron", 0, (0,))
        metadata_plan = MetadataInjection("fc", "neuron", 0, (0,))
        # same site + bits: only ``kind`` separates the two campaigns
        assert plan_site(value_plan) == plan_site(metadata_plan)
        record = self._value_record(value_plan, layer="fc")
        assert record_matches_plan(record, value_plan)
        assert not record_matches_plan(record, metadata_plan)

    def test_legacy_record_without_layer_or_kind_still_matches(self):
        """Journals written before the layer/kind fields must keep resuming
        (site + bits match, missing keys are not treated as mismatches)."""
        from repro.core.campaign import record_matches_plan

        plan = ValueInjection("fc", "neuron", 3, (1, 4))
        legacy = {"site": 3, "bits": [1, 4], "delta_loss": 0.0,
                  "mismatch_rate": 0.0, "sdc_rate": 0.0, "dur_s": 0.0}
        assert record_matches_plan(legacy, plan)
        assert not record_matches_plan({**legacy, "bits": [1]}, plan)
        assert not record_matches_plan({**legacy, "site": 4}, plan)
