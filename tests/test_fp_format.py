"""Validation of the generic FloatingPoint format against IEEE-754 semantics.

Mirrors the paper's §III-C validation: conversions checked against each
format's specification, including denormals, and emulated FP32/FP16 checked
against the native (numpy) implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import FloatingPoint


class TestSpecConstants:
    """Table I's named-format constants."""

    @pytest.mark.parametrize(
        "e,m,max_value,min_normal,min_denormal",
        [
            (8, 23, 3.4028234663852886e38, 2 ** -126, 2 ** -149),  # FP32
            (5, 10, 65504.0, 2 ** -14, 2 ** -24),                  # FP16
            (8, 7, 3.3895313892515355e38, 2 ** -126, 2 ** -133),   # bfloat16
            (4, 3, 240.0, 2 ** -6, 2 ** -9),                       # FP8 e4m3
            (8, 10, None, 2 ** -126, None),                        # TensorFloat
            (6, 9, None, 2 ** -30, None),                          # DLFloat
        ],
    )
    def test_named_format_ranges(self, e, m, max_value, min_normal, min_denormal):
        fmt = FloatingPoint(e, m)
        if max_value is not None:
            assert fmt.max_value == max_value
        assert fmt.min_normal == min_normal
        if min_denormal is not None:
            assert fmt.min_denormal == min_denormal

    def test_bit_width_and_radix(self):
        fmt = FloatingPoint(5, 10)
        assert fmt.bit_width == 16
        assert fmt.radix == 10

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FloatingPoint(1, 10)
        with pytest.raises(ValueError):
            FloatingPoint(5, 0)

    def test_name_mentions_fields(self):
        assert FloatingPoint(5, 10).name == "fp(e5m10)"
        assert "no-dn" in FloatingPoint(5, 10, denormals=False).name


class TestTensorQuantization:
    def test_fp32_spec_is_identity_on_float32(self, rng):
        fmt = FloatingPoint(8, 23)
        x = rng.standard_normal(1000).astype(np.float32) * 1e3
        np.testing.assert_array_equal(fmt.real_to_format_tensor(x), x)

    def test_fp16_matches_numpy_half(self, rng):
        """Emulated FP16 vs the native numpy float16 implementation (§III-C)."""
        fmt = FloatingPoint(5, 10)
        x = (rng.standard_normal(5000) * np.exp(rng.uniform(-12, 12, 5000))).astype(np.float32)
        emulated = fmt.real_to_format_tensor(x)
        with np.errstate(over="ignore"):
            native = x.astype(np.float16).astype(np.float32)
        # exclude values that overflow fp16 (numpy gives inf, we saturate)
        finite = np.isfinite(native)
        np.testing.assert_array_equal(emulated[finite], native[finite])

    def test_overflow_saturates(self):
        fmt = FloatingPoint(5, 10)
        out = fmt.real_to_format_tensor(np.float32([1e6, -1e6, np.inf, -np.inf]))
        np.testing.assert_array_equal(out, [65504.0, -65504.0, 65504.0, -65504.0])

    def test_denormals_preserved_when_enabled(self):
        fmt = FloatingPoint(5, 10, denormals=True)
        tiny = np.float32([2 ** -24, 2 ** -20])
        np.testing.assert_array_equal(fmt.real_to_format_tensor(tiny), tiny)

    def test_denormals_flush_when_disabled(self):
        fmt = FloatingPoint(5, 10, denormals=False)
        out = fmt.real_to_format_tensor(np.float32([2 ** -24, 2 ** -15, 2 ** -14]))
        # below min_normal/2 -> 0; above -> min_normal; min_normal stays
        np.testing.assert_array_equal(out, [0.0, 2 ** -14, 2 ** -14])

    def test_below_half_min_denormal_rounds_to_zero(self):
        fmt = FloatingPoint(5, 10)
        out = fmt.real_to_format_tensor(np.float32([2 ** -26]))
        np.testing.assert_array_equal(out, [0.0])

    def test_zero_preserved(self):
        fmt = FloatingPoint(4, 3)
        np.testing.assert_array_equal(fmt.real_to_format_tensor(np.float32([0.0, -0.0])),
                                      [0.0, 0.0])

    def test_nan_propagates(self):
        fmt = FloatingPoint(5, 10)
        assert np.isnan(fmt.real_to_format_tensor(np.float32([np.nan])))[0]

    def test_round_to_nearest_even(self):
        fmt = FloatingPoint(4, 2)  # granularity at exponent 0 is 0.25
        # 1.125 is exactly between 1.0 and 1.25: half-to-even picks 1.0
        out = fmt.real_to_format_tensor(np.float32([1.125, 1.375]))
        np.testing.assert_array_equal(out, [1.0, 1.5])

    def test_idempotence(self, rng):
        fmt = FloatingPoint(4, 3)
        x = rng.standard_normal(500).astype(np.float32) * 10
        once = fmt.real_to_format_tensor(x)
        np.testing.assert_array_equal(fmt.real_to_format_tensor(once), once)

    def test_format_to_real_tensor_is_cast(self):
        fmt = FloatingPoint(5, 10)
        out = fmt.format_to_real_tensor(np.float64([1.5]))
        assert out.dtype == np.float32

    def test_shape_preserved(self, rng):
        fmt = FloatingPoint(4, 3)
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        assert fmt.real_to_format_tensor(x).shape == (2, 3, 4)


class TestScalarBitstrings:
    def test_layout_of_one(self):
        fmt = FloatingPoint(4, 3)
        # 1.0 = sign 0, exponent field = bias = 7, mantissa 0
        assert fmt.real_to_format(1.0) == [0, 0, 1, 1, 1, 0, 0, 0]

    def test_negative_sign_bit(self):
        fmt = FloatingPoint(4, 3)
        assert fmt.real_to_format(-1.0)[0] == 1

    def test_zero_encoding(self):
        fmt = FloatingPoint(4, 3)
        assert fmt.real_to_format(0.0) == [0] * 8

    def test_inf_decodes(self):
        fmt = FloatingPoint(4, 3)
        inf_bits = [0, 1, 1, 1, 1, 0, 0, 0]
        assert fmt.format_to_real(inf_bits) == np.inf
        neg_inf = [1, 1, 1, 1, 1, 0, 0, 0]
        assert fmt.format_to_real(neg_inf) == -np.inf

    def test_nan_decodes(self):
        fmt = FloatingPoint(4, 3)
        assert np.isnan(fmt.format_to_real([0, 1, 1, 1, 1, 0, 0, 1]))

    def test_nan_encodes(self):
        fmt = FloatingPoint(4, 3)
        bits = fmt.real_to_format(float("nan"))
        assert bits[1:5] == [1, 1, 1, 1] and any(bits[5:])

    def test_inf_input_saturates_to_max(self):
        fmt = FloatingPoint(4, 3)
        assert fmt.format_to_real(fmt.real_to_format(np.inf)) == 240.0

    def test_denormal_roundtrip(self):
        fmt = FloatingPoint(4, 3, denormals=True)
        tiny = fmt.min_denormal * 3
        assert fmt.format_to_real(fmt.real_to_format(tiny)) == tiny

    def test_denormal_encoding_disabled(self):
        fmt = FloatingPoint(4, 3, denormals=False)
        bits = fmt.real_to_format(fmt.min_denormal)
        assert fmt.format_to_real(bits) == 0.0

    def test_wrong_width_rejected(self):
        fmt = FloatingPoint(4, 3)
        with pytest.raises(ValueError):
            fmt.format_to_real([0, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-300, max_value=300, allow_nan=False))
    def test_scalar_agrees_with_tensor_path(self, value):
        fmt = FloatingPoint(4, 3)
        scalar = fmt.format_to_real(fmt.real_to_format(value))
        tensor = float(fmt.real_to_format_tensor(np.float32([value]))[0])
        assert scalar == pytest.approx(tensor, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-6e4, max_value=6e4, allow_nan=False))
    def test_fp16_scalar_agrees_with_tensor_path(self, value):
        fmt = FloatingPoint(5, 10)
        scalar = fmt.format_to_real(fmt.real_to_format(value))
        tensor = float(fmt.real_to_format_tensor(np.float32([value]))[0])
        assert scalar == pytest.approx(tensor, rel=1e-12, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=8, max_size=8))
    def test_decode_encode_decode_fixpoint(self, bits):
        # decoding any pattern and re-encoding must reproduce the same value
        fmt = FloatingPoint(4, 3)
        value = fmt.format_to_real(bits)
        if np.isnan(value):
            return
        if np.isinf(value):
            return  # inf saturates on encode by design
        assert fmt.format_to_real(fmt.real_to_format(value)) == value


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    def test_quantization_error_bounded(self, value):
        fmt = FloatingPoint(5, 10)
        q = float(fmt.real_to_format_tensor(np.float32([value]))[0])
        if abs(value) <= fmt.max_value:
            # relative error bounded by half ULP for normals
            if abs(value) >= fmt.min_normal:
                assert abs(q - np.float32(value)) <= abs(np.float32(value)) * 2 ** -10
            else:
                assert abs(q - np.float32(value)) <= fmt.min_denormal / 2 + 1e-30

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=2, max_size=20))
    def test_monotonicity(self, values):
        fmt = FloatingPoint(3, 2)
        x = np.sort(np.float32(values))
        q = fmt.real_to_format_tensor(x)
        assert (np.diff(q) >= 0).all()

    def test_spawn_resets_nothing_for_stateless_fp(self):
        fmt = FloatingPoint(4, 3, denormals=False)
        clone = fmt.spawn()
        assert clone == fmt and clone is not fmt

    def test_equality_and_hash(self):
        assert FloatingPoint(4, 3) == FloatingPoint(4, 3)
        assert FloatingPoint(4, 3) != FloatingPoint(4, 3, denormals=False)
        assert hash(FloatingPoint(4, 3)) == hash(FloatingPoint(4, 3))


class TestWideExponents:
    """fp(e12m3), the 16-bit radix-3 node of ``binary_tree_search(family="fp")``:
    its exponent window reaches past float64, so the decoder saturates."""

    @staticmethod
    def _wide():
        from repro.core.dse import FAMILY_BUILDERS

        fmt = FAMILY_BUILDERS["fp"](16, 3)
        assert (fmt.exp_bits, fmt.mantissa_bits) == (12, 3)
        return fmt

    def test_decoded_exponent_past_float64_reads_inf(self):
        from repro.formats import flip_bit

        fmt = self._wide()
        assert fmt.max_value == np.inf
        for value in (2.0, -2.0):
            bits = fmt.real_to_format(value)
            assert fmt.format_to_real(bits) == value
            # exponent field 2048 -> 3072: 2^1025 lies past float64
            assert fmt.format_to_real(flip_bit(bits, 2)) == \
                np.copysign(np.inf, value)
        assert fmt.format_to_real(fmt.real_to_format(-np.inf)) == -np.inf

    def test_value_campaign_completes(self):
        from repro.core.campaign import run_campaign
        from repro.core.goldeneye import GoldenEye
        from repro.models import simple_mlp

        rng = np.random.default_rng(0)
        images = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, size=4)
        model = simple_mlp()
        model.eval()
        with GoldenEye(model, self._wide()) as ge:
            result = run_campaign(ge, images, labels, injections_per_layer=40,
                                  seed=0)
        assert [r.injections for r in result.per_layer.values()] == [40] * 3
