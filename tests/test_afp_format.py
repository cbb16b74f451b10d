"""Validation of AdaptivFloat and its shared exponent-bias metadata."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import AdaptivFloat, FloatingPoint, MetadataError, flip_bit

from tests import kernel_oracles as K


class TestSpec:
    def test_bit_width(self):
        assert AdaptivFloat(4, 3).bit_width == 8
        assert AdaptivFloat(5, 2).bit_width == 8

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AdaptivFloat(1, 3)
        with pytest.raises(ValueError):
            AdaptivFloat(4, 0)

    def test_movable_range_matches_fp8_width(self):
        # Table I: AFP8 e4m3 spans the same 83.7 dB window as FP8 e4m3
        # without denormals, just positioned adaptively.
        afp = AdaptivFloat(4, 3, denormals=False)
        bias = 8
        ratio = afp.max_value_for_bias(bias) / afp.min_normal_for_bias(bias)
        fp = FloatingPoint(4, 3, denormals=False)
        # AFP has one extra exponent value (no inf/NaN reservation)
        assert ratio == pytest.approx((fp.max_value / fp.min_normal) * 2, rel=1e-6)


    def test_wide_exponents_saturate_instead_of_overflowing(self):
        """afp(e12m3), a 16-bit DSE node: its exponent window reaches past
        float64, so its bound saturates to inf and it quantizes like
        afp(e8m3), whose bias clips to the same register value."""
        from repro.core.dse import FAMILY_BUILDERS

        wide = FAMILY_BUILDERS["afp"](16, 3)
        assert (wide.exp_bits, wide.mantissa_bits) == (12, 3)
        x = np.float32([1.0, 2.0, 1e-3, -3.3])
        narrow = AdaptivFloat(8, 3)
        np.testing.assert_array_equal(wide.real_to_format_tensor(x),
                                      narrow.real_to_format_tensor(x))
        assert wide.exp_bias == narrow.exp_bias == 127
        assert wide.max_value_for_bias(wide.exp_bias) == np.inf
        bits = wide.real_to_format(2.0)
        assert wide.format_to_real(bits) == 2.0
        assert wide.format_to_real(flip_bit(bits, 1)) == np.inf


class TestBiasAdaptation:
    def test_bias_aligns_top_exponent_to_peak(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([0.02]))
        # floor(log2 0.02) = -6; bias = 15 - (-6) = 21
        assert fmt.exp_bias == 21

    def test_peak_is_representable_nearly_exactly(self):
        fmt = AdaptivFloat(4, 3)
        for peak in [0.003, 0.5, 17.0, 9000.0]:
            q = fmt.real_to_format_tensor(np.float32([peak]))
            assert float(q[0]) == pytest.approx(peak, rel=2 ** -3)

    def test_different_tensors_get_different_biases(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([1000.0]))
        high = fmt.exp_bias
        fmt.real_to_format_tensor(np.float32([0.001]))
        low = fmt.exp_bias
        assert low > high  # smaller magnitudes need a larger bias

    def test_adaptive_beats_fixed_fp_for_small_tensors(self, rng):
        # the AdaptivFloat motivation: a tensor of tiny values is crushed by
        # fixed-bias FP8 but preserved by AFP8
        x = (rng.standard_normal(100) * 1e-4).astype(np.float32)
        afp_err = np.abs(AdaptivFloat(4, 3, denormals=False).real_to_format_tensor(x) - x).mean()
        fp_err = np.abs(FloatingPoint(4, 3, denormals=False).real_to_format_tensor(x) - x).mean()
        assert afp_err < fp_err

    def test_all_zero_tensor(self):
        fmt = AdaptivFloat(4, 3)
        out = fmt.real_to_format_tensor(np.zeros(3, dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros(3))
        assert fmt.num_metadata_registers() == 1

    def test_nonfinite_inputs(self):
        fmt = AdaptivFloat(4, 3)
        q = fmt.real_to_format_tensor(np.float32([1.0, np.inf, np.nan, -np.inf]))
        assert q[1] == fmt.max_value_for_bias(fmt.exp_bias)
        assert q[2] == 0.0
        assert q[3] == -fmt.max_value_for_bias(fmt.exp_bias)

    def test_idempotence(self, rng):
        fmt = AdaptivFloat(5, 2)
        x = (rng.standard_normal(200) * 0.03).astype(np.float32)
        once = fmt.real_to_format_tensor(x)
        np.testing.assert_allclose(fmt.real_to_format_tensor(once), once, atol=1e-9)

    def test_denormals_toggle(self):
        with_dn = AdaptivFloat(4, 3, denormals=True)
        without = AdaptivFloat(4, 3, denormals=False)
        x = np.float32([1.0, 2e-5])
        q1 = with_dn.real_to_format_tensor(x)
        q2 = without.real_to_format_tensor(x)
        assert q1[1] != 0.0
        assert q2[1] == 0.0


class TestScalarBitstrings:
    def test_requires_metadata(self):
        with pytest.raises(MetadataError):
            AdaptivFloat(4, 3).real_to_format(1.0)

    def test_layout(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([1.0]))  # bias = 15
        bits = fmt.real_to_format(1.0)
        # exponent field = 0 + bias = 15 -> all ones (AFP reserves no inf)
        assert bits == [0, 1, 1, 1, 1, 0, 0, 0]
        assert fmt.format_to_real(bits) == 1.0

    def test_nan_rejected(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([1.0]))
        with pytest.raises(ValueError, match="NaN"):
            fmt.real_to_format(float("nan"))

    def test_saturation_on_encode(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([1.0]))
        v = fmt.format_to_real(fmt.real_to_format(1e9))
        assert v == fmt.max_value_for_bias(fmt.exp_bias)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_scalar_agrees_with_tensor(self, value):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([2.0]))  # bias fixed by peak 2.0
        bias = fmt.exp_bias
        scalar = fmt.format_to_real(fmt.real_to_format(value))
        expected = float(
            K.afp_quantize_with_bias(fmt, np.float64([value]), bias)[0])
        assert scalar == pytest.approx(expected, abs=1e-12)


class TestMetadata:
    def test_register_width_is_8bit_signed(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([1.0]))
        assert fmt.metadata_register_width() == 8
        assert len(fmt.get_metadata_bits()) == 8

    def test_register_bounds(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([1.0]))
        with pytest.raises(IndexError):
            fmt.get_metadata_bits(register=1)

    def test_bias_lsb_flip_scales_by_two(self):
        fmt = AdaptivFloat(4, 3)
        x = np.float32([1.0, -0.5, 0.25])
        q = fmt.real_to_format_tensor(x)
        golden = fmt.metadata
        fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(), 7))
        corrupted = fmt.apply_metadata_corruption(q, golden)
        ratio = corrupted[0] / q[0]
        assert ratio in (0.5, 2.0)
        np.testing.assert_allclose(corrupted, q * ratio, rtol=1e-6)

    def test_bias_sign_flip_is_catastrophic(self):
        fmt = AdaptivFloat(4, 3)
        fmt.real_to_format_tensor(np.float32([0.01, 0.005]))
        q = fmt.real_to_format_tensor(np.float32([0.01, 0.005]))
        golden = fmt.metadata
        fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(), 0))
        corrupted = fmt.apply_metadata_corruption(q, golden)
        assert np.isinf(corrupted).any() or np.abs(corrupted).max() > 1e15

    def test_whole_tensor_moves_together(self, rng):
        # §II-B: the bias is read by every value -> tensor-wide multi-bit flip
        fmt = AdaptivFloat(5, 2)
        x = (rng.standard_normal(64) * 0.1).astype(np.float32)
        q = fmt.real_to_format_tensor(x)
        golden = fmt.metadata
        fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(), 6))
        corrupted = fmt.apply_metadata_corruption(q, golden)
        nz = q != 0
        ratios = corrupted[nz] / q[nz]
        assert np.allclose(ratios, ratios[0], rtol=1e-6)

    def test_spawn_clears_metadata(self):
        fmt = AdaptivFloat(4, 3, denormals=False)
        fmt.real_to_format_tensor(np.float32([1.0]))
        clone = fmt.spawn()
        assert clone.metadata is None
        assert clone.config() == fmt.config()
