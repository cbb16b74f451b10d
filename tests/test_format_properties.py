"""Cross-format property-based tests (hypothesis) on the NumberFormat API.

These invariants must hold for *every* number system plugged into GoldenEye —
they are the contract the platform relies on when it round-trips activations
through ``real_to_format_tensor`` and when the injector round-trips single
values through the scalar bitstring methods.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import BlockFloatingPoint, FixedPoint, make_format

ALL_SPECS = [
    "fp_e4m3",
    "fp_e5m10",
    "fp_e4m3_nodn",
    "fxp_1_4_4",
    "fxp_1_15_16",
    "int8",
    "int4",
    "bfp_e5m5_b8",
    "bfp_e8m7_btensor",
    "afp_e4m3",
    "afp_e5m2_nodn",
]

values_strategy = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=40
)


@pytest.mark.parametrize("spec", ALL_SPECS)
class TestUniversalInvariants:
    @settings(max_examples=25, deadline=None)
    @given(values=values_strategy)
    def test_idempotence(self, spec, values):
        """Quantizing an already-quantized tensor is a no-op."""
        fmt = make_format(spec)
        x = np.float32(values)
        once = fmt.real_to_format_tensor(x)
        twice = fmt.real_to_format_tensor(once)
        np.testing.assert_allclose(twice, once, rtol=1e-6, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(values=values_strategy)
    def test_sign_symmetry(self, spec, values):
        """quantize(-x) == -quantize(x) within the symmetric part of the range.

        FxP's two's complement is asymmetric at its most-negative code, so
        inputs are kept strictly inside the positive saturation bound.
        """
        fmt = make_format(spec)
        x = np.float32(values)
        if isinstance(fmt, FixedPoint):
            x = np.clip(x, -fmt.max_value, fmt.max_value)
        pos = fmt.real_to_format_tensor(x)
        neg = make_format(spec).real_to_format_tensor(-x)
        np.testing.assert_allclose(neg, -pos, rtol=1e-6, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(values=values_strategy)
    def test_zero_maps_to_zero(self, spec, values):
        fmt = make_format(spec)
        x = np.float32(values + [0.0])
        q = fmt.real_to_format_tensor(x)
        assert q[-1] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(values=values_strategy)
    def test_shape_and_dtype_preserved(self, spec, values):
        fmt = make_format(spec)
        x = np.float32(values).reshape(1, -1)
        q = fmt.real_to_format_tensor(x)
        assert q.shape == x.shape
        assert q.dtype == np.float32

    @settings(max_examples=15, deadline=None)
    @given(values=values_strategy)
    def test_quantization_never_increases_peak(self, spec, values):
        """Saturation/rounding keeps |q| <= the tensor's representable peak."""
        fmt = make_format(spec)
        x = np.float32(values)
        q = fmt.real_to_format_tensor(x)
        assert np.isfinite(q).all()
        # the quantized peak never exceeds the input peak by more than one
        # rounding step (BFP/AFP snap to the peak's exponent grid).  At the
        # very bottom of a format's subnormal range one rounding step is the
        # value itself: round-to-nearest maps x >= step/2 up to step <= 2x,
        # so 2x is the tight universal bound (e.g. fp_e4m3 takes 0.001 to
        # its smallest subnormal 2^-9 = 0.001953, a 1.95x increase).
        assert np.abs(q).max() <= np.abs(x).max() * 2.0 + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(values=values_strategy, data=st.data())
    def test_scalar_roundtrip_fixpoint(self, spec, values, data):
        """format_to_real(real_to_format(q)) == q for already-quantized q."""
        fmt = make_format(spec)
        x = np.float32(values)
        q = fmt.real_to_format_tensor(x)
        index = data.draw(st.integers(0, len(values) - 1))
        value = float(q[index])
        if isinstance(fmt, BlockFloatingPoint):
            block = index // fmt.metadata.block_size
            bits = fmt.real_to_format(value, block=block)
            back = fmt.format_to_real(bits, block=block)
        else:
            bits = fmt.real_to_format(value)
            back = fmt.format_to_real(bits)
        assert back == pytest.approx(value, rel=1e-6, abs=1e-9)

    def test_bitstring_width_matches_format(self, spec):
        fmt = make_format(spec)
        fmt.real_to_format_tensor(np.float32([1.0, -2.0, 0.5]))
        if isinstance(fmt, BlockFloatingPoint):
            bits = fmt.real_to_format(1.0, block=0)
        else:
            bits = fmt.real_to_format(1.0)
        assert len(bits) == fmt.bit_width

    def test_spawn_equivalence(self, spec):
        """A spawned instance quantizes identically to a fresh one."""
        fmt = make_format(spec)
        clone = fmt.spawn()
        x = np.linspace(-3, 3, 33, dtype=np.float32)
        np.testing.assert_array_equal(fmt.real_to_format_tensor(x),
                                      clone.real_to_format_tensor(x))


@pytest.mark.parametrize("spec", ["int8", "bfp_e5m5_b8", "afp_e4m3"])
class TestMetadataInvariants:
    @settings(max_examples=20, deadline=None)
    @given(values=values_strategy)
    def test_metadata_roundtrip_via_bits(self, spec, values):
        """get_metadata_bits / set_metadata_bits are inverses."""
        fmt = make_format(spec)
        fmt.real_to_format_tensor(np.float32(values))
        for register in range(min(fmt.num_metadata_registers(), 3)):
            bits = fmt.get_metadata_bits(register)
            fmt.set_metadata_bits(bits, register)
            assert fmt.get_metadata_bits(register) == bits

    @settings(max_examples=20, deadline=None)
    @given(values=values_strategy)
    def test_identity_corruption_is_noop(self, spec, values):
        """Re-applying unchanged metadata must not move any value."""
        fmt = make_format(spec)
        x = np.float32(values)
        q = fmt.real_to_format_tensor(x)
        golden = fmt.metadata.copy() if hasattr(fmt.metadata, "copy") else fmt.metadata
        out = fmt.apply_metadata_corruption(q, golden)
        np.testing.assert_allclose(out, q, rtol=1e-6, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(values=values_strategy, data=st.data())
    def test_double_flip_restores_values(self, spec, values, data):
        """Flipping the same metadata bit twice restores the tensor."""
        from repro.formats import flip_bit
        fmt = make_format(spec)
        x = np.float32(values)
        q = fmt.real_to_format_tensor(x)
        golden = fmt.metadata.copy() if hasattr(fmt.metadata, "copy") else fmt.metadata
        register = data.draw(st.integers(0, fmt.num_metadata_registers() - 1))
        bit = data.draw(st.integers(0, fmt.metadata_register_width() - 1))
        bits = fmt.get_metadata_bits(register)
        fmt.set_metadata_bits(flip_bit(flip_bit(bits, bit), bit), register)
        out = fmt.apply_metadata_corruption(q, golden)
        np.testing.assert_allclose(out, q, rtol=1e-6, atol=1e-9)
