"""Validation of block floating point and its shared-exponent metadata."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.formats import BlockFloatingPoint, MetadataError, flip_bit


class TestSpec:
    def test_element_width_is_sign_plus_mantissa(self):
        fmt = BlockFloatingPoint(5, 5, block_size=16)
        assert fmt.bit_width == 6  # the exponent lives in metadata

    def test_variable_exponent_width(self):
        # the paper's fix over QPyTorch: exponent bits are a free parameter
        for e in (2, 4, 5, 8, 10):
            assert BlockFloatingPoint(e, 3).exp_bits == e

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BlockFloatingPoint(1, 5)
        with pytest.raises(ValueError):
            BlockFloatingPoint(5, 0)
        with pytest.raises(ValueError):
            BlockFloatingPoint(5, 5, block_size=0)

    def test_name_shows_block(self):
        assert "b=16" in BlockFloatingPoint(5, 5, block_size=16).name
        assert "b=tensor" in BlockFloatingPoint(5, 5).name


class TestQuantization:
    def test_shared_exponent_follows_block_peak(self):
        fmt = BlockFloatingPoint(8, 7, block_size=4)
        x = np.float32([1.0, 0.5, 0.25, 0.1, 100.0, 50.0, 25.0, 10.0])
        fmt.real_to_format_tensor(x)
        exps = fmt.metadata.exp_fields - fmt.exp_bias
        assert exps[0] == 0  # floor(log2 1.0)
        assert exps[1] == 6  # floor(log2 100)

    def test_peak_value_is_nearly_exact(self):
        fmt = BlockFloatingPoint(8, 7, block_size=4)
        x = np.float32([1.0, 0.5, 0.0, -0.25])
        q = fmt.real_to_format_tensor(x)
        assert q[0] == pytest.approx(1.0, rel=2 ** -7)

    def test_small_values_round_to_zero_in_wide_blocks(self):
        # the Fig. 6 observation: large shared blocks crush small magnitudes
        fmt = BlockFloatingPoint(8, 4, block_size=None)
        x = np.float32([1000.0, 0.5, 20.0])
        q = fmt.real_to_format_tensor(x)
        assert q[1] == 0.0  # 0.5 is below half the mantissa step at exp 9
        assert q[0] == pytest.approx(1000.0, rel=0.1)

    def test_whole_tensor_sharing_default(self, rng):
        fmt = BlockFloatingPoint(8, 7)
        fmt.real_to_format_tensor(rng.standard_normal(100).astype(np.float32))
        assert fmt.num_metadata_registers() == 1

    def test_partial_last_block(self):
        fmt = BlockFloatingPoint(8, 7, block_size=4)
        x = np.float32([1.0] * 6)  # 1.5 blocks
        q = fmt.real_to_format_tensor(x)
        assert q.shape == (6,)
        assert fmt.num_metadata_registers() == 2

    def test_shape_preserved(self, rng):
        fmt = BlockFloatingPoint(5, 5, block_size=8)
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        assert fmt.real_to_format_tensor(x).shape == (3, 4, 5)

    def test_all_zero_block(self):
        fmt = BlockFloatingPoint(5, 5, block_size=2)
        q = fmt.real_to_format_tensor(np.float32([0.0, 0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(q[:2], [0.0, 0.0])

    def test_exponent_register_clamps(self):
        fmt = BlockFloatingPoint(2, 5, block_size=None)  # exponent range [-1, 2]
        fmt.real_to_format_tensor(np.float32([1e10]))
        assert fmt.metadata.exp_fields[0] == fmt.max_exp_field

    def test_nonfinite_inputs(self):
        fmt = BlockFloatingPoint(5, 5, block_size=4)
        q = fmt.real_to_format_tensor(np.float32([1.0, np.nan, np.inf, -np.inf]))
        assert q[1] == 0.0  # NaN has no sign-magnitude encoding
        assert q[2] > 0 and q[3] < 0  # inf saturates to block max
        exps = fmt.metadata.exp_fields - fmt.exp_bias
        assert exps[0] == 0  # exponent from the finite peak only

    def test_idempotence(self, rng):
        fmt = BlockFloatingPoint(6, 5, block_size=8)
        x = rng.standard_normal(64).astype(np.float32)
        once = fmt.real_to_format_tensor(x)
        np.testing.assert_allclose(fmt.real_to_format_tensor(once), once, atol=1e-7)


class TestScalarBitstrings:
    def test_requires_metadata(self):
        fmt = BlockFloatingPoint(5, 5, block_size=4)
        with pytest.raises(MetadataError):
            fmt.real_to_format(1.0)

    def test_layout_sign_then_mantissa(self):
        fmt = BlockFloatingPoint(5, 3, block_size=None)
        fmt.real_to_format_tensor(np.float32([1.0, -0.5]))
        bits = fmt.real_to_format(-0.5, block=0)
        assert len(bits) == 4
        assert bits[0] == 1  # sign

    def test_block_relative_decoding(self):
        fmt = BlockFloatingPoint(8, 7, block_size=2)
        fmt.real_to_format_tensor(np.float32([1.0, 0.5, 64.0, 32.0]))
        bits = [0, 1, 0, 0, 0, 0, 0, 0]  # mantissa 64
        v0 = fmt.format_to_real(bits, block=0)
        v1 = fmt.format_to_real(bits, block=1)
        assert v1 == v0 * 64  # block 1's exponent is 6 higher

    def test_roundtrip_within_block(self):
        fmt = BlockFloatingPoint(8, 7, block_size=4)
        x = np.float32([1.0, 0.75, -0.5, 0.25])
        q = fmt.real_to_format_tensor(x)
        for i, v in enumerate(q):
            block = i // 4
            rt = fmt.format_to_real(fmt.real_to_format(float(v), block=block), block=block)
            assert rt == pytest.approx(float(v), abs=1e-7)

    def test_flat_index_block_lookup(self):
        fmt = BlockFloatingPoint(5, 5, block_size=3)
        fmt.real_to_format_tensor(np.float32(range(7)))
        assert fmt._block_of(0) == 0
        assert fmt._block_of(3) == 1
        assert fmt._block_of(6) == 2
        with pytest.raises(IndexError):
            fmt._block_of(7)
        np.testing.assert_array_equal(fmt._block_of(np.arange(7)),
                                      [0, 0, 0, 1, 1, 1, 2])
        for outside in ([0, 7], [-1, 3]):
            with pytest.raises(IndexError, match="outside tensor"):
                fmt._block_of(np.array(outside))

    def test_sign_flip_negates_value(self):
        # §IV-C: BFP's short element word makes the sign bit weighty
        fmt = BlockFloatingPoint(5, 5, block_size=None)
        fmt.real_to_format_tensor(np.float32([1.0, -0.5]))
        bits = fmt.real_to_format(1.0, block=0)
        assert fmt.format_to_real(flip_bit(bits, 0), block=0) == -1.0


class TestMetadata:
    def test_register_per_block(self):
        fmt = BlockFloatingPoint(5, 5, block_size=4)
        fmt.real_to_format_tensor(np.zeros(12, dtype=np.float32))
        assert fmt.num_metadata_registers() == 3
        assert fmt.metadata_register_width() == 5

    def test_get_set_register(self):
        fmt = BlockFloatingPoint(5, 5, block_size=4)
        fmt.real_to_format_tensor(np.float32([1.0] * 8))
        bits = fmt.get_metadata_bits(1)
        fmt.set_metadata_bits(flip_bit(bits, 4), 1)
        assert fmt.get_metadata_bits(1) == flip_bit(bits, 4)

    def test_register_bounds(self):
        fmt = BlockFloatingPoint(5, 5, block_size=4)
        fmt.real_to_format_tensor(np.float32([1.0] * 4))
        with pytest.raises(IndexError):
            fmt.get_metadata_bits(1)

    def test_exponent_flip_rescales_only_its_block(self):
        fmt = BlockFloatingPoint(8, 7, block_size=4)
        x = np.float32([1.0, 0.5, -0.25, 0.125, 2.0, 1.0, 0.5, 0.25])
        q = fmt.real_to_format_tensor(x)
        golden = fmt.metadata.copy()
        # flip LSB of block 0's exponent register: 2^+1 or 2^-1
        fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(0), 7), 0)
        corrupted = fmt.apply_metadata_corruption(q, golden)
        ratio = corrupted[0] / q[0]
        assert ratio in (0.5, 2.0)
        np.testing.assert_allclose(corrupted[:4], q[:4] * ratio, rtol=1e-6)
        np.testing.assert_array_equal(corrupted[4:], q[4:])  # other block untouched

    def test_exponent_msb_flip_is_multibit_equivalent(self):
        # §II-B: one shared-exponent bit flip == multi-bit flip across the block
        fmt = BlockFloatingPoint(8, 7, block_size=None)
        q = fmt.real_to_format_tensor(np.float32([1.0, 0.5, -0.25]))
        golden = fmt.metadata.copy()
        fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(0), 0), 0)
        corrupted = fmt.apply_metadata_corruption(q, golden)
        assert (np.abs(corrupted) > 1e30).sum() >= 2 or np.isinf(corrupted).sum() >= 2

    def test_corruption_preserves_shape(self, rng):
        fmt = BlockFloatingPoint(5, 5, block_size=8)
        x = rng.standard_normal((3, 7)).astype(np.float32)  # partial last block
        q = fmt.real_to_format_tensor(x)
        golden = fmt.metadata.copy()
        fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(0), 4), 0)
        assert fmt.apply_metadata_corruption(q, golden).shape == (3, 7)


class TestRoundingCarry:
    """Round-to-nearest carrying past ``max_mantissa`` must bump the shared
    exponent, not clip (the ``[63.875]`` falsifying example, pinned)."""

    def test_regression_63_875_bumps_exponent(self):
        # 63.875 has floor(log2) == 5; round(63.875 / 2^-1) == 128 > 127, so
        # the shared exponent must carry to 6 and the value quantize to 64.0.
        fmt = BlockFloatingPoint(8, 7, block_size=8)
        q = fmt.real_to_format_tensor(np.float32([63.875]))
        shared = int(fmt.metadata.exp_fields[0]) - fmt.exp_bias
        assert shared == 6
        assert q[0] == 64.0
        gran = 2.0 ** (shared - fmt.mantissa_bits + 1)
        assert abs(63.875 - float(q[0])) <= gran / 2

    def test_carry_rescales_whole_block(self):
        # the bump coarsens every element of the carrying block, not just the peak
        fmt = BlockFloatingPoint(8, 3, block_size=4)
        x = np.float32([15.5, 1.0, -0.5, 0.25, 1.0, 1.0, 1.0, 1.0])
        q = fmt.real_to_format_tensor(x)
        exps = fmt.metadata.exp_fields - fmt.exp_bias
        assert exps[0] == 4  # 15.5 / 2^(3-3+1=1)... round(15.5/2)=8 > 7 -> carry
        assert exps[1] == 0  # second block unaffected
        gran0 = 2.0 ** (int(exps[0]) - fmt.mantissa_bits + 1)
        for orig, quant in zip(x[:4], q[:4]):
            assert abs(float(orig) - float(quant)) <= gran0 / 2 + 1e-9

    def test_no_bump_when_register_saturated(self):
        # at max_exp_field the carry cannot bump: mantissas saturate instead
        fmt = BlockFloatingPoint(2, 5, block_size=None)
        q = fmt.real_to_format_tensor(np.float32([1e10]))
        assert fmt.metadata.exp_fields[0] == fmt.max_exp_field
        assert np.isfinite(q).all()

    def test_idempotent_after_carry(self):
        fmt = BlockFloatingPoint(8, 7, block_size=8)
        once = fmt.real_to_format_tensor(np.float32([63.875, 1.0, -0.125]))
        np.testing.assert_array_equal(fmt.real_to_format_tensor(once), once)


class TestScalarTensorParity:
    """The scalar path must operate on the exact bits the tensor path stored,
    so the reference flip (``flip_value``) corrupts what the hardware holds."""

    @settings(max_examples=50, deadline=None)
    @example(values=[63.875])
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                    min_size=1, max_size=32))
    def test_scalar_encoding_matches_tensor_path(self, values):
        fmt = BlockFloatingPoint(8, 7, block_size=4)
        x = np.float32(values)
        q = fmt.real_to_format_tensor(x)
        for i, v in enumerate(x):
            block = i // fmt.metadata.block_size
            bits_raw = fmt.real_to_format(float(v), block=block)
            bits_quant = fmt.real_to_format(float(q[i]), block=block)
            # mantissa bits agree exactly; sign may differ only for ±0
            assert bits_raw[1:] == bits_quant[1:]
            if bits_raw[1:] != [0] * fmt.mantissa_bits:
                assert bits_raw == bits_quant
            decoded = np.float32(fmt.format_to_real(bits_raw, block=block))
            assert decoded == q[i] or (decoded == 0.0 and q[i] == 0.0)

    def test_scalar_saturates_against_fixed_register(self):
        # the block exponent is fixed metadata: a value larger than the block
        # peak clips to max_mantissa (saturation, not a rounding carry)
        fmt = BlockFloatingPoint(8, 7, block_size=2)
        fmt.real_to_format_tensor(np.float32([1.0, 0.5]))
        bits = fmt.real_to_format(1e6, block=0)
        assert bits[1:] == [1] * fmt.mantissa_bits
        assert fmt.format_to_real(bits, block=0) == pytest.approx(
            fmt.max_mantissa * 2.0 ** (0 - fmt.mantissa_bits + 1))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @example(values=[63.875])
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=1, max_size=32))
    def test_error_bounded_by_block_granularity(self, values):
        fmt = BlockFloatingPoint(8, 7, block_size=8)
        x = np.float32(values)
        q = fmt.real_to_format_tensor(x)
        meta = fmt.metadata
        for i, (orig, quant) in enumerate(zip(x, q)):
            block = i // meta.block_size
            gran = 2.0 ** (int(meta.exp_fields[block]) - fmt.exp_bias - fmt.mantissa_bits + 1)
            assert abs(float(orig) - float(quant)) <= gran / 2 + 1e-6
