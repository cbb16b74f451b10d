"""Validation of the Posit format against the posit standard's properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import Posit, dynamic_range, make_format


class TestSpec:
    def test_useed_maxpos_minpos(self):
        p = Posit(8, 1)
        assert p.useed == 4.0
        assert p.maxpos == 4.0 ** 6  # useed^(n-2)
        assert p.minpos == 4.0 ** -6

    def test_es0(self):
        p = Posit(8, 0)
        assert p.useed == 2.0
        assert p.maxpos == 2.0 ** 6

    def test_posit16_range(self):
        p = Posit(16, 1)
        assert p.maxpos == 4.0 ** 14
        assert p.minpos == 4.0 ** -14

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Posit(2, 0)
        with pytest.raises(ValueError):
            Posit(32, 2)  # n > 16 unsupported (table-based)
        with pytest.raises(ValueError):
            Posit(8, -1)
        with pytest.raises(ValueError):
            Posit(4, 3)  # es leaves no regime room

    @pytest.mark.parametrize("n,es", [(10, 7), (16, 7), (16, 14), (12, 9)])
    def test_maxpos_past_float64_is_rejected(self, n, es):
        with pytest.raises(ValueError, match="past float64"):
            Posit(n, es)

    def test_every_admitted_posit_has_a_float64_range(self):
        for n in range(3, 17):
            for es in range(n - 1):
                try:
                    p = Posit(n, es)
                except ValueError as exc:
                    assert "past float64" in str(exc)
                    continue
                assert np.isfinite(p.maxpos) and p.minpos > 0.0
        assert Posit(9, 7).maxpos == 2.0 ** 896  # the widest still admitted

    def test_registry_specs(self):
        assert make_format("posit8").config() == {"n": 8, "es": 1}
        assert make_format("posit_6_0").config() == {"n": 6, "es": 0}

    def test_no_metadata(self):
        assert not Posit(8, 1).has_metadata


class TestKnownEncodings:
    def test_one_encodes_as_0100(self):
        # posit 1.0 is always 01000...0
        p = Posit(8, 1)
        assert p.real_to_format(1.0) == [0, 1, 0, 0, 0, 0, 0, 0]
        assert p.format_to_real([0, 1, 0, 0, 0, 0, 0, 0]) == 1.0

    def test_zero_is_all_zeros(self):
        p = Posit(8, 1)
        assert p.real_to_format(0.0) == [0] * 8
        assert p.format_to_real([0] * 8) == 0.0

    def test_nar_pattern(self):
        p = Posit(8, 1)
        assert np.isnan(p.format_to_real([1, 0, 0, 0, 0, 0, 0, 0]))
        assert p.real_to_format(float("nan")) == [1, 0, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("fmt", [Posit(8, 1), make_format("fp16"),
                                     make_format("int8")],
                             ids=["posit8", "fp16", "int8"])
    def test_scalar_encoder_books_no_conversion(self, fmt):
        """The scalar encoder (the reference flip's) books nothing in a
        stats sink, for a posit as for FP and INT."""
        class CountingSink:
            calls = 0

            def record(self, *args, **kwargs):
                self.calls += 1

        fmt.real_to_format_tensor(np.float32([1.0, -2.0]))  # INT's scale
        sink = CountingSink()
        fmt.set_stats_sink(sink)
        fmt.real_to_format(1.5)
        fmt.set_stats_sink(None)
        assert sink.calls == 0

    def test_maxpos_pattern_is_all_ones_after_sign(self):
        p = Posit(8, 1)
        assert p.format_to_real([0, 1, 1, 1, 1, 1, 1, 1]) == p.maxpos

    def test_negation_is_twos_complement(self):
        p = Posit(8, 1)
        # posit standard: -x encodes as two's complement of x's pattern
        from repro.formats.bitstring import bits_to_uint, uint_to_bits
        pos = bits_to_uint(p.real_to_format(2.0))
        neg = bits_to_uint(p.real_to_format(-2.0))
        assert (pos + neg) % 256 == 0

    def test_posit_8_1_sample_values(self):
        p = Posit(8, 1)
        # hand-checked: 0 1 0 1 1 1 1 0 = regime k=0 (10), exp 1, frac 0.75+0.125?
        # pattern 01011110: sign 0, regime "10"->k=0, exp=1, frac=1110->?? use decode
        # 01011110: k=0 (regime "10"), exp=1, frac=0.875 -> 2^1 * 1.875 = 3.75
        assert p.format_to_real([0, 1, 0, 1, 1, 1, 1, 0]) == 3.75
        # 00110000: k=-1 (regime "01"), exp=1, frac=0 -> 2^(-2+1) = 0.5
        assert p.format_to_real([0, 0, 1, 1, 0, 0, 0, 0]) == 0.5


class TestQuantization:
    def test_saturates_at_maxpos(self):
        p = Posit(8, 1)
        q = p.real_to_format_tensor(np.float32([1e9, -1e9, np.inf]))
        np.testing.assert_array_equal(q, [p.maxpos, -p.maxpos, p.maxpos])

    @pytest.mark.parametrize("n", [8, 16])
    def test_huge_finite_inputs_saturate_at_maxpos(self, n):
        """Past ~1e20 both neighbour distances round to one float64; the
        tie must not send a finite input below maxpos."""
        p = Posit(n, 1)
        huge = np.float32([2e19, 1e30, 3.4e38, np.inf])
        np.testing.assert_array_equal(p.real_to_format_tensor(huge),
                                      np.float32([p.maxpos] * 4))
        np.testing.assert_array_equal(p.real_to_format_tensor(-huge),
                                      np.float32([-p.maxpos] * 4))
        assert p.format_to_real(p.real_to_format(3.4e38)) == p.maxpos

    def test_exact_midpoints_go_toward_minus_infinity(self):
        """The documented tie rule (not the standard's ties-to-even)."""
        p = Posit(8, 1)
        q = p.real_to_format_tensor(np.float32([1.09375, -1.03125]))
        np.testing.assert_array_equal(q, np.float32([1.0625, -1.0625]))
        assert p.real_to_format(1.09375) == [0, 1, 0, 0, 0, 0, 0, 1]  # 0x41

    def test_nonzero_never_rounds_to_zero(self):
        p = Posit(8, 1)
        q = p.real_to_format_tensor(np.float32([1e-12, -1e-12]))
        np.testing.assert_array_equal(q, [p.minpos, -p.minpos])

    def test_nan_becomes_zero_in_tensor_path(self):
        p = Posit(8, 1)
        assert p.real_to_format_tensor(np.float32([np.nan]))[0] == 0.0

    def test_tapered_precision(self):
        # posits are denser near 1.0 than near maxpos: relative error at 1.1
        # is far smaller than at 0.9 * maxpos
        p = Posit(8, 1)
        near_one = float(p.real_to_format_tensor(np.float32([1.1]))[0])
        near_max = float(p.real_to_format_tensor(np.float32([0.77 * p.maxpos]))[0])
        err_one = abs(near_one - 1.1) / 1.1
        err_max = abs(near_max - 0.77 * p.maxpos) / (0.77 * p.maxpos)
        assert err_one < err_max

    def test_idempotence(self, rng):
        p = Posit(8, 1)
        x = (rng.standard_normal(300) * 10).astype(np.float32)
        once = p.real_to_format_tensor(x)
        np.testing.assert_array_equal(p.real_to_format_tensor(once), once)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-4000, max_value=4000, allow_nan=False))
    def test_scalar_tensor_agreement(self, value):
        p = Posit(8, 1)
        tensor_q = float(p.real_to_format_tensor(np.float32([value]))[0])
        scalar_q = p.format_to_real(p.real_to_format(value))
        assert scalar_q == tensor_q

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=2, max_size=20))
    def test_monotonicity(self, values):
        p = Posit(6, 1)
        x = np.sort(np.float32(values))
        q = p.real_to_format_tensor(x)
        assert (np.diff(q) >= 0).all()

    def test_all_patterns_decode_and_reencode(self):
        # exhaustive: every finite posit6 pattern is a fixpoint of the
        # encode(decode(.)) round trip
        from repro.formats.bitstring import uint_to_bits
        p = Posit(6, 1)
        for pattern in range(64):
            bits = uint_to_bits(pattern, 6)
            value = p.format_to_real(bits)
            if np.isnan(value):
                continue
            assert p.real_to_format(value) == bits, (pattern, value)


class TestPlatformIntegration:
    def test_posit_in_goldeneye(self, rng):
        from repro.core import GoldenEye
        from repro.models import simple_cnn
        from repro.nn import Tensor
        model = simple_cnn(num_classes=4, image_size=8, seed=0)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        baseline = model(x).data.copy()
        with GoldenEye(model, "posit8"):
            emulated = model(x).data.copy()
        assert not np.array_equal(baseline, emulated)
        after = model(x).data.copy()
        np.testing.assert_array_equal(baseline, after)

    def test_posit_value_injection(self, rng):
        from repro.core import GoldenEye, ValueInjection
        from repro.core.campaign import golden_inference
        from repro.models import simple_cnn
        model = simple_cnn(num_classes=4, image_size=8, seed=0)
        images = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        labels = np.array([0, 1])
        with GoldenEye(model, "posit8") as ge:
            golden = golden_inference(ge, images, labels)
            with ge.injector.armed(ValueInjection("fc", "neuron", 0, (1,))):
                faulty = golden_inference(ge, images, labels)
        assert not np.array_equal(golden.logits, faulty.logits)

    def test_posit_dynamic_range(self):
        r = dynamic_range(Posit(8, 1))
        assert r.max_value == 4096.0
        assert r.db == pytest.approx(20 * np.log10(4096.0 / 4.0 ** -6), abs=0.01)
