"""Bit-exactness of the fewer-pass format kernels and im2col against oracles.

``tests/kernel_oracles.py`` keeps the straightforward implementations the
library kernels replaced.  Every check here is exact: outputs are compared
as ``uint32``/``uint64`` bit patterns (so signed zeros and NaN payloads
count), BFP exponent registers must match, and the numeric-health counts
reported to a stats sink must match.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.formats import BlockFloatingPoint, FloatingPoint, make_format
from repro.nn import functional as F

from tests import kernel_oracles as K
from tests.test_format_properties import ALL_SPECS

SPECS = sorted(
    {spec for spec in ALL_SPECS
     if isinstance(make_format(spec), (BlockFloatingPoint, FloatingPoint))}
    | {"fp16", "fp32", "bfloat16", "bfp_e5m5_b16", "bfp_e8m7_btensor"})


def _bits(*patterns: int) -> list[float]:
    return list(np.array(patterns, dtype=np.uint32).view(np.float32))


#: hand-picked values where a fewer-pass kernel could plausibly diverge
CORPUS_VALUES = [
    0.0, -0.0, np.inf, -np.inf,
    # NaNs: quiet and signalling, both signs, non-default payloads
    *_bits(0x7FC00000, 0xFFC00000, 0xFFC00123, 0x7FA00005, 0xFF800001),
    # float32 subnormals (smallest, largest, negative)
    *_bits(0x00000001, 0x007FFFFF, 0x80000003),
    # the rounding-carry peak of a 7-bit mantissa and its neighbours
    63.875, -63.875, 63.75, 31.9375, 0.99999994,
    # exponent-register saturation (both ends) and the float32 extremes
    1e10, -3e30, 3.4028235e38, -3.4028235e38, 1e-30, 1.1754944e-38,
    1.0, -1.0, 0.5, 1.5, 2.5, -2.5, 65504.0, 65520.0, 240.0, 3.0e-5,
]


def _corpus() -> list[np.ndarray]:
    base = np.array(CORPUS_VALUES, dtype=np.float32)
    rng = np.random.default_rng(7)
    arrays = [
        base,
        base[:1], base[:3], base[:17],           # partial last blocks
        np.zeros(24, dtype=np.float32),          # all-zero blocks
        np.array([-0.0] * 8 + [1.0] * 8, dtype=np.float32),
        np.concatenate([np.zeros(16, np.float32), base]),
        np.array([np.nan, np.inf, 0.0, -np.inf] * 4, dtype=np.float32),
        np.zeros(0, dtype=np.float32),
        rng.standard_normal((4, 3, 5, 7)).astype(np.float32),
        (rng.standard_normal(1000) * 1e3).astype(np.float32),
    ]
    # large tensors with non-finite values scattered, so vectorized and
    # scalar remainder loops both see NaNs of either sign
    for size in (33, 257, 4099):
        x = rng.standard_normal(size).astype(np.float32)
        picks = rng.choice(size, size=max(3, size // 10), replace=False)
        x[picks] = rng.choice(base, size=len(picks))
        arrays.append(x)
    return arrays


class _RecordingSink:
    def __init__(self):
        self.calls = []

    def record(self, fmt, original, quantized, *, saturated, flushed,
               nan_remapped):
        self.calls.append((saturated, flushed, nan_remapped,
                           original.shape, quantized.shape))


def _oracle(fmt):
    if isinstance(fmt, BlockFloatingPoint):
        return K.bfp_real_to_format_tensor
    return K.fp_real_to_format_tensor


def _uint_view(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def assert_quantizer_matches(spec: str, x: np.ndarray) -> None:
    for with_sink in (False, True):
        fmt, ref = make_format(spec), make_format(spec)
        sinks = (_RecordingSink(), _RecordingSink())
        if with_sink:
            fmt.set_stats_sink(sinks[0])
            ref.set_stats_sink(sinks[1])
        before = x.copy()
        with np.errstate(all="ignore"):
            got = fmt.real_to_format_tensor(x)
            want = _oracle(ref)(ref, x)
        assert got.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_array_equal(_uint_view(got), _uint_view(want))
        np.testing.assert_array_equal(_uint_view(x), _uint_view(before))
        assert sinks[0].calls == sinks[1].calls
        if isinstance(fmt, BlockFloatingPoint):
            assert fmt.metadata.exp_fields.dtype == ref.metadata.exp_fields.dtype
            np.testing.assert_array_equal(fmt.metadata.exp_fields,
                                          ref.metadata.exp_fields)
            assert (fmt.metadata.block_size, fmt.metadata.numel) == \
                (ref.metadata.block_size, ref.metadata.numel)


@pytest.mark.parametrize("spec", SPECS)
class TestQuantizerOracles:
    def test_corpus(self, spec):
        for x in _corpus():
            assert_quantizer_matches(spec, x)

    def test_non_contiguous_and_float64_inputs(self, spec):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 8, 5)).astype(np.float32)
        assert_quantizer_matches(spec, x[:, ::2].transpose(2, 0, 1))
        x64 = rng.standard_normal(50) * 100.0
        fmt, ref = make_format(spec), make_format(spec)
        np.testing.assert_array_equal(
            _uint_view(fmt.real_to_format_tensor(x64)),
            _uint_view(_oracle(ref)(ref, x64)))

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(width=32), min_size=0, max_size=70))
    def test_hypothesis_any_float32(self, spec, values):
        assert_quantizer_matches(spec, np.array(values, dtype=np.float32))

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(width=32, allow_nan=False,
                                     allow_infinity=False,
                                     min_value=-1.0, max_value=1.0),
                           min_size=1, max_size=40),
           scale=st.sampled_from([1e-41, 1e-23, 1e-3, 1e17, 1e38]))
    def test_hypothesis_scaled_ranges(self, spec, values, scale):
        x = (np.array(values, dtype=np.float64) * scale).astype(np.float32)
        assert_quantizer_matches(spec, x)


def _assert_im2col_matches(x, kernel, stride, padding):
    got, got_hw = F.im2col(x, kernel, stride, padding)
    want, want_hw = K.im2col(x, kernel, stride, padding)
    assert got_hw == want_hw
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(_uint_view(got), _uint_view(want))


class TestIm2colOracle:
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (2, 3)])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)])
    @pytest.mark.parametrize("padding", [(0, 0), (1, 1), (0, 1)])
    def test_geometries(self, kernel, stride, padding):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 4, 9, 8)).astype(np.float32)
        _assert_im2col_matches(x, kernel, stride, padding)

    def test_non_contiguous_and_float64(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 6, 7, 7))
        _assert_im2col_matches(x, (3, 3), (1, 1), (1, 1))
        _assert_im2col_matches(x[:, ::2].astype(np.float32), (3, 3), (2, 2), (1, 1))
        _assert_im2col_matches(x.transpose(0, 1, 3, 2), (1, 1), (1, 1), (0, 0))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 5), h=st.integers(3, 9),
           w=st.integers(3, 9), k=st.sampled_from([1, 3]),
           s=st.integers(1, 2), p=st.integers(0, 1))
    def test_hypothesis_shapes(self, n, c, h, w, k, s, p):
        x = np.random.default_rng(n * 100 + c).standard_normal(
            (n, c, h, w)).astype(np.float32)
        _assert_im2col_matches(x, (k, k), (s, s), (p, p))

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_conv2d_forward_and_backward(self, monkeypatch, groups, stride,
                                         padding):
        rng = np.random.default_rng(13)
        x_data = rng.standard_normal((2, 4, 7, 6)).astype(np.float32)
        w_data = rng.standard_normal((8, 4 // groups, 3, 3)).astype(np.float32)
        b_data = rng.standard_normal(8).astype(np.float32)

        def run():
            x = nn.Tensor(x_data.copy(), requires_grad=True)
            w = nn.Tensor(w_data.copy(), requires_grad=True)
            b = nn.Tensor(b_data.copy(), requires_grad=True)
            out = F.conv2d(x, w, b, stride=stride, padding=padding,
                           groups=groups)
            (out * out).sum().backward()
            return out.data, x.grad, w.grad, b.grad

        got = run()
        monkeypatch.setattr(F, "im2col", K.im2col)
        want = run()
        for g, r in zip(got, want):
            np.testing.assert_array_equal(_uint_view(g), _uint_view(r))
