"""Bit-exactness of the fast format, im2col, max-pool and scoring kernels.

``tests/kernel_oracles.py`` keeps the straightforward implementations the
library kernels replaced; the binary32 flip is checked against the scalar
:func:`~repro.formats.vectorized.flip_value`.  Every check here is exact:
outputs are compared as ``uint32``/``uint64`` bit patterns (so signed zeros
and NaN payloads count), BFP exponent registers and AFP bias registers must
match, and the numeric-health counts and tensors reported to a stats sink
must match.  AdaptivFloat, which runs on FloatingPoint's kernels in the
window of its captured bias, is held to its own frozen pre-merge kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.core import metrics as M
from repro.formats import (AdaptivFloat, BlockFloatingPoint, FloatingPoint,
                           flip_value, flip_values, make_format)
from repro.formats import vectorized
from repro.nn import functional as F

from tests import kernel_oracles as K
from tests.test_format_properties import ALL_SPECS

#: AdaptivFloat configurations held to the frozen pre-merge AFP kernels
AFP_SPECS = [f"afp_e{e}m{m}{suffix}"
             for e, m in [(2, 1), (4, 3), (5, 2), (8, 7), (12, 3)]
             for suffix in ("", "_nodn")]

SPECS = sorted(
    {spec for spec in ALL_SPECS
     if isinstance(make_format(spec), (BlockFloatingPoint, FloatingPoint))}
    | {"fp16", "fp32", "bfloat16", "bfp_e5m5_b16", "bfp_e8m7_btensor"}
    | set(AFP_SPECS))


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
        np.array([np.nan, np.inf, -np.inf, -np.nan], dtype=np.float32),
        np.array([-0.0, -0.0, 0.0], dtype=np.float32),
        np.zeros(0, dtype=np.float32),
        # a lone negative NaN, alone and last after 8 or 16 values where
        # numpy's vector loops leave it to their scalar remainder: the sign
        # of its sign-times-NaN product depends on that position
        *(np.concatenate([np.full(n, -1.5, np.float32), _bits(p)])
          for n in (0, 8, 16) for p in (0xFFC00000, 0xFF800001)),
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


def _booked(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


class _RecordingSink:
    def __init__(self):
        self.calls = []

    def record(self, fmt, original, quantized, *, saturated, flushed,
               nan_remapped):
        self.calls.append((saturated, flushed, nan_remapped,
                           _booked(original), _booked(quantized)))


def _oracle(fmt):
    if isinstance(fmt, BlockFloatingPoint):
        return K.bfp_real_to_format_tensor
    if isinstance(fmt, AdaptivFloat):
        return K.afp_real_to_format_tensor
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
        if isinstance(fmt, AdaptivFloat):
            assert type(fmt.metadata) is type(ref.metadata) is np.int64
            assert fmt.metadata == ref.metadata


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


def _pool_corpus() -> list[np.ndarray]:
    """NCHW inputs full of max-pool ties: NaN payloads of both signs, ±inf,
    ±0 and ReLU zeros, plus a plain random tensor."""
    rng = np.random.default_rng(21)
    plain = rng.standard_normal((2, 3, 9, 8)).astype(np.float32)
    relu = np.maximum(plain, 0.0)
    specials = np.array(_bits(0x7FC00001, 0xFFC00002, 0x7F800003, 0x7F800000,
                              0xFF800000, 0x00000000, 0x80000000, 0x3F800000,
                              0xBF800000), dtype=np.float32)
    ties = rng.choice(specials, size=plain.shape).astype(np.float32)
    zeros = rng.choice(np.float32([0.0, -0.0, 1.0]), size=plain.shape)
    return [plain, relu, ties, zeros.astype(np.float32)]


class TestMaxPoolOracle:
    @pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (3, 1), (2, 1)])
    @pytest.mark.parametrize("case", range(4))
    def test_forward_bits_and_input_gradient(self, k, s, case):
        x_data = _pool_corpus()[case]
        grad = np.random.default_rng(case).standard_normal(
            K.max_pool2d(x_data, k, s)[0].shape).astype(np.float32)
        want, want_dx = K.max_pool2d(x_data, k, s, grad)
        x = nn.Tensor(x_data.copy(), requires_grad=True)
        out = F.max_pool2d(x, k, s)
        out.backward(grad)
        assert out.data.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(_uint_view(out.data), _uint_view(want))
        np.testing.assert_array_equal(_uint_view(x.grad), _uint_view(want_dx))
        with nn.no_grad():
            inference = F.max_pool2d(nn.Tensor(x_data), k, s).data
        np.testing.assert_array_equal(_uint_view(inference), _uint_view(want))


def _flip_victims() -> np.ndarray:
    """The corpus, 2^127 (whose flip can land on ±inf) and 2000 random words."""
    random = np.random.default_rng(17).integers(
        0, 1 << 32, size=2000, dtype=np.uint64).astype(np.uint32)
    return np.concatenate([np.array(CORPUS_VALUES, dtype=np.float32),
                           _bits(0x7F000000, 0xFF000000),
                           random.view(np.float32)])


@pytest.fixture
def general_fp_columns(monkeypatch):
    """Counts the columns the general FloatingPoint flip kernel takes."""
    calls = []
    real = vectorized._flip_fp
    monkeypatch.setattr(vectorized, "_flip_fp",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def _scalar_flips(fmt, victims, lane_bits, op) -> np.ndarray:
    lane = len(victims) // len(lane_bits)
    return np.array([flip_value(fmt, float(v), lane_bits[i // lane], op=op)
                     for i, v in enumerate(victims)], dtype=np.float32)


class TestBinary32FlipOracle:
    """``flip_values`` on ``fp32`` equals the scalar kernel bit for bit.

    The fabric XOR serves a column only when every victim is finite and no
    result is NaN; any other column takes the general FP kernel.
    """

    @pytest.mark.parametrize("op", ["xor", "set", "clear"])
    def test_every_bit_matches_scalar_kernel(self, op, general_fp_columns):
        # columns of 8, as a campaign flips them: most take the XOR, the
        # ones holding a non-finite victim or a NaN result do not
        fmt = make_format("fp32")
        victims = _flip_victims()
        results = []
        for bit in range(32):
            want = _scalar_flips(fmt, victims, [(bit,)], op)
            with np.errstate(invalid="ignore"):  # signalling-NaN victims
                got = np.concatenate([
                    flip_values(fmt, victims[i:i + 8], (bit,), op=op)
                    for i in range(0, victims.size, 8)])
            np.testing.assert_array_equal(_uint_view(got), _uint_view(want),
                                          err_msg=f"{op} bit {bit}")
            results.append(want)
        columns = 32 * -(-victims.size // 8)
        assert 0 < len(general_fp_columns) < columns // 2  # both paths ran
        results = np.concatenate(results)
        assert np.isnan(results).any()
        if op != "clear":  # clearing a bit never reaches an all-ones exponent
            assert np.isposinf(results).any() and np.isneginf(results).any()

    @pytest.mark.parametrize("op", ["xor", "set", "clear"])
    def test_per_lane_masks_match_scalar_kernel(self, op, general_fp_columns):
        fmt = make_format("fp32")
        victims = np.random.default_rng(3).standard_normal(32).astype(
            np.float32)
        safe_bits = [(0,), (8,), (9,), (31,)]  # sign, exponent LSB, mantissa
        with_inf = victims.copy()
        with_inf[13] = np.inf
        nan_result = victims.copy()
        nan_result[5] = 1.5  # exponent 127: setting its MSB makes a NaN
        cases = [(victims, safe_bits, False), (with_inf, safe_bits, True),
                 (nan_result, [(1,), (0,), (9,), (31,)], op != "clear")]
        for column, lane_bits, general in cases:
            before = len(general_fp_columns)
            got = vectorized.flip_values_batched(fmt, column, lane_bits, op=op)
            want = _scalar_flips(fmt, column, lane_bits, op)
            np.testing.assert_array_equal(_uint_view(got), _uint_view(want))
            assert (len(general_fp_columns) > before) == general


def _mask(bits, width: int) -> int:
    return sum(1 << (width - 1 - b) for b in bits)


#: tensors whose peaks set the bias: a few windows, and the clipped 127
_BIAS_SOURCES = [np.float32([1.0]), np.float32([-3e-3, 1e-4]),
                 np.float32([6.0e4, 1.0]), _bits(0x00000003)]


def _afp_victims(fmt) -> np.ndarray:
    """The corpus without NaN, and 300 values around the window's top."""
    corpus = np.array(CORPUS_VALUES, dtype=np.float32)
    corpus = corpus[~np.isnan(corpus)]
    if not np.isfinite(fmt.max_value_for_bias(fmt.exp_bias)):
        # the frozen kernel casts log2(inf) to int64 here: undefined
        corpus = corpus[np.isfinite(corpus)]
    top = fmt.min_normal_for_bias(fmt.exp_bias) * 2.0 ** 12
    rng = np.random.default_rng(23)
    spread = (rng.standard_normal(300) * top
              * np.exp2(rng.integers(-14, 3, size=300))).astype(np.float32)
    return np.concatenate([corpus, spread])


@pytest.mark.parametrize("spec", AFP_SPECS)
class TestAfpFlipOracle:
    """AdaptivFloat flips equal the frozen AFP fused kernel bit for bit.

    Every window goes through FloatingPoint's fused kernel except those
    whose top lies past float64 (``afp_e12m3``), which take the scalar
    codec; both must give the frozen kernel's bits.
    """

    @pytest.mark.parametrize("op", ["xor", "set", "clear"])
    def test_every_bit_matches_frozen_kernel(self, spec, op):
        fmt = make_format(spec)
        for source in _BIAS_SOURCES:
            fmt.real_to_format_tensor(source)
            victims = _afp_victims(fmt)
            for bit in range(fmt.bit_width):
                want = K.afp_flip(fmt, victims, _mask((bit,), fmt.bit_width),
                                  op)
                got = flip_values(fmt, victims, (bit,), op=op)
                np.testing.assert_array_equal(
                    _uint_view(got), _uint_view(want),
                    err_msg=f"{op} bit {bit} bias {fmt.exp_bias}")

    @pytest.mark.parametrize("op", ["xor", "set", "clear"])
    def test_per_lane_masks_match_frozen_kernel(self, spec, op):
        fmt = make_format(spec)
        w = fmt.bit_width
        lane_bits = [(0,), (1,), (w - 1,), (1, w - 2), (0, 2, w - 1), ()]
        for source in _BIAS_SOURCES:
            fmt.real_to_format_tensor(source)
            victims = _afp_victims(fmt)[:len(lane_bits) * 40]
            lane = victims.size // len(lane_bits)
            column = victims[:lane * len(lane_bits)]
            masks = np.repeat(np.array([_mask(bits, w) for bits in lane_bits],
                                       dtype=np.int64), lane)
            got = vectorized.flip_values_batched(fmt, column, lane_bits,
                                                 op=op)
            np.testing.assert_array_equal(
                _uint_view(got), _uint_view(K.afp_flip(fmt, column, masks, op)))

    def test_nan_victims_raise_like_frozen_kernel(self, spec):
        fmt = make_format(spec)
        fmt.real_to_format_tensor(np.float32([1.0]))
        column = np.float32([1.0, np.nan])
        with pytest.raises(ValueError, match="NaN"):
            K.afp_flip(fmt, column, 1)
        with pytest.raises(ValueError, match="NaN"):
            flip_values(fmt, column, (0,))
        with pytest.raises(ValueError, match="NaN"):
            flip_value(fmt, float("nan"), (0,))

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(width=32, allow_nan=False),
                           min_size=1, max_size=40),
           peak=st.sampled_from([1e-38, 1e-3, 1.0, 7.0e4, 3.0e38]),
           bits=st.lists(st.integers(0, 7), min_size=1, max_size=3,
                         unique=True),
           op=st.sampled_from(["xor", "set", "clear"]))
    def test_hypothesis_victims(self, spec, values, peak, bits, op):
        fmt = make_format(spec)
        fmt.real_to_format_tensor(np.float32([peak]))
        victims = np.array(values, dtype=np.float32)
        if not np.isfinite(fmt.max_value_for_bias(fmt.exp_bias)):
            victims = victims[np.isfinite(victims)]
        bits = [b % fmt.bit_width for b in bits]
        want = K.afp_flip(fmt, victims, _mask(set(bits), fmt.bit_width), op)
        np.testing.assert_array_equal(
            _uint_view(flip_values(fmt, victims, sorted(set(bits)), op=op)),
            _uint_view(want))


#: logits where the scoring kernels could plausibly diverge: every
#: non-finite value, the ±1e4 clip bounds, the float32 extremes and
#: repeated values (ties), as float64 and float32 arrays
_LOGITS = hnp.arrays(
    st.sampled_from([np.float64, np.float32]),
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e4, -1e4,
                         3.4028234663852886e38, -3.4028234663852886e38,
                         np.inf, -np.inf, np.nan]),
        st.floats(-1e6, 1e6, width=32)))


def _draw_labels(logits: np.ndarray, data) -> np.ndarray:
    return data.draw(hnp.arrays(np.int64, logits.shape[:1],
                                elements=st.integers(0, logits.shape[1] - 1)))


class TestScoringOracle:
    """Outcome scoring equals the frozen full-softmax kernels bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(logits=_LOGITS, data=st.data())
    def test_cross_entropy_and_predictions(self, logits, data):
        labels = _draw_labels(logits, data)
        with np.errstate(all="ignore"):
            got = M.cross_entropy_values(logits, labels)
            want = K.cross_entropy_values(logits, labels)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        np.testing.assert_array_equal(M._predictions(logits),
                                      K.predictions(logits))

    @settings(max_examples=200, deadline=None)
    @given(faulty=_LOGITS, data=st.data())
    def test_compare_outcomes(self, faulty, data):
        labels = _draw_labels(faulty, data)
        golden = data.draw(hnp.arrays(np.float32, faulty.shape,
                                      elements=st.floats(-10, 10, width=32)))
        with np.errstate(all="ignore"):
            got = M.compare_outcomes(
                M.InferenceOutcome(logits=golden, labels=labels),
                M.InferenceOutcome(logits=faulty, labels=labels))
            gaps = np.abs(K.cross_entropy_values(faulty, labels)
                          - K.cross_entropy_values(golden, labels))
        want_delta = np.float64(np.mean(gaps))
        assert np.float64(got["delta_loss"]).view(np.uint64) == \
            want_delta.view(np.uint64)
        assert got["faulty_accuracy"] == float(
            np.mean(K.predictions(faulty) == labels))
        assert got["golden_accuracy"] == float(
            np.mean(K.predictions(golden) == labels))


def _lane_corpus():
    """(golden, lanes, labels): one batch of 6 and a stack of lanes over it.

    The lanes cover NaN and ±inf logits, an all-NaN row, argmax ties, a
    lane equal to golden, a temporal lane whose samples past ``persist=2``
    are golden, and a finite lane with two logits above the ±1e4 clip
    bound beside a NaN lane (clipped, its ΔLoss would change).
    """
    rng = np.random.default_rng(19)
    golden = rng.standard_normal((6, 5)).astype(np.float32)
    labels = np.array([0, 1, 2, 3, 4, 0])

    def lane(**rows):
        out = rng.standard_normal((6, 5)).astype(np.float32)
        for row, values in rows.items():
            out[int(row[1:])] = values
        return out

    big = lane(r0=[3.0e4, 2.9999e4, 0.0, 1.0, -1.0])
    persist = lane()
    persist[2:] = golden[2:]
    lanes = [
        golden.copy(),
        lane(r1=[0.5, np.nan, 0.25, 2.0, -1.0]),
        big,
        lane(r2=[np.inf, 1.0, 2.0, 3.0, 4.0], r3=[-np.inf] * 5),
        lane(r4=[np.nan] * 5),
        lane(r0=[1.0] * 5, r5=[7.0, 7.0, 0.0, -1.0, 7.0]),
        persist,
        lane(r1=[np.inf, np.inf, np.nan, -np.inf, 0.0]),
        lane(r3=[1e5, -1e5, 2e5, 0.0, 1.0]),
    ]
    return golden, np.stack(lanes), labels


class TestLaneScoringOracle:
    """A stack of lanes scores each lane as one faulty run alone does."""

    @staticmethod
    def _assert_lanes(golden, lanes, labels):
        outcome = M.InferenceOutcome(logits=golden, labels=labels)
        with np.errstate(all="ignore"):
            got = M.compare_outcomes(
                outcome, M.InferenceOutcome(logits=lanes, labels=labels))
            for k, faulty in enumerate(lanes):
                want = K.compare_outcomes(golden, faulty, labels)
                for key, value in want.items():
                    assert got[key].shape == (len(lanes),)
                    assert np.float64(got[key][k]).view(np.uint64) == \
                        np.float64(value).view(np.uint64), (k, key)

    def test_corpus(self):
        self._assert_lanes(*_lane_corpus())

    def test_finite_lane_beside_a_nan_lane_is_not_clipped(self):
        golden, lanes, labels = _lane_corpus()
        alone = M.compare_outcomes(
            M.InferenceOutcome(logits=golden, labels=labels),
            M.InferenceOutcome(logits=lanes[2], labels=labels))
        with np.errstate(all="ignore"):
            stacked = M.compare_outcomes(
                M.InferenceOutcome(logits=golden, labels=labels),
                M.InferenceOutcome(logits=lanes[1:3], labels=labels))
            clipped = K.compare_outcomes(golden, np.clip(lanes[2], -1e4, 1e4),
                                         labels)
        assert stacked["delta_loss"][1] == alone["delta_loss"]
        assert clipped["delta_loss"] != alone["delta_loss"]

    def test_one_run_returns_scalars(self):
        golden, lanes, labels = _lane_corpus()
        with np.errstate(all="ignore"):
            got = M.compare_outcomes(
                M.InferenceOutcome(logits=golden, labels=labels),
                M.InferenceOutcome(logits=lanes[1], labels=labels))
        assert all(np.ndim(value) == 0 for value in got.values())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(1, 6))
    def test_random_stacks(self, data, k):
        lanes = data.draw(hnp.arrays(
            np.float32, st.tuples(st.just(k), st.integers(1, 6),
                                  st.integers(1, 5)),
            elements=st.one_of(
                st.sampled_from([0.0, 1.0, -1.0, 1e4, -1e4, 3.0e4, 2.9999e4,
                                 np.inf, -np.inf, np.nan]),
                st.floats(-1e6, 1e6, width=32))))
        labels = _draw_labels(lanes[0], data)
        golden = data.draw(hnp.arrays(np.float32, lanes.shape[1:],
                                      elements=st.floats(-10, 10, width=32)))
        self._assert_lanes(golden, lanes, labels)
