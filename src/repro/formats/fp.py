"""Generic IEEE-754-style floating point with configurable field widths.

``FloatingPoint(exp_bits=e, mantissa_bits=m)`` covers the paper's whole FP
family as parameter tunings of the base class (§III-B): FP32 (e8m23), half
(e5m10), bfloat16 (e8m7), TensorFloat (e8m10), DLFloat (e6m9), FP8 (e4m3),
and the low-width research points of Fig 4 such as e2m5.

Semantics follow IEEE-754: bias ``2^(e-1) - 1``, an implicit leading one for
normal numbers, an all-ones exponent reserved for inf/NaN (which is why FP8
e4m3 tops out at 240, matching Table I), and optional denormals — the paper
exposes denormal support as a user-toggleable detail (§V-B).  Values that
exceed the format's maximum saturate on conversion; bit patterns decoded
*after an injected flip* may still be ±inf/NaN, modelling what the hardware
would really produce.

Exactness: the granularity is a power of two, so scaling with ``ldexp`` in
place gives the same bits as dividing and multiplying by it.

Exponent windows: the rounding core (:func:`quantize_in_window`), the scalar
codec (:func:`encode_in_window` / :func:`decode_in_window`) and the fused
flip kernel (``repro.formats.vectorized._flip_fp``) are functions of an
:class:`ExpWindow` (smallest normal exponent, largest finite value, field
bias).  ``FloatingPoint`` passes its fixed window;
:class:`~repro.formats.afp.AdaptivFloat` passes the window of its captured
bias.  Two arguments carry the ways the encodings differ: ``specials`` (the
all-ones exponent holds ±inf/NaN) and ``signed_zero`` (-0.0 keeps its sign
bit).  A window whose top lies past float64 decodes to ±inf.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .base import NumberFormat
from .bitstring import Bitstring, bits_to_uint, uint_to_bits, validate_bits

__all__ = ["ExpWindow", "FloatingPoint", "decode_in_window",
           "encode_in_window", "quantize_in_window"]


class ExpWindow(NamedTuple):
    """Where a float format's normal numbers sit on the real line."""

    #: exponent of the smallest normal number
    min_exp: int
    #: largest finite value (inf when it lies past float64)
    max_value: float
    #: exponent field = exponent + bias
    bias: int


def _pow2(exponent: int) -> float:
    """``2.0 ** exponent``, inf past float64: an exponent window that wide
    (fp or afp e12m3 and up) clips no float32 input."""
    return math.inf if exponent >= np.finfo(np.float64).maxexp else 2.0 ** exponent


def quantize_in_window(fmt, window: ExpWindow, x: np.ndarray,
                       count: bool = False) -> tuple[np.ndarray, int, int]:
    """Round float32 ``x`` half-to-even onto ``fmt``'s grid in ``window``.

    Returns ``(result, saturated, flushed)``: the float32 result (±inf and
    overflow saturate, -0.0 becomes +0.0, NaN stays NaN) and, when
    ``count``, how many inputs exceeded the window (±inf included) and how
    many nonzero finite inputs became zero (both 0 otherwise).
    """
    min_exp, max_value, _ = window
    saturated = flushed = 0
    has_nan = x.size and np.isnan(x.max())
    # float64 working buffer so tiny formats (large granularity ratios)
    # round exactly; scaling by 2^e with ldexp is bit-identical to
    # multiplying or dividing by the power of two granularity
    quantized = np.abs(x, dtype=np.float64)
    if count:
        # NaN > x is False, so saturated counts finite overflow and ±inf
        saturated = int(np.count_nonzero(quantized > max_value))
    _, exp = np.frexp(x)
    # granularity exponent: floor(log2 |x|) clamped to the denormal
    # range, minus the mantissa width (0, inf and NaN scale harmlessly)
    np.maximum(exp, min_exp + 1, out=exp)
    exp -= fmt.mantissa_bits + 1
    np.ldexp(quantized, -exp, out=quantized)
    np.rint(quantized, out=quantized)  # half-to-even
    np.ldexp(quantized, exp, out=quantized)
    if not fmt.denormals:
        # flush-to-zero with round-to-nearest at the normal boundary
        min_normal = 2.0 ** min_exp
        below = quantized < min_normal
        quantized[below] = np.where(
            quantized[below] >= min_normal / 2, min_normal, 0.0)
    np.minimum(quantized, max_value, out=quantized)  # saturate
    if count:
        flushed = int(np.count_nonzero(
            (quantized == 0.0) & (x != 0.0) & np.isfinite(x)))
    if has_nan:
        # a NaN keeps whichever sign the float64 sign-times-NaN product
        # gives, which depends on numpy's loop; replay that product
        result = (np.sign(x.astype(np.float64)) * quantized).astype(np.float32)
    else:
        # sign(-0.0) is +0, so -0.0 becomes +0.0 while a negative value
        # flushed to zero becomes -0.0
        result = quantized.astype(np.float32)
        result *= np.sign(x)
    return result, saturated, flushed


def encode_in_window(fmt, window: ExpWindow, value: float,
                     specials: bool = True,
                     signed_zero: bool = True) -> Bitstring:
    """``[sign | exponent | mantissa]`` of ``value`` in ``window``.

    Values past the window saturate to its largest finite encoding.  NaN
    encodes as all ones when ``specials``, else raises ``ValueError``.
    """
    e, m = fmt.exp_bits, fmt.mantissa_bits
    min_exp, max_value, bias = window
    value = float(value)
    if math.isnan(value):
        if not specials:
            raise ValueError(f"{fmt.name} has no NaN encoding")
        return [0] + [1] * (e + m)
    negative = math.copysign(1.0, value) < 0 if signed_zero else value < 0
    sign = int(negative)
    top_field = (1 << e) - 1 - int(specials)
    magnitude = min(abs(value), max_value)  # conversion saturates
    if magnitude == 0.0:
        return [sign] + [0] * (e + m)
    if magnitude == math.inf:  # a window past float64 holds every float
        return [sign] + uint_to_bits(top_field, e) + [1] * m
    exp = max(int(np.floor(np.log2(magnitude))), min_exp)
    code = int(np.round(magnitude / 2.0 ** (exp - m)))
    if code >= (1 << (m + 1)):  # rounding carried to the next exponent
        code >>= 1
        exp += 1
    if code >= (1 << m) and exp + bias <= top_field:
        # normal number: implicit leading one
        exp_field = exp + bias
        mant_field = code - (1 << m)
    else:
        # denormal (or flushed-to-zero when denormals are disabled)
        if not fmt.denormals:
            if magnitude >= 2.0 ** min_exp / 2:
                return [sign] + uint_to_bits(1, e) + [0] * m
            return [sign] + [0] * (e + m)
        exp_field = 0
        mant_field = min(code, (1 << m) - 1)
    return [sign] + uint_to_bits(exp_field, e) + uint_to_bits(mant_field, m)


def decode_in_window(fmt, window: ExpWindow, bits: Bitstring,
                     specials: bool = True) -> float:
    """The real value of ``[sign | exponent | mantissa]`` in ``window``.

    With ``specials`` the all-ones exponent reads ±inf (mantissa 0) or NaN;
    an exponent past float64 reads ±inf.
    """
    validate_bits(bits, fmt.bit_width)
    e, m = fmt.exp_bits, fmt.mantissa_bits
    sign = -1.0 if bits[0] else 1.0
    exp_field = bits_to_uint(bits[1 : 1 + e])
    mant_field = bits_to_uint(bits[1 + e :])
    if specials and exp_field == (1 << e) - 1:
        return float(sign * np.inf) if mant_field == 0 else float("nan")
    if exp_field == 0:
        if not fmt.denormals:
            return sign * 0.0
        return float(sign * mant_field * 2.0 ** (window.min_exp - m))
    mantissa = 1.0 + mant_field / (1 << m)
    return float(sign * mantissa * _pow2(exp_field - window.bias))


class FloatingPoint(NumberFormat):
    """Signed floating point with ``e`` exponent and ``m`` mantissa bits."""

    kind = "fp"
    has_metadata = False

    def __init__(self, exp_bits: int, mantissa_bits: int, denormals: bool = True):
        if exp_bits < 2:
            raise ValueError(f"need at least 2 exponent bits, got {exp_bits}")
        if mantissa_bits < 1:
            raise ValueError(f"need at least 1 mantissa bit, got {mantissa_bits}")
        super().__init__(bit_width=1 + exp_bits + mantissa_bits, radix=mantissa_bits)
        self.exp_bits = int(exp_bits)
        self.mantissa_bits = int(mantissa_bits)
        self.denormals = bool(denormals)
        self.bias = (1 << (exp_bits - 1)) - 1
        #: largest finite exponent (all-ones field is inf/NaN)
        self.max_exp = (1 << exp_bits) - 2 - self.bias
        #: exponent of the smallest normal number
        self.min_exp = 1 - self.bias
        # extreme exponent widths legitimately overflow float64 to inf
        self.max_value = (2.0 - 2.0 ** -mantissa_bits) * _pow2(self.max_exp)
        self.min_normal = 2.0 ** self.min_exp
        self.min_denormal = 2.0 ** (self.min_exp - mantissa_bits)
        #: the fixed exponent window every kernel runs in
        self.window = ExpWindow(self.min_exp, self.max_value, self.bias)
        #: the IEEE binary32 layout: every finite float32 is exact here
        self.binary32 = (self.exp_bits, self.mantissa_bits,
                         self.denormals) == (8, 23, True)

    def config(self) -> dict:
        return {
            "exp_bits": self.exp_bits,
            "mantissa_bits": self.mantissa_bits,
            "denormals": self.denormals,
        }

    @property
    def name(self) -> str:
        suffix = "" if self.denormals else ",no-dn"
        return f"fp(e{self.exp_bits}m{self.mantissa_bits}{suffix})"

    # ------------------------------------------------------------------
    # tensor path (vectorized)
    # ------------------------------------------------------------------
    def real_to_format_tensor(self, tensor: np.ndarray) -> np.ndarray:
        x = np.asarray(tensor, dtype=np.float32)
        sink = self.stats_sink
        if self.binary32 and not (x.size and np.isnan(x.max())):
            # float32 input is already exact: only ±inf saturates, and
            # += 0.0 turns -0.0 into +0.0 as the sign product does
            result = np.minimum(x, self.max_value)
            np.maximum(result, -self.max_value, out=result)
            result += 0.0
            if sink is not None:
                sink.record(self, x, result,
                            saturated=int(np.count_nonzero(np.isinf(x))),
                            flushed=0, nan_remapped=0)
            return result
        result, saturated, flushed = quantize_in_window(
            self, self.window, x, count=sink is not None)
        if sink is not None:
            sink.record(self, x, result,
                        saturated=saturated, flushed=flushed,
                        nan_remapped=0)
        return result

    # ------------------------------------------------------------------
    # scalar path (bit-exact layout: [sign | exponent | mantissa])
    # ------------------------------------------------------------------
    def real_to_format(self, value: float) -> Bitstring:
        return encode_in_window(self, self.window, value)

    def format_to_real(self, bits: Bitstring) -> float:
        return decode_in_window(self, self.window, bits)
