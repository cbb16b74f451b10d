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
"""

from __future__ import annotations

import numpy as np

from .base import NumberFormat
from .bitstring import Bitstring, bits_to_uint, uint_to_bits, validate_bits

__all__ = ["FloatingPoint"]


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
        with np.errstate(over="ignore", under="ignore"):
            # extreme exponent widths legitimately overflow float64 to inf
            self.max_value = float((2.0 - 2.0 ** -mantissa_bits)
                                   * np.exp2(np.float64(self.max_exp)))
            self.min_normal = float(np.exp2(np.float64(self.min_exp)))
            self.min_denormal = float(np.exp2(np.float64(self.min_exp - mantissa_bits)))

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
        # float64 working buffer so tiny formats (large granularity ratios)
        # round exactly; scaling by 2^e with ldexp is bit-identical to
        # multiplying or dividing by the power of two granularity
        quantized = np.abs(x, dtype=np.float64)
        sink = self.stats_sink
        if sink is not None:
            # NaN > x is False, so saturated counts finite overflow and ±inf
            saturated = int(np.count_nonzero(quantized > self.max_value))
        _, exp = np.frexp(x)
        # granularity exponent: floor(log2 |x|) clamped to the denormal
        # range, minus the mantissa width (0, inf and NaN scale harmlessly)
        np.maximum(exp, self.min_exp + 1, out=exp)
        exp -= self.mantissa_bits + 1
        np.ldexp(quantized, -exp, out=quantized)
        np.rint(quantized, out=quantized)  # half-to-even
        np.ldexp(quantized, exp, out=quantized)
        if not self.denormals:
            # flush-to-zero with round-to-nearest at the normal boundary
            below = quantized < self.min_normal
            quantized[below] = np.where(
                quantized[below] >= self.min_normal / 2, self.min_normal, 0.0)
        np.minimum(quantized, self.max_value, out=quantized)  # saturate
        if sink is not None:
            flushed = int(np.count_nonzero(
                (quantized == 0.0) & (x != 0.0) & np.isfinite(x)))
        if x.size and np.isnan(x.max()):
            # a NaN keeps whichever sign the float64 sign-times-NaN product
            # gives, which depends on numpy's loop; replay that product
            result = (np.sign(x.astype(np.float64)) * quantized).astype(np.float32)
        else:
            # sign(-0.0) is +0, so -0.0 stays +0.0 while a negative value
            # flushed to zero becomes -0.0
            result = quantized.astype(np.float32)
            result *= np.sign(x)
        if sink is not None:
            sink.record(self, x, result,
                        saturated=saturated, flushed=flushed,
                        nan_remapped=0)
        return result

    # ------------------------------------------------------------------
    # scalar path (bit-exact layout: [sign | exponent | mantissa])
    # ------------------------------------------------------------------
    def real_to_format(self, value: float) -> Bitstring:
        value = float(value)
        sign = 1 if (value < 0 or (value == 0 and np.signbit(value))) else 0
        magnitude = abs(value)
        if np.isnan(value):
            return [sign] + [1] * self.exp_bits + [1] * self.mantissa_bits
        if np.isinf(value) or magnitude > self.max_value:
            # conversion saturates to the max finite value
            magnitude = self.max_value
        if magnitude == 0.0:
            return [sign] + [0] * (self.exp_bits + self.mantissa_bits)
        exp = int(np.floor(np.log2(magnitude)))
        exp = max(exp, self.min_exp)
        granularity = 2.0 ** (exp - self.mantissa_bits)
        code = int(np.round(magnitude / granularity))
        if code >= (1 << (self.mantissa_bits + 1)):  # rounding carried to next exponent
            code >>= 1
            exp += 1
        if code >= (1 << self.mantissa_bits) and exp <= self.max_exp:
            # normal number: implicit leading one
            exp_field = exp + self.bias
            mant_field = code - (1 << self.mantissa_bits)
        else:
            # denormal (or flushed-to-zero when denormals are disabled)
            if not self.denormals:
                code = (1 << self.mantissa_bits) if magnitude >= self.min_normal / 2 else 0
                if code:
                    return [sign] + uint_to_bits(1, self.exp_bits) + [0] * self.mantissa_bits
                return [sign] + [0] * (self.exp_bits + self.mantissa_bits)
            exp_field = 0
            mant_field = min(code, (1 << self.mantissa_bits) - 1)
        return (
            [sign]
            + uint_to_bits(exp_field, self.exp_bits)
            + uint_to_bits(mant_field, self.mantissa_bits)
        )

    def format_to_real(self, bits: Bitstring) -> float:
        validate_bits(bits, self.bit_width)
        sign = -1.0 if bits[0] else 1.0
        exp_field = bits_to_uint(bits[1 : 1 + self.exp_bits])
        mant_field = bits_to_uint(bits[1 + self.exp_bits :])
        if exp_field == (1 << self.exp_bits) - 1:
            return float(sign * np.inf) if mant_field == 0 else float("nan")
        if exp_field == 0:
            if not self.denormals:
                return sign * 0.0
            return float(sign * mant_field * 2.0 ** (self.min_exp - self.mantissa_bits))
        mantissa = 1.0 + mant_field / (1 << self.mantissa_bits)
        return float(sign * mantissa * 2.0 ** (exp_field - self.bias))
