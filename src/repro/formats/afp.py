"""AdaptivFloat (AFP) — floating point with a per-tensor exponent bias.

AdaptivFloat (Tambe et al. [37]) keeps the ``[sign | exponent | mantissa]``
layout of floating point but *adapts a shared exponent bias per tensor*,
"shifting the range of representable values on the floating point scale to
where it is most needed" (§II-A).  The bias is chosen so the format's largest
exponent matches the tensor's largest magnitude; Table I marks AFP's range as
"movable" for exactly this reason.

The shared bias is hardware metadata: one small signed register per tensor.
GoldenEye exposes it for injection — a flipped bias bit rescales the whole
tensor by a power of two, again a multi-bit flip in value space.

Unlike IEEE floating point, AFP reserves no inf/NaN encodings (all exponent
fields except 0 are normal values); exponent field 0 holds zero and, when
enabled, denormals.
"""

from __future__ import annotations

import math

import numpy as np

from .base import MetadataError, NumberFormat
from .bitstring import (
    Bitstring,
    bits_to_uint,
    int_to_twos_complement,
    twos_complement_to_int,
    uint_to_bits,
    validate_bits,
)

__all__ = ["AdaptivFloat"]


def _pow2(exponent: int) -> float:
    """``2.0 ** exponent``, inf past float64: an exponent window that wide
    (afp e12m3 and up) clips no float32 input."""
    return math.inf if exponent >= np.finfo(np.float64).maxexp else 2.0 ** exponent


class AdaptivFloat(NumberFormat):
    """Floating point with a tensor-adaptive shared exponent bias."""

    kind = "afp"
    has_metadata = True
    #: the shared bias register: 8-bit signed (two's complement)
    METADATA_WIDTH = 8

    def __init__(self, exp_bits: int, mantissa_bits: int, denormals: bool = True):
        if exp_bits < 2:
            raise ValueError(f"need at least 2 exponent bits, got {exp_bits}")
        if mantissa_bits < 1:
            raise ValueError(f"need at least 1 mantissa bit, got {mantissa_bits}")
        super().__init__(bit_width=1 + exp_bits + mantissa_bits, radix=mantissa_bits)
        self.exp_bits = int(exp_bits)
        self.mantissa_bits = int(mantissa_bits)
        self.denormals = bool(denormals)
        #: exponent fields 1 .. 2^e - 1 are normal (field 0 = zero/denormal)
        self.num_exp_values = (1 << exp_bits) - 1

    def config(self) -> dict:
        return {
            "exp_bits": self.exp_bits,
            "mantissa_bits": self.mantissa_bits,
            "denormals": self.denormals,
        }

    @property
    def name(self) -> str:
        suffix = "" if self.denormals else ",no-dn"
        return f"afp(e{self.exp_bits}m{self.mantissa_bits}{suffix})"

    # ------------------------------------------------------------------
    # bias bookkeeping
    # ------------------------------------------------------------------
    @property
    def exp_bias(self) -> int:
        """The captured shared exponent bias (metadata)."""
        return int(self._require_metadata())

    def _exp_window(self, bias: int) -> tuple[int, int]:
        """(min, max) effective exponent for normal numbers under ``bias``."""
        return 1 - bias, self.num_exp_values - bias

    def max_value_for_bias(self, bias: int) -> float:
        _, e_max = self._exp_window(bias)
        return float((2.0 - 2.0 ** -self.mantissa_bits) * _pow2(e_max))

    def min_normal_for_bias(self, bias: int) -> float:
        e_min, _ = self._exp_window(bias)
        return float(2.0 ** e_min)

    @staticmethod
    def bias_for_peak(peak: float, exp_bits: int) -> int:
        """Bias that aligns the format's top exponent with ``floor(log2 peak)``."""
        e_max_needed = int(np.floor(np.log2(peak)))
        return ((1 << exp_bits) - 1) - e_max_needed

    # ------------------------------------------------------------------
    # tensor path
    # ------------------------------------------------------------------
    def real_to_format_tensor(self, tensor: np.ndarray) -> np.ndarray:
        x = np.asarray(tensor, dtype=np.float32)
        xd = x.astype(np.float64)
        # adapt the bias to finite magnitudes only (upstream faults may have
        # produced inf/NaN, which must not blow up the bias register)
        magnitude = np.where(np.isfinite(xd), np.abs(xd), 0.0)
        peak = float(np.max(magnitude, initial=0.0))
        if peak == 0.0:
            self.metadata = np.int64(0)
            result = np.zeros_like(x)
            if self.stats_sink is not None:
                # degenerate tensor: every finite value is zero; inf inputs
                # exceed any representable range, NaN has no AFP encoding
                self.stats_sink.record(
                    self, x, result,
                    saturated=int(np.count_nonzero(np.isinf(xd))),
                    flushed=0,
                    nan_remapped=int(np.count_nonzero(np.isnan(xd))))
            return result
        bias = self.bias_for_peak(peak, self.exp_bits)
        # keep the register representable (8-bit signed)
        bias = int(np.clip(bias, -(1 << (self.METADATA_WIDTH - 1)),
                           (1 << (self.METADATA_WIDTH - 1)) - 1))
        self.metadata = np.int64(bias)
        result = self._quantize_with_bias(xd, bias).astype(np.float32)
        if self.stats_sink is not None:
            abs_xd = np.abs(xd)
            saturated = int(np.count_nonzero(
                abs_xd > self.max_value_for_bias(bias)))  # inf included
            flushed = int(np.count_nonzero(
                (result == 0.0) & (abs_xd > 0.0) & np.isfinite(xd)))
            nan_remapped = int(np.count_nonzero(np.isnan(xd)))
            self.stats_sink.record(self, x, result,
                                   saturated=saturated, flushed=flushed,
                                   nan_remapped=nan_remapped)
        return result

    def _quantize_with_bias(self, xd: np.ndarray, bias: int) -> np.ndarray:
        e_min, e_max = self._exp_window(bias)
        magnitude = np.abs(xd)
        with np.errstate(divide="ignore"):
            _, raw_exp = np.frexp(magnitude)
        exp = np.maximum(raw_exp - 1, e_min)
        granularity = np.exp2(exp - self.mantissa_bits)
        quantized = np.round(magnitude / granularity) * granularity
        if not self.denormals:
            min_normal = 2.0 ** e_min
            quantized = np.where(
                quantized < min_normal,
                np.where(quantized >= min_normal / 2, min_normal, 0.0),
                quantized,
            )
        # AFP reserves no inf/NaN encodings: inf saturates, NaN becomes zero
        quantized = np.nan_to_num(quantized, nan=0.0, posinf=np.inf)
        quantized = np.minimum(quantized, self.max_value_for_bias(bias))
        quantized = np.where(magnitude == 0.0, 0.0, quantized)
        signs = np.where(np.isnan(xd), 0.0, np.sign(xd))
        return signs * quantized

    # ------------------------------------------------------------------
    # scalar path ([sign | exponent | mantissa] under the shared bias)
    # ------------------------------------------------------------------
    def real_to_format(self, value: float) -> Bitstring:
        bias = self.exp_bias
        e_min, e_max = self._exp_window(bias)
        value = float(value)
        if np.isnan(value):
            raise ValueError("AdaptivFloat has no NaN encoding")
        sign = 1 if value < 0 else 0
        magnitude = min(abs(value), self.max_value_for_bias(bias))
        if magnitude == 0.0:
            return [sign] + [0] * (self.exp_bits + self.mantissa_bits)
        exp = max(int(np.floor(np.log2(magnitude))), e_min)
        granularity = 2.0 ** (exp - self.mantissa_bits)
        code = int(np.round(magnitude / granularity))
        if code >= (1 << (self.mantissa_bits + 1)):
            code >>= 1
            exp += 1
        if code >= (1 << self.mantissa_bits):
            exp_field = exp + bias  # in [1, num_exp_values]
            mant_field = code - (1 << self.mantissa_bits)
        else:
            if not self.denormals:
                if magnitude >= 2.0 ** e_min / 2:
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
        bias = self.exp_bias
        sign = -1.0 if bits[0] else 1.0
        exp_field = bits_to_uint(bits[1 : 1 + self.exp_bits])
        mant_field = bits_to_uint(bits[1 + self.exp_bits :])
        if exp_field == 0:
            if not self.denormals:
                return sign * 0.0
            e_min, _ = self._exp_window(bias)
            return float(sign * mant_field * 2.0 ** (e_min - self.mantissa_bits))
        mantissa = 1.0 + mant_field / (1 << self.mantissa_bits)
        return float(sign * mantissa * _pow2(exp_field - bias))

    # ------------------------------------------------------------------
    # metadata registers (one shared bias register)
    # ------------------------------------------------------------------
    def num_metadata_registers(self) -> int:
        return 1 if self.metadata is not None else 0

    def metadata_register_width(self) -> int:
        return self.METADATA_WIDTH

    def get_metadata_bits(self, register: int = 0) -> Bitstring:
        if register != 0:
            raise IndexError("AdaptivFloat has a single shared-bias register")
        return int_to_twos_complement(self.exp_bias, self.METADATA_WIDTH)

    def set_metadata_bits(self, bits: Bitstring, register: int = 0) -> None:
        if register != 0:
            raise IndexError("AdaptivFloat has a single shared-bias register")
        self._require_metadata()
        validate_bits(bits, self.METADATA_WIDTH)
        self.metadata = np.int64(twos_complement_to_int(bits))

    def apply_metadata_corruption(self, tensor: np.ndarray,
                                  original_metadata) -> np.ndarray:
        """Rescale the whole tensor by ``2^(bias_old - bias_new)``.

        Every element's effective exponent is ``field - bias``, so a corrupted
        bias shifts all magnitudes by the bias delta at once.
        """
        if original_metadata is None:
            raise MetadataError("original metadata required")
        delta = int(original_metadata) - int(self._require_metadata())
        x = np.asarray(tensor, dtype=np.float64)
        with np.errstate(over="ignore"):
            # a large corrupted bias may legitimately overflow FP32 to inf
            return (x * 2.0 ** delta).astype(np.float32)
