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
enabled, denormals.  -0.0 encodes with a clear sign bit.

AFP(eXmY) with bias b *is* FP(eXmY) with its exponent window moved by b, so
the rounding, the scalar codec and the fused flip kernel are FloatingPoint's
(:mod:`repro.formats.fp`), run in the window of the captured bias with
``specials=False, signed_zero=False``.  What is AFP's own: choosing the bias
from the finite peak, quantizing NaN to 0, its stats-sink counts, and the
bias register with its corruption.
"""

from __future__ import annotations

import numpy as np

from .base import MetadataError, NumberFormat
from .bitstring import (
    Bitstring,
    int_to_twos_complement,
    twos_complement_to_int,
    validate_bits,
)
from .fp import (ExpWindow, _pow2, decode_in_window, encode_in_window,
                 quantize_in_window)

__all__ = ["AdaptivFloat"]


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

    @property
    def window(self) -> ExpWindow:
        """The window of the captured bias: normal exponents ``1 - bias`` to
        ``2^e - 1 - bias`` (no exponent field is reserved)."""
        bias = self.exp_bias
        return ExpWindow(1 - bias, self.max_value_for_bias(bias), bias)

    def max_value_for_bias(self, bias: int) -> float:
        e_max = self.num_exp_values - bias
        return float((2.0 - 2.0 ** -self.mantissa_bits) * _pow2(e_max))

    def min_normal_for_bias(self, bias: int) -> float:
        return float(2.0 ** (1 - bias))

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
        sink = self.stats_sink
        magnitude = np.abs(x)
        # adapt the bias to finite magnitudes only (upstream faults may have
        # produced inf/NaN, which must not blow up the bias register)
        peak = float(np.max(magnitude, initial=0.0,
                            where=np.isfinite(magnitude)))
        nan = np.isnan(x)
        if peak == 0.0:
            self.metadata = np.int64(0)
            result = np.zeros_like(x)
            if sink is not None:
                # degenerate tensor: every finite value is zero; inf inputs
                # exceed any representable range, NaN has no AFP encoding
                sink.record(self, x, result,
                            saturated=int(np.count_nonzero(np.isinf(x))),
                            flushed=0,
                            nan_remapped=int(np.count_nonzero(nan)))
            return result
        bias = self.bias_for_peak(peak, self.exp_bits)
        # keep the register representable (8-bit signed)
        bias = int(np.clip(bias, -(1 << (self.METADATA_WIDTH - 1)),
                           (1 << (self.METADATA_WIDTH - 1)) - 1))
        self.metadata = np.int64(bias)
        # AFP reserves no NaN encoding: NaN quantizes to +0.0
        clean = np.where(nan, np.float32(0.0), x) if nan.any() else x
        result, saturated, flushed = quantize_in_window(
            self, self.window, clean, count=sink is not None)
        if sink is not None:
            sink.record(self, x, result,
                        saturated=saturated, flushed=flushed,
                        nan_remapped=int(np.count_nonzero(nan)))
        return result

    # ------------------------------------------------------------------
    # scalar path ([sign | exponent | mantissa] under the shared bias)
    # ------------------------------------------------------------------
    def real_to_format(self, value: float) -> Bitstring:
        return encode_in_window(self, self.window, value,
                                specials=False, signed_zero=False)

    def format_to_real(self, bits: Bitstring) -> float:
        return decode_in_window(self, self.window, bits, specials=False)

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
