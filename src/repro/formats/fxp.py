"""Fixed-point format FxP(sign, integer_bits, fraction_bits).

The paper's notation FxP(1, 15, 16) means 1 sign bit, 15 integer bits and 16
fractional bits (32 bits total); the *radix* is the bit position separating
the integer from the fraction (§II-A).  Values are stored in two's complement
at a fixed scale of ``2^-fraction_bits``, clamp on overflow (saturating
arithmetic, as fixed-point DNN hardware does), and round half-to-even.
"""

from __future__ import annotations

import numpy as np

from .base import NumberFormat
from .bitstring import Bitstring, int_to_twos_complement, twos_complement_to_int, validate_bits

__all__ = ["FixedPoint"]


class FixedPoint(NumberFormat):
    """Two's-complement fixed point with saturation."""

    kind = "fxp"
    has_metadata = False

    def __init__(self, int_bits: int, frac_bits: int):
        if int_bits < 0 or frac_bits < 0:
            raise ValueError("field widths must be non-negative")
        if int_bits + frac_bits < 1:
            raise ValueError("need at least one magnitude bit")
        super().__init__(bit_width=1 + int_bits + frac_bits, radix=frac_bits)
        self.int_bits = int(int_bits)
        self.frac_bits = int(frac_bits)
        self.scale = 2.0 ** -frac_bits
        magnitude_bits = int_bits + frac_bits
        self.max_code = (1 << magnitude_bits) - 1
        self.min_code = -(1 << magnitude_bits)
        self.max_value = self.max_code * self.scale
        self.min_value = self.min_code * self.scale
        #: smallest positive representable value
        self.min_positive = self.scale

    def config(self) -> dict:
        return {"int_bits": self.int_bits, "frac_bits": self.frac_bits}

    @property
    def name(self) -> str:
        return f"fxp(1,{self.int_bits},{self.frac_bits})"

    # ------------------------------------------------------------------
    # tensor path
    # ------------------------------------------------------------------
    def real_to_format_tensor(self, tensor: np.ndarray) -> np.ndarray:
        x = np.asarray(tensor, dtype=np.float32).astype(np.float64)
        raw_codes = np.round(x / self.scale)  # half-to-even
        # Fixed-point pipelines have no NaN encoding: an upstream fault that
        # produced NaN converts to zero; ±inf saturates like any overflow.
        codes = np.nan_to_num(raw_codes, nan=0.0, posinf=self.max_code, neginf=self.min_code)
        codes = np.clip(codes, self.min_code, self.max_code)
        result = (codes * self.scale).astype(np.float32)
        if self.stats_sink is not None:
            # raw codes outside [min_code, max_code] saturate (±inf included;
            # NaN compares False and is counted as remapped instead)
            self.stats_sink.record(
                self, x, result,
                saturated=int(np.count_nonzero(
                    (raw_codes > self.max_code) | (raw_codes < self.min_code))),
                flushed=int(np.count_nonzero(
                    (codes == 0) & np.isfinite(x) & (x != 0.0))),
                nan_remapped=int(np.count_nonzero(np.isnan(x))))
        return result

    # ------------------------------------------------------------------
    # scalar path (two's complement, MSB first)
    # ------------------------------------------------------------------
    def real_to_format(self, value: float) -> Bitstring:
        value = float(value)
        if np.isnan(value):
            raise ValueError("cannot encode NaN in a fixed-point format")
        code = int(np.clip(np.round(value / self.scale), self.min_code, self.max_code))
        return int_to_twos_complement(code, self.bit_width)

    def format_to_real(self, bits: Bitstring) -> float:
        validate_bits(bits, self.bit_width)
        return float(twos_complement_to_int(bits) * self.scale)
