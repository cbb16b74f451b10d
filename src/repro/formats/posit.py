"""Posit arithmetic (type III unum) as a first-class emerging format.

The paper positions GoldenEye as a playground for *future* number formats
(Table II's last row).  Posits are the most prominent such format: tapered
precision via a run-length *regime* field, no denormals, no inf (values
saturate at ``maxpos``), and a single NaR pattern.  Layout (MSB first)::

    [ sign | regime (run-length) | exponent (es bits) | fraction ]

For a positive value ``x = 2^scale * (1 + f)``, the regime encodes
``k = floor(scale / 2^es)`` (``k >= 0``: ``k+1`` ones then a zero; ``k < 0``:
``-k`` zeros then a one), the exponent field holds ``scale mod 2^es``, and
whatever bits remain hold the fraction.  Negative values are the two's
complement of the positive pattern, which makes patterns monotone in value.

Implementation note: posit rounding interacts with the variable-width
fields, so for the supported widths (``n <= 16``) conversion uses an exact,
cached value table: all ``2^n`` patterns are decoded once, and quantization
is a nearest-neighbour search with the standard's two special rules (nonzero
never rounds to zero, and magnitudes saturate at ``maxpos``: finite inputs
past it are clamped before the search, so they land on ``maxpos`` as ±inf
does).  An exact midpoint between two neighbours goes to the lower one
(toward −∞: 1.09375 → 1.0625, pattern 0x41, and −1.03125 → −1.0625 in
posit(8,1)), not to the even pattern the standard asks for; EXPERIMENTS.md
lists this under its known deviations.
"""

from __future__ import annotations

import numpy as np

from .base import NumberFormat
from .bitstring import Bitstring, bits_to_uint, uint_to_bits, validate_bits

__all__ = ["Posit"]

#: cache of (n, es) -> (sorted values, patterns aligned with values)
_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _decode_pattern(pattern: int, n: int, es: int) -> float:
    """Decode one n-bit posit pattern to a float (NaR decodes to NaN)."""
    if pattern == 0:
        return 0.0
    if pattern == 1 << (n - 1):
        return float("nan")  # NaR
    sign = -1.0 if pattern >> (n - 1) else 1.0
    if sign < 0:
        pattern = (-pattern) & ((1 << n) - 1)  # two's complement magnitude
    bits = [(pattern >> (n - 1 - i)) & 1 for i in range(n)]
    # regime: run of identical bits after the sign
    first = bits[1]
    run = 1
    i = 2
    while i < n and bits[i] == first:
        run += 1
        i += 1
    if i < n:
        i += 1  # consume the regime terminator
    k = run - 1 if first == 1 else -run
    # exponent
    exp = 0
    exp_bits_read = 0
    while exp_bits_read < es and i < n:
        exp = (exp << 1) | bits[i]
        i += 1
        exp_bits_read += 1
    exp <<= es - exp_bits_read  # truncated exponent bits are zeros
    # fraction
    frac = 0.0
    weight = 0.5
    while i < n:
        frac += bits[i] * weight
        weight /= 2
        i += 1
    scale = k * (1 << es) + exp
    return float(sign * 2.0 ** scale * (1.0 + frac))


def _table(n: int, es: int) -> tuple[np.ndarray, np.ndarray]:
    key = (n, es)
    if key not in _TABLES:
        patterns = np.arange(1 << n, dtype=np.int64)
        values = np.array([_decode_pattern(int(p), n, es) for p in patterns])
        finite = ~np.isnan(values)
        values, patterns = values[finite], patterns[finite]
        order = np.argsort(values, kind="stable")
        _TABLES[key] = (values[order], patterns[order])
    return _TABLES[key]


class Posit(NumberFormat):
    """Posit<n, es> with exact table-based conversion (n <= 16)."""

    kind = "posit"
    has_metadata = False

    def __init__(self, n: int = 8, es: int = 1):
        if not 3 <= n <= 16:
            raise ValueError(f"posit width must be in [3, 16], got {n}")
        if es < 0:
            raise ValueError(f"es must be >= 0, got {es}")
        if es > n - 2:
            raise ValueError(f"es={es} leaves no regime room in {n} bits")
        super().__init__(bit_width=n, radix=max(n - 3 - es, 0))
        self.n = int(n)
        self.es = int(es)
        self.useed = 2.0 ** (2 ** es)
        #: largest finite posit: useed^(n-2)
        self.maxpos = float(self.useed ** (n - 2))
        #: smallest positive posit: useed^-(n-2)
        self.minpos = float(self.useed ** -(n - 2))

    def config(self) -> dict:
        return {"n": self.n, "es": self.es}

    @property
    def name(self) -> str:
        return f"posit({self.n},{self.es})"

    # ------------------------------------------------------------------
    # tensor path (exact nearest-posit via the value table)
    # ------------------------------------------------------------------
    def real_to_format_tensor(self, tensor: np.ndarray) -> np.ndarray:
        x = np.asarray(tensor, dtype=np.float32).astype(np.float64)
        values, _ = _table(self.n, self.es)
        flat = x.reshape(-1)
        # NaN -> 0 (NaR has no real value; the fabric write-back needs one)
        clean = np.nan_to_num(flat, nan=0.0, posinf=self.maxpos, neginf=-self.maxpos)
        # past ~1e20 both neighbour distances round to one float64, so a
        # huge input would tie and go to the second-largest posit
        np.clip(clean, -self.maxpos, self.maxpos, out=clean)
        idx = np.searchsorted(values, clean)
        idx = np.clip(idx, 1, len(values) - 1)
        left = values[idx - 1]
        right = values[idx]
        nearest = np.where(np.abs(clean - left) <= np.abs(clean - right), left, right)
        # posit rule: a nonzero value never rounds to zero
        tiny = (nearest == 0.0) & (clean != 0.0)
        nearest = np.where(tiny, np.sign(clean) * self.minpos, nearest)
        result = nearest.reshape(x.shape).astype(np.float32)
        if self.stats_sink is not None:
            # |x| > maxpos saturates (±inf included; NaN compares False);
            # posits never flush — a nonzero value never rounds to zero
            saturated = int(np.count_nonzero(np.abs(flat) > self.maxpos))
            nan_remapped = int(np.count_nonzero(np.isnan(flat)))
            self.stats_sink.record(self, x.astype(np.float32), result,
                                   saturated=saturated, flushed=0,
                                   nan_remapped=nan_remapped)
        return result

    # ------------------------------------------------------------------
    # scalar path
    # ------------------------------------------------------------------
    def real_to_format(self, value: float) -> Bitstring:
        value = float(value)
        if np.isnan(value):
            return uint_to_bits(1 << (self.n - 1), self.n)  # NaR
        quantized = float(self.real_to_format_tensor(np.float32([value]))[0])
        values, patterns = _table(self.n, self.es)
        idx = int(np.searchsorted(values, quantized))
        idx = min(max(idx, 0), len(values) - 1)
        if values[idx] != quantized and idx > 0 and values[idx - 1] == quantized:
            idx -= 1
        return uint_to_bits(int(patterns[idx]), self.n)

    def format_to_real(self, bits: Bitstring) -> float:
        validate_bits(bits, self.n)
        return _decode_pattern(bits_to_uint(bits), self.n, self.es)
