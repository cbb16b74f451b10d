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
fields, so for the supported widths (``n <= 16``) conversion starts from an
exact, cached value table: all ``2^n`` patterns are decoded once, and the
search kernel picks the nearest table value with the standard's two special
rules (nonzero never rounds to zero, and magnitudes saturate at ``maxpos``:
finite inputs past it are clamped before the search, so they land on
``maxpos`` as ±inf does; NaN becomes 0).  An exact midpoint between two
neighbours goes to the lower one (toward −∞: 1.09375 → 1.0625, pattern 0x41,
and −1.03125 → −1.0625 in posit(8,1)), not to the even pattern the standard
asks for; EXPERIMENTS.md lists this under its known deviations.

The search kernel is a step function of its float32 input that steps only at
the midpoints between neighbouring posits.  When every such midpoint is a
float32 whose low 16 bits are zero, each 16-bit *key* (the top half of a
float32's encoding) holds at most one step, at its first float32, so the
whole kernel is a 2 × 65,536-entry table: one slot for the key's first
float32 and one for all its others, both filled by the search kernel itself
on first use.  Quantizing is then one gather.  23 posits qualify, among them
every ``es <= 2`` posit up to 9 bits, posit(10,1), posit(10,2) and
posit(11,2); the others (posit16, or posit(8,3), whose midpoint between
2^40 and 2^48 needs 9 significant bits) keep the search.
"""

from __future__ import annotations

import numpy as np

from .base import NumberFormat
from .bitstring import Bitstring, bits_to_uint, uint_to_bits, validate_bits

__all__ = ["Posit"]

#: cache of (n, es) -> (sorted values, patterns aligned with values)
_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

#: cache of (n, es) -> the quantizer over float32 keys, or None when some
#: midpoint between neighbouring posits is not a key boundary
_KEY_TABLES: dict[tuple[int, int], np.ndarray | None] = {}

#: float64's largest finite power of two is 2^1023
_FLOAT64_MAX_SCALE = np.finfo(np.float64).maxexp - 1


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


def _key_index(x: np.ndarray) -> np.ndarray:
    """Key-table slot of each float32: ``2k`` for ``k << 16`` itself, else ``2k + 1``.

    ``u >> 15`` is ``2k`` plus bit 15; OR-ing in whether bits 0-14 are
    nonzero makes the low bit "the low half is nonzero".
    """
    u = x.view(np.uint32)
    idx = u >> 15
    idx |= (u & 0x7FFF) != 0
    return idx


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
        if (n - 2) << es > _FLOAT64_MAX_SCALE:
            raise ValueError(
                f"posit({n},{es}) has maxpos 2^{(n - 2) << es}, past float64's "
                f"largest power of two 2^{_FLOAT64_MAX_SCALE}")
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
    def _search(self, x: np.ndarray) -> np.ndarray:
        """Nearest posit (float64) to each float64 of the 1-D ``x``."""
        values, _ = _table(self.n, self.es)
        # NaN -> 0 (NaR has no real value; the fabric write-back needs one)
        clean = np.nan_to_num(x, nan=0.0, posinf=self.maxpos, neginf=-self.maxpos)
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
        return np.where(tiny, np.sign(clean) * self.minpos, nearest)

    def _key_table(self) -> np.ndarray | None:
        """The search kernel over float32 keys (see the module docstring)."""
        key = (self.n, self.es)
        if key not in _KEY_TABLES:
            values, _ = _table(self.n, self.es)
            lo, hi = values[:-1], values[1:]
            total = lo + hi
            mid = total / 2
            with np.errstate(over="ignore"):
                mid32 = mid.astype(np.float32)
            # each midpoint is exact in float64 (no rounding error in either
            # neighbour's share of the sum) and a float32 key boundary
            on_keys = ((total - lo == hi) & (total - hi == lo) & (mid32 == mid)
                       & ((mid32.view(np.uint32) & 0xFFFF) == 0)).all()
            table = None
            if on_keys:
                keys = np.arange(1 << 16, dtype=np.uint32) << 16
                probes = np.stack([keys, keys | 1], axis=1).view(np.float32)
                with np.errstate(invalid="ignore"):  # signalling-NaN probes
                    probes = probes.reshape(-1).astype(np.float64)
                table = self._search(probes).astype(np.float32)
            _KEY_TABLES[key] = table
        return _KEY_TABLES[key]

    def _quantize(self, x: np.ndarray) -> np.ndarray:
        """Nearest posits to the float32 ``x`` as C-ordered float32; books nothing."""
        table = self._key_table()
        if table is not None:
            # every slot is in range; a mode other than "raise" lets take
            # write into out without buffering it
            return table.take(_key_index(x), mode="clip",
                              out=np.empty(x.shape, np.float32))
        x64 = x.astype(np.float64).reshape(-1)
        return self._search(x64).reshape(x.shape).astype(np.float32)

    def _patterns(self, quantized: np.ndarray) -> np.ndarray:
        """Pattern of each quantizer output (a posit value, or its float32)."""
        values, patterns = _table(self.n, self.es)
        return patterns[np.minimum(np.searchsorted(values, quantized), len(values) - 1)]

    def encode_tensor(self, tensor: np.ndarray) -> np.ndarray:
        """Patterns :meth:`real_to_format` gives each value (NaN -> NaR), as int64.

        Runs the quantizer's own kernel and books no stats-sink conversion.
        """
        x = np.asarray(tensor, dtype=np.float32)
        return np.where(np.isnan(x), np.int64(1 << (self.n - 1)),
                        self._patterns(self._quantize(x)))

    def real_to_format_tensor(self, tensor: np.ndarray) -> np.ndarray:
        x = np.asarray(tensor, dtype=np.float32)
        result = self._quantize(x)
        if self.stats_sink is not None:
            # |x| > maxpos saturates (±inf included; NaN compares False);
            # posits never flush — a nonzero value never rounds to zero
            saturated = int(np.count_nonzero(np.abs(x) > np.float64(self.maxpos)))
            nan_remapped = int(np.count_nonzero(np.isnan(x)))
            # the booked input has been through float64, as the search
            # kernel reads it (a signalling NaN comes back quiet)
            self.stats_sink.record(self, x.astype(np.float64).astype(np.float32),
                                   result, saturated=saturated, flushed=0,
                                   nan_remapped=nan_remapped)
        return result

    # ------------------------------------------------------------------
    # scalar path
    # ------------------------------------------------------------------
    def real_to_format(self, value: float) -> Bitstring:
        pattern = self.encode_tensor(np.float32([float(value)]))[0]
        return uint_to_bits(int(pattern), self.n)

    def format_to_real(self, bits: Bitstring) -> float:
        validate_bits(bits, self.n)
        return _decode_pattern(bits_to_uint(bits), self.n, self.es)
