"""Block floating point (BFP) with a shared per-block exponent register.

A BFP tensor stores, per block of ``block_size`` values, one shared exponent
plus per-element sign-magnitude mantissas (§II-A).  The shared exponent is the
exponent of the block's largest magnitude; smaller elements are represented on
that coarse grid, which is why "the resolution of low magnitude numbers may
suffer, by being essentially rounded to zero" when the block is large (§IV-B).

Unlike QPyTorch's BFP, the exponent width is a free parameter (the paper calls
out the pegged-at-8-bits limitation it fixed), and the shared exponents are
first-class *metadata registers*: flipping one bit of a shared exponent
rescales every value in the block — the multi-bit-flip equivalence that makes
hardware-aware injection different from value injection (§II-B).

Element layout: ``[sign | mantissa]`` (``1 + mantissa_bits`` bits).  An
element value is ``(-1)^sign * mantissa * 2^(E - mantissa_bits + 1)`` where
``E`` is the block's shared exponent.

Rounding-carry semantics
------------------------
The shared exponent starts at ``floor(log2(peak))`` of the block's largest
finite magnitude.  Round-to-nearest can then *carry*: a peak just below the
next power of two (e.g. ``63.875`` with a 7-bit mantissa) rounds to
``max_mantissa + 1``, which does not fit in the mantissa field.  When that
happens the block's shared exponent is incremented by one (re-clamped to the
exponent-register range) and every mantissa in the block is re-rounded on the
coarser grid, exactly as a hardware normalise-after-round stage would.  This
preserves the half-granularity error bound ``|x - q(x)| <= gran/2`` for every
in-range value (§II-A).  Only when the register is already saturated at
``max_exp_field`` does the mantissa clip instead (true dynamic-range
saturation, not a rounding artefact).  The scalar :meth:`real_to_format` path
never carries: its block exponent is fixed metadata captured by the tensor
pass, so values that would overflow the mantissa field saturate against the
register — matching bit-for-bit what the tensor pass stored (see the
scalar↔tensor parity tests).

Exactness
---------
Every granularity is a power of two ``2^k``, so multiplying by the
reciprocal ``2^-k`` gives the same bits as dividing by ``2^k`` (both are one
correctly rounded step from the same real value).  The tensor pass therefore
scales instead of dividing.  It runs on one signed float32 working copy of
the input (``x + 0.0``, which turns -0.0 into +0.0 as ``np.sign(-0.0)``
does): multiply by ``2^-k``, ``rint``, clip to ±``max_mantissa``, multiply
by ``2^k``.  While 2^k and 2^-k are both finite float32s (every block's
``-127 <= k <= 127``) and ``max_mantissa`` fits float32's 24-bit
significand, each step gives the float64 computation's bits: a scaled value
is exact unless it falls below 2^-126, where it rounds to mantissa 0 either
way, or overflows to ±inf, which saturates like the huge float64 it stands
for; and the rescaled mantissa rounds once, as the float64 product does
when it is cast to float32.  A tensor with a block outside that range (an
exponent register wider than 8 bits over subnormal peaks, or a 1-bit
mantissa that carries past 2^127), or a mantissa wider than 24 bits, takes
the float64 pass, which multiplies ``|x|`` in float64, rounds the product
once into float32 and applies the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import MetadataError, NumberFormat
from .bitstring import Bitstring, bits_to_uint, uint_to_bits, validate_bits

__all__ = ["BlockFloatingPoint", "BfpMetadata"]


def _float32_pass(mantissa_bits: int, k: np.ndarray) -> bool:
    """Whether the float32 pass gives the float64 pass's bits (see "Exactness").

    ``k`` holds each block's granularity exponent: 2^k and 2^-k must both be
    finite float32s, and ``max_mantissa`` must fit float32's 24-bit significand.
    """
    return mantissa_bits <= 24 and -127 <= k.min() and k.max() <= 127


def _block_peaks(magnitude: np.ndarray) -> np.ndarray:
    """Per-row maximum of a (blocks, block_size) array, as float64.

    numpy reduces short rows one row at a time, so small blocks are folded
    column by column instead (NaN propagates either way).
    """
    if magnitude.shape[1] > 64:
        return magnitude.max(axis=1).astype(np.float64)
    peak = magnitude[:, 0].copy()
    for j in range(1, magnitude.shape[1]):
        np.maximum(peak, magnitude[:, j], out=peak)
    return peak.astype(np.float64)


@dataclass
class BfpMetadata:
    """Hardware state of one converted BFP tensor."""

    #: raw exponent register fields, one per block (unsigned, ``exp_bits`` wide)
    exp_fields: np.ndarray
    #: elements per block (last block may be partial)
    block_size: int
    #: total element count of the converted tensor
    numel: int

    def copy(self) -> "BfpMetadata":
        return BfpMetadata(self.exp_fields.copy(), self.block_size, self.numel)


class BlockFloatingPoint(NumberFormat):
    """Sign-magnitude mantissas sharing per-block exponent registers."""

    kind = "bfp"
    has_metadata = True

    def __init__(self, exp_bits: int = 8, mantissa_bits: int = 7,
                 block_size: int | None = None):
        if exp_bits < 2:
            raise ValueError(f"need at least 2 exponent bits, got {exp_bits}")
        if mantissa_bits < 1:
            raise ValueError(f"need at least 1 mantissa bit, got {mantissa_bits}")
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1 or None, got {block_size}")
        # element bit width: sign + mantissa (exponent lives in metadata)
        super().__init__(bit_width=1 + mantissa_bits, radix=mantissa_bits)
        self.exp_bits = int(exp_bits)
        self.mantissa_bits = int(mantissa_bits)
        self.block_size = block_size
        self.exp_bias = (1 << (exp_bits - 1)) - 1
        self.max_exp_field = (1 << exp_bits) - 1
        self.max_mantissa = (1 << mantissa_bits) - 1

    def config(self) -> dict:
        return {
            "exp_bits": self.exp_bits,
            "mantissa_bits": self.mantissa_bits,
            "block_size": self.block_size,
        }

    @property
    def name(self) -> str:
        block = "tensor" if self.block_size is None else str(self.block_size)
        return f"bfp(e{self.exp_bits}m{self.mantissa_bits},b={block})"

    # ------------------------------------------------------------------
    # block helpers
    # ------------------------------------------------------------------
    def _block_of(self, flat_index):
        """Block register holding each flat position (an int or an int array)."""
        meta = self._require_metadata()
        index = np.asarray(flat_index)
        outside = (index < 0) | (index >= meta.numel)
        if outside.any():
            raise IndexError(f"flat index {index[outside].flat[0]} outside "
                             f"tensor of {meta.numel} elements")
        return index // meta.block_size

    def _shared_exponent(self, block: int) -> int:
        meta = self._require_metadata()
        return int(meta.exp_fields[block]) - self.exp_bias

    def _granularity(self, block: int) -> float:
        return 2.0 ** (self._shared_exponent(block) - self.mantissa_bits + 1)

    # ------------------------------------------------------------------
    # tensor path
    # ------------------------------------------------------------------
    def real_to_format_tensor(self, tensor: np.ndarray) -> np.ndarray:
        x = np.asarray(tensor, dtype=np.float32)
        numel = x.size
        block_size = self.block_size or max(numel, 1)
        num_blocks = max((numel + block_size - 1) // block_size, 1)
        # one C-ordered float32 working copy, zero-padded for a partial last
        # block; + 0.0 turns -0.0 into +0.0 (as np.sign(-0.0) does) and
        # changes no other value
        if num_blocks * block_size == numel:
            blocks = np.add(x, 0.0, order="C").reshape(num_blocks, block_size)
        else:
            blocks = np.zeros((num_blocks, block_size), dtype=np.float32)
            np.add(x, 0.0, out=blocks.reshape(-1)[:numel].reshape(x.shape))

        # shared exponent from finite magnitudes only (upstream faults may
        # have produced inf/NaN, which must not blow up the exponent register)
        magnitude = np.abs(blocks)
        peak = _block_peaks(magnitude)
        finite = None
        if not np.isfinite(peak).all():
            finite = np.isfinite(blocks)
            peak = _block_peaks(np.where(finite, magnitude, 0.0))
        with np.errstate(divide="ignore"):
            _, raw_exp = np.frexp(peak)
        shared_exp = raw_exp - 1  # floor(log2 peak); all-zero blocks masked below
        exp_fields = np.clip(shared_exp + self.exp_bias, 0, self.max_exp_field).astype(np.int64)
        shared_exp = exp_fields - self.exp_bias  # after clamping to the register range

        # rounding carry (see module docstring): when the block peak rounds to
        # max_mantissa + 1, bump the shared exponent instead of clipping so the
        # gran/2 error bound holds.  One bump always suffices: after doubling
        # the granularity the peak rounds to <= 2^(mantissa_bits - 1).
        granularity_1d = np.exp2(shared_exp - self.mantissa_bits + 1)
        carry = np.round(peak / granularity_1d) > self.max_mantissa
        bump = carry & (exp_fields < self.max_exp_field)
        if bump.any():
            exp_fields = exp_fields + bump.astype(np.int64)
            shared_exp = exp_fields - self.exp_bias

        self.metadata = BfpMetadata(exp_fields=exp_fields, block_size=block_size, numel=numel)

        # each block's granularity is 2^k; NaN has no sign-magnitude
        # encoding and is stored as +0
        k = shared_exp - self.mantissa_bits + 1
        nan = np.isnan(blocks) if finite is not None else None
        sink = self.stats_sink
        float32 = _float32_pass(self.mantissa_bits, k)
        if float32:
            # signed mantissas, scaled in place in the working copy
            mantissas = blocks if sink is None else blocks.copy()
            mantissas *= np.exp2(-k).astype(np.float32)[:, None]
        else:
            granularity = np.exp2(k)[:, None]
            mantissas = np.multiply(magnitude, 1.0 / granularity)
        np.rint(mantissas, out=mantissas)
        if sink is not None:
            # raw mantissa past the register's reach = true dynamic-range
            # saturation (inf included via inf > max; NaN > max is False);
            # padding zeros round to mantissa 0 and contribute nothing.
            saturated = int(np.count_nonzero(np.abs(mantissas) > self.max_mantissa))
        # ±inf saturates at ±max_mantissa; NaN stays NaN until remapped below
        np.clip(mantissas, -self.max_mantissa, self.max_mantissa, out=mantissas)
        if sink is not None:
            flushed = int(np.count_nonzero(
                (mantissas == 0) & (blocks != 0.0)
                & (np.isfinite(blocks) if finite is None else finite)))
        if float32:
            quantized = mantissas
            quantized *= np.exp2(k).astype(np.float32)[:, None]
        else:
            # the exact float64 product rounds once, into the float32 result
            quantized = np.multiply(mantissas, granularity, casting="same_kind",
                                    out=np.empty(blocks.shape, dtype=np.float32))
            # sign-magnitude: sign(+0.0) is +0, while a negative value
            # flushed to mantissa 0 becomes -0.0
            quantized *= np.sign(blocks)
        if nan is not None:
            quantized[nan] = 0.0
        zero_block = peak == 0.0
        if zero_block.any():
            quantized[zero_block] = 0.0
        result = quantized.reshape(-1)[:numel].reshape(x.shape)
        if sink is not None:
            nan_remapped = int(np.count_nonzero(nan)) if nan is not None else 0
            sink.record(self, x, result,
                        saturated=saturated, flushed=flushed,
                        nan_remapped=nan_remapped)
        return result

    # ------------------------------------------------------------------
    # scalar path ([sign | mantissa], block-relative)
    # ------------------------------------------------------------------
    def real_to_format(self, value: float, block: int = 0) -> Bitstring:
        """Encode ``value`` as it would be stored in ``block``.

        The shared exponent is metadata, so the element bitstring depends on
        which block the value lives in — scalar calls therefore take the block
        index (default 0, i.e. whole-tensor sharing).
        """
        granularity = self._granularity(block)
        value = float(value)
        if np.isnan(value):
            # sign-magnitude has no NaN encoding; the tensor path remaps NaN
            # to +0 (np.sign of a NaN block element is forced to 0), so the
            # scalar encoder stores sign 0 / mantissa 0 rather than crashing
            return [0] + uint_to_bits(0, self.mantissa_bits)
        # signbit, not ``< 0``: a -0.0 victim keeps its sign bit, matching
        # the tensor path which preserves signed zeros in quantized outputs
        sign = 1 if np.signbit(value) else 0
        mant = int(np.clip(np.round(abs(value) / granularity), 0, self.max_mantissa))
        return [sign] + uint_to_bits(mant, self.mantissa_bits)

    def format_to_real(self, bits: Bitstring, block: int = 0) -> float:
        validate_bits(bits, self.bit_width)
        sign = -1.0 if bits[0] else 1.0
        mant = bits_to_uint(bits[1:])
        return float(sign * mant * self._granularity(block))

    # ------------------------------------------------------------------
    # metadata registers (one exponent register per block)
    # ------------------------------------------------------------------
    def num_metadata_registers(self) -> int:
        if self.metadata is None:
            return 0
        return len(self.metadata.exp_fields)

    def metadata_register_width(self) -> int:
        return self.exp_bits

    def get_metadata_bits(self, register: int = 0) -> Bitstring:
        meta = self._require_metadata()
        if not 0 <= register < len(meta.exp_fields):
            raise IndexError(f"block {register} out of range ({len(meta.exp_fields)} blocks)")
        return uint_to_bits(int(meta.exp_fields[register]), self.exp_bits)

    def set_metadata_bits(self, bits: Bitstring, register: int = 0) -> None:
        meta = self._require_metadata()
        validate_bits(bits, self.exp_bits)
        if not 0 <= register < len(meta.exp_fields):
            raise IndexError(f"block {register} out of range ({len(meta.exp_fields)} blocks)")
        meta.exp_fields[register] = bits_to_uint(bits)

    def apply_metadata_corruption(self, tensor: np.ndarray,
                                  original_metadata: BfpMetadata) -> np.ndarray:
        """Rescale each block by ``2^(E_new - E_old)``.

        A flipped shared-exponent bit is *read by every element of the block*,
        so in value space the whole block shifts by a power of two — a single
        metadata flip behaving as a tensor-wide multi-bit flip (§II-B).
        """
        if original_metadata is None:
            raise MetadataError("original metadata required")
        meta = self._require_metadata()
        x = np.asarray(tensor, dtype=np.float32)
        delta = (meta.exp_fields - original_metadata.exp_fields).astype(np.float64)
        flat = x.reshape(-1).astype(np.float64)
        padded = np.zeros(len(meta.exp_fields) * meta.block_size, dtype=np.float64)
        padded[: flat.size] = flat
        scaled = padded.reshape(len(meta.exp_fields), meta.block_size) * np.exp2(delta)[:, None]
        with np.errstate(over="ignore"):
            # a large corrupted exponent may legitimately overflow FP32 to inf
            return scaled.reshape(-1)[: flat.size].reshape(x.shape).astype(np.float32)
