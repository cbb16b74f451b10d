"""Vectorized encode → flip → decode kernels for batched error injection.

The paper's injection routine (§III-B) is scalar: ``real_to_format`` one
victim value, flip bits in the bitstring, ``format_to_real`` it back.  A
batched campaign applies the *same* flip at the same activation site of every
sample in the batch (PyTorchFI's batched-injection semantics), which makes
the scalar loop the hot path.  This module provides :func:`flip_values`, a
single-pass numpy implementation of the same semantics — the QPyTorch-style
"vectorize the quantization kernel" optimisation:

* native FP32 fabric (``fmt is None``) — reinterpret the float32 batch as
  ``uint32``, XOR one mask, reinterpret back;
* :class:`~repro.formats.bfp.BlockFloatingPoint` — closed-form
  sign/mantissa arithmetic under each element's block register;
* :class:`~repro.formats.fp.FloatingPoint` /
  :class:`~repro.formats.afp.AdaptivFloat` — one kernel, :func:`_flip_fp`,
  run in the format's exponent window (AFP's is that of its captured bias):
  bulk field extraction (sign/exponent/mantissa) in int64, one packed XOR,
  bulk decode; a window whose top lies past float64 takes the scalar
  fallback, and a binary32 ``FloatingPoint`` (e8m23 with denormals) takes
  the FP32 fabric's XOR whenever every victim is finite and no result is
  NaN;
* :class:`~repro.formats.intq.IntegerQuant` /
  :class:`~repro.formats.fxp.FixedPoint` — bulk two's-complement codes,
  one packed XOR, sign-extend, rescale;
* :class:`~repro.formats.posit.Posit` — patterns from the quantizer's own
  kernel (:meth:`~repro.formats.posit.Posit.encode_tensor`), pattern XOR,
  decode through a cached all-patterns table;
* anything else — scalar fallback memoized over unique float32 *bit
  patterns* (not values: ``np.unique`` on floats collapses NaNs by rules
  that changed across numpy versions, and collapses ``-0.0`` with ``0.0``,
  both of which break bit-exact parity with the scalar kernel).

Every path is bit-for-bit equivalent to the scalar :func:`flip_value` (see
``tests/test_injection.py`` parity coverage, including NaN, ``-0.0`` and
``±inf`` victims), with one exception: when a flip on the FP32 fabric
produces a signalling NaN, the fabric's XOR keeps it, while
:func:`flip_value` returns it quiet (its decode goes through a Python
float).  Flipping bits 0 and 2 of 2e19 gives ``0xFF8AC723`` here and
``0xFFCAC723`` there.

Neuron, weight and gradient corruptions all run through these kernels
(:mod:`repro.core.injection`); :func:`flip_value` is the reference they
are tested against and the fallback for what no fused kernel serves.

Multi-fault batching
--------------------
:func:`flip_values_batched` extends the same kernels to K *independent*
injections in one call: the input is K equal-length lane slices concatenated
along axis 0, and lane ``k``'s bit positions apply only to its own slice.
Internally every fused kernel XORs a per-element mask array, so K
heterogeneous flips cost one kernel pass — the hot path of
:meth:`repro.core.goldeneye.GoldenEye.forward_from_batched`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .afp import AdaptivFloat
from .base import NumberFormat
from .bfp import BlockFloatingPoint
from .bitstring import apply_bit_op, bits_to_float32, float32_to_bits
from .fp import ExpWindow, FloatingPoint
from .fxp import FixedPoint
from .intq import IntegerQuant
from .posit import Posit, _decode_pattern

__all__ = ["flip_value", "flip_values", "flip_values_batched"]

#: widest packed word the int64 kernels can XOR without overflow
_MAX_FUSED_WIDTH = 62

#: cache of (n, es) -> all 2^n decoded posit values (NaR decodes to NaN)
_POSIT_DECODE: dict[tuple[int, int], np.ndarray] = {}


def flip_value(fmt: NumberFormat | None, value: float,
               bit_positions: Sequence[int], block: int = 0,
               op: str = "xor") -> float:
    """Encode → corrupt → decode one value under ``fmt`` (FP32 fabric if None).

    ``op`` selects the corruption: ``"xor"`` flips the bits (the transient
    SEU model), ``"set"`` / ``"clear"`` force them to 1 / 0 (stuck-at).
    The paper's routine on one value, through ``real_to_format`` and
    ``format_to_real``: the reference the fused kernels are pinned to, and
    the fallback for a format no fused kernel serves.
    """
    if fmt is None:
        bits = apply_bit_op(float32_to_bits(value), bit_positions, op)
        return bits_to_float32(bits)
    if isinstance(fmt, BlockFloatingPoint):
        bits = apply_bit_op(fmt.real_to_format(value, block=block),
                            bit_positions, op)
        return fmt.format_to_real(bits, block=block)
    bits = apply_bit_op(fmt.real_to_format(value), bit_positions, op)
    return fmt.format_to_real(bits)


def flip_values(fmt: NumberFormat | None, values: np.ndarray,
                bit_positions: Sequence[int],
                blocks: np.ndarray | None = None,
                op: str = "xor") -> np.ndarray:
    """Apply the same bit corruption to every element of ``values`` in one pass.

    The one-lane call of :func:`flip_values_batched`.

    Parameters
    ----------
    fmt:
        The victim layer's number format (``None`` = native FP32 fabric).
    values:
        1-D float array of victim values, one per batch sample.
    bit_positions:
        MSB-first bit indices to corrupt (position 0 is the sign bit).
    blocks:
        For block formats: per-element block-register index (same length as
        ``values``); ignored otherwise.
    op:
        ``"xor"`` flips the bits; ``"set"`` / ``"clear"`` force them to
        1 / 0 (the stuck-at fault model).

    Returns
    -------
    ``float32`` array of corrupted values, same shape as ``values``.
    """
    return flip_values_batched(fmt, values, [bit_positions], blocks=blocks,
                               op=op)


def flip_values_batched(fmt: NumberFormat | None, values: np.ndarray,
                        lane_bits: Sequence[Sequence[int]],
                        blocks: np.ndarray | None = None,
                        op: str = "xor") -> np.ndarray:
    """Apply K independent flips to the K equal lane slices of ``values``.

    ``values`` holds K lane slices concatenated along axis 0 (lane ``k`` is
    ``values[k * B : (k + 1) * B]`` for ``B = len(values) // K``), and
    ``lane_bits[k]`` names the MSB-first bit positions flipped in lane ``k``
    only.  ``blocks``, when given, is per-element (already lane-concatenated)
    exactly like ``values``.  :func:`flip_values` is its one-lane call.
    ``op`` applies to every lane (a campaign runs one fault model).

    Every bit position is validated (``IndexError``) before any lane is
    corrupted, so errors surface in the same order as K sequential
    :func:`flip_values` calls.
    """
    flat = np.asarray(values, dtype=np.float32).reshape(-1)
    lanes = [tuple(bits) for bits in lane_bits]
    if not lanes:
        raise ValueError("lane_bits must describe at least one lane")
    if flat.size % len(lanes):
        raise ValueError(
            f"cannot split {flat.size} values into {len(lanes)} equal lanes")
    lane_size = flat.size // len(lanes)
    width = 32 if fmt is None else fmt.bit_width
    lane_masks = [_xor_mask(bits, width) for bits in lanes]
    # one lane keeps a scalar mask: the K=1 hot path builds no mask array
    masks = (lane_masks[0] if len(lanes) == 1 else
             np.repeat(np.asarray(lane_masks, dtype=np.int64), lane_size))
    out = _flip_fused(fmt, flat, masks, blocks, op)
    if out is not None:
        return out
    out = np.empty(flat.size, dtype=np.float32)
    for k, bits in enumerate(lanes):
        lane = slice(k * lane_size, (k + 1) * lane_size)
        out[lane] = _flip_memoized(fmt, flat[lane], bits, op)
    return out


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def _xor_mask(bit_positions: Sequence[int], width: int) -> int:
    """The XOR mask of ``bit_positions`` over a ``width``-bit word (MSB first).

    Validates every position up front so an out-of-range bit raises before
    any value is corrupted — matching the scalar kernel's error behaviour.
    """
    mask = 0
    for b in bit_positions:
        if not 0 <= b < width:
            raise IndexError(
                f"bit position {b} out of range for {width}-bit value")
        mask |= 1 << (width - 1 - b)
    return mask


def _apply_masks(packed, masks, op: str):
    """Apply ``op`` (xor / set / clear) at the packed-word level.

    Every fused kernel funnels its encoded words through here, so one
    dispatch point covers all three fault operations for every format
    family.  ``masks`` may be one int or a per-element array; the packed
    words always fit in the format's width, so ``& ~masks`` (clear) never
    touches bits above the word.
    """
    if op == "set":
        return packed | masks
    if op == "clear":
        return packed & ~masks
    if op != "xor":
        raise ValueError(f"unknown bit operation {op!r}; valid: xor, set, clear")
    return packed ^ masks


def _flip_fused(fmt: NumberFormat | None, values: np.ndarray, masks,
                blocks: np.ndarray | None, op: str = "xor"
                ) -> np.ndarray | None:
    """Route to the fused kernel for ``fmt``; None = no fused kernel applies.

    ``masks`` is either one int (the same flip for every element) or a
    per-element int64 array (multi-fault batching) — every kernel below is a
    single :func:`_apply_masks` call away from supporting both, and ``op``
    generalizes that call to set/clear for the stuck-at fault model.
    """
    if fmt is None:
        return _flip_fp32_fabric(values, masks, op)
    if isinstance(fmt, BlockFloatingPoint):
        return _flip_bfp(fmt, values, masks, blocks, op)
    if fmt.bit_width > _MAX_FUSED_WIDTH:
        return None  # packed int64 arithmetic would overflow
    if isinstance(fmt, (FloatingPoint, AdaptivFloat)):
        window = fmt.window
        if not np.isfinite(window.max_value):
            return None  # decoding past float64 needs the saturating codec
        if isinstance(fmt, AdaptivFloat):
            return _flip_fp(fmt, values, masks, op, window,
                            specials=False, signed_zero=False)
        if fmt.binary32:
            # the encoder saturates ±inf and the decoder canonicalises NaN;
            # on every other lane encode → flip → decode is the fabric's
            out = _flip_fp32_fabric(values, masks, op)
            if np.isfinite(values).all() and not np.isnan(out).any():
                return out
        return _flip_fp(fmt, values, masks, op, window)
    if isinstance(fmt, IntegerQuant):
        return _flip_intq(fmt, values, masks, op)
    if isinstance(fmt, FixedPoint):
        return _flip_fxp(fmt, values, masks, op)
    if isinstance(fmt, Posit):
        return _flip_posit(fmt, values, masks, op)
    return None


# ----------------------------------------------------------------------
# native FP32: one XOR over the reinterpreted batch
# ----------------------------------------------------------------------
def _flip_fp32_fabric(values: np.ndarray, masks, op: str = "xor") -> np.ndarray:
    raw = _apply_masks(values.view(np.uint32),
                       np.asarray(masks, dtype=np.uint32), op)
    return raw.view(np.float32).copy()


# ----------------------------------------------------------------------
# BFP: closed-form sign/mantissa arithmetic under the block registers
# ----------------------------------------------------------------------
def _flip_bfp(fmt: BlockFloatingPoint, values: np.ndarray, masks,
              blocks: np.ndarray | None, op: str = "xor") -> np.ndarray:
    meta = fmt._require_metadata()
    if blocks is None:
        blocks = np.zeros(values.size, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64).reshape(-1)
    shared_exp = meta.exp_fields[blocks] - fmt.exp_bias
    gran = np.exp2(shared_exp.astype(np.float64) - fmt.mantissa_bits + 1)

    v64 = values.astype(np.float64)
    mant = np.round(np.abs(v64) / gran)
    mant = np.nan_to_num(mant, nan=0.0, posinf=float(fmt.max_mantissa))
    mant = np.clip(mant, 0, fmt.max_mantissa).astype(np.int64)
    # sign via signbit so a -0.0 victim keeps its sign bit, exactly like the
    # scalar encoder; NaN has no sign-magnitude encoding (sign 0, mantissa 0)
    nan_mask = np.isnan(v64)
    sign = (np.signbit(v64) & ~nan_mask).astype(np.int64)

    packed = (sign << fmt.mantissa_bits) | mant
    packed = _apply_masks(packed, masks, op)
    sign = packed >> fmt.mantissa_bits
    mant = packed & fmt.max_mantissa

    out = np.where(sign == 1, -1.0, 1.0) * mant * gran
    return out.astype(np.float32)


# ----------------------------------------------------------------------
# FloatingPoint and AdaptivFloat: bulk [sign | exponent | mantissa] fields
# in an exponent window
# ----------------------------------------------------------------------
def _flip_fp(fmt, values: np.ndarray, masks, op: str, window: ExpWindow,
             specials: bool = True, signed_zero: bool = True) -> np.ndarray:
    """Encode → corrupt → decode in ``window``, as the scalar codec does.

    ``specials``: the all-ones exponent holds ±inf/NaN (else a NaN victim
    raises ``ValueError``); ``signed_zero``: -0.0 keeps its sign bit.
    """
    e, m = fmt.exp_bits, fmt.mantissa_bits
    min_exp, max_value, bias = window
    v64 = values.astype(np.float64)
    nan_mask = np.isnan(v64)
    if not specials and nan_mask.any():
        raise ValueError(f"{fmt.name} has no NaN encoding")
    negative = np.signbit(v64) if signed_zero else v64 < 0
    sign = (negative & ~nan_mask).astype(np.int64)
    mag = np.where(nan_mask, 0.0, np.abs(v64))
    mag = np.minimum(mag, max_value)  # conversion saturates inf/overflow
    with np.errstate(divide="ignore"):
        exp = np.floor(np.log2(mag))
    exp = np.maximum(exp, min_exp).astype(np.int64)
    gran = np.exp2((exp - m).astype(np.float64))
    code = np.round(mag / gran).astype(np.int64)
    carry = code >= (1 << (m + 1))  # rounding carried to the next exponent
    exp = exp + carry
    code = np.where(carry, code >> 1, code)
    top_field = (1 << e) - 1 - int(specials)
    normal = (code >= (1 << m)) & (exp + bias <= top_field)
    exp_field = np.where(normal, exp + bias, 0)
    mant = np.where(normal, code - (1 << m), np.minimum(code, (1 << m) - 1))
    if not fmt.denormals:
        flush = ~normal
        exp_field = np.where(flush & (mag >= 2.0 ** min_exp / 2), 1,
                             exp_field)
        mant = np.where(flush, 0, mant)
    if specials:
        exp_field = np.where(nan_mask, (1 << e) - 1, exp_field)
        mant = np.where(nan_mask, (1 << m) - 1, mant)

    packed = (sign << (e + m)) | (exp_field << m) | mant
    packed = _apply_masks(packed, masks, op)

    sign_bit = (packed >> (e + m)) & 1
    sign_f = np.where(sign_bit == 1, -1.0, 1.0)
    ef = (packed >> m) & ((1 << e) - 1)
    mf = packed & ((1 << m) - 1)
    if fmt.denormals:
        denorm_val = mf.astype(np.float64) * (2.0 ** (min_exp - m))
    else:
        denorm_val = np.float64(0.0)
    with np.errstate(over="ignore"):
        normal_val = (1.0 + mf / (1 << m)) * np.exp2(
            (ef - bias).astype(np.float64))
    out = sign_f * np.where(ef == 0, denorm_val, normal_val)
    if specials:
        all_ones = ef == (1 << e) - 1
        out = np.where(all_ones, sign_f * np.inf, out)
        out = np.where(all_ones & (mf != 0), np.nan, out)
    return out.astype(np.float32)


# ----------------------------------------------------------------------
# IntegerQuant / FixedPoint: bulk two's-complement codes
# ----------------------------------------------------------------------
def _twos_complement_flip(codes: np.ndarray, masks, width: int,
                          op: str = "xor") -> np.ndarray:
    """Apply ``masks`` to ``width``-bit two's-complement codes, sign-extended."""
    u = codes & ((1 << width) - 1)
    u = _apply_masks(u, masks, op) & ((1 << width) - 1)
    return u - ((u >> (width - 1)) << width)


def _flip_intq(fmt: IntegerQuant, values: np.ndarray, masks,
               op: str = "xor") -> np.ndarray:
    scale = fmt.scale
    raw = np.round(values.astype(np.float64) / scale)
    # integer pipelines carry no NaN; overflow saturates (scalar semantics)
    raw = np.nan_to_num(raw, nan=0.0, posinf=fmt.max_code, neginf=-fmt.max_code)
    codes = np.clip(raw, -fmt.max_code, fmt.max_code).astype(np.int64)
    flipped = _twos_complement_flip(codes, masks, fmt.bit_width, op)
    return (flipped.astype(np.float64) * scale).astype(np.float32)


def _flip_fxp(fmt: FixedPoint, values: np.ndarray, masks,
              op: str = "xor") -> np.ndarray:
    if np.isnan(values).any():
        raise ValueError("cannot encode NaN in a fixed-point format")
    codes = np.round(values.astype(np.float64) / fmt.scale)
    codes = np.clip(codes, fmt.min_code, fmt.max_code).astype(np.int64)
    flipped = _twos_complement_flip(codes, masks, fmt.bit_width, op)
    return (flipped.astype(np.float64) * fmt.scale).astype(np.float32)


# ----------------------------------------------------------------------
# Posit: the quantizer's patterns, pattern XOR, table decode
# ----------------------------------------------------------------------
def _posit_decode_table(n: int, es: int) -> np.ndarray:
    key = (n, es)
    if key not in _POSIT_DECODE:
        _POSIT_DECODE[key] = np.array(
            [_decode_pattern(p, n, es) for p in range(1 << n)],
            dtype=np.float64)
    return _POSIT_DECODE[key]


def _flip_posit(fmt: Posit, values: np.ndarray, masks,
                op: str = "xor") -> np.ndarray:
    # the scalar encoder's patterns, from the quantizer's own kernel
    pattern = _apply_masks(fmt.encode_tensor(values), masks, op)
    return _posit_decode_table(fmt.n, fmt.es)[pattern].astype(np.float32)


# ----------------------------------------------------------------------
# generic formats: scalar kernel memoized over unique bit patterns
# ----------------------------------------------------------------------
def _flip_memoized(fmt: NumberFormat, values: np.ndarray,
                   bit_positions: Sequence[int],
                   op: str = "xor") -> np.ndarray:
    # memoize over float32 *bit patterns*: np.unique on floats collapses
    # NaNs by payload-equality rules that changed across numpy versions
    # (equal_nan) and collapses -0.0 with +0.0, which encodes differently
    # under sign-aware formats — both break scalar parity
    patterns = np.ascontiguousarray(values).view(np.uint32)
    uniques, inverse = np.unique(patterns, return_inverse=True)
    unique_values = uniques.view(np.float32)
    corrupted = np.empty(uniques.size, dtype=np.float32)
    for i, v in enumerate(unique_values):
        corrupted[i] = np.float32(flip_value(fmt, float(v), bit_positions,
                                             op=op))
    return corrupted[inverse].reshape(values.shape)
