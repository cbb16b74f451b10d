"""Fault models: how a hardware fault chooses and perturbs bits (§III-B+).

GoldenEye's original campaigns assume the classic software SEU model — one
(or ``num_bits`` independent) uniformly sampled XOR bit-flips per injection.
Real SEU sweeps cover a richer space (the ECC-model exemplar's burst and
exhaustive modes, PyTorchFI-extension-scale fault spaces), so the campaign
runner now samples through a :class:`FaultModel`:

* :class:`SingleBit` — the default; bit-identical sampling (same RNG
  consumption, same plans, same records) to every pre-fault-model campaign.
* :class:`Burst` — ``length`` adjacent bits (``stride`` apart, start
  aligned to ``start_align``) flipped together as one XOR mask, modelling a
  multi-bit upset from one particle strike.  Wraparound is refused: a burst
  must fit inside the word.
* :class:`StuckAt` — the chosen bit is *forced* to 0 or 1 (mask-clear /
  mask-set instead of XOR), modelling a latched defect.  A stuck-at fault
  at a bit already holding that value is a no-op — exactly the hardware
  semantics, and exactly what the campaign measures.
* :class:`Exhaustive` — every ``(element, bit)`` single-bit site of the
  layer, enumerated in deterministic site-major order (element 0 bits
  0..w-1, element 1, ...).  The enumeration ignores the sampled budget and
  is journal-resumable like any other plan list; layers whose site space
  exceeds :data:`EXHAUSTIVE_SITE_CAP` are refused with an error naming the
  cap.
* :class:`Temporal` — a single-bit fault that *persists* for ``persist``
  consecutive evaluation batches before decaying.  The campaign treats each
  sample of the evaluation batch as one successive inference, so samples
  ``[0, persist)`` see the corrupted network and the rest see the golden
  one — composed from a single armed forward pass, which keeps temporal
  campaigns bit-identical across serial / parallel / fault-batched /
  journal-resumed execution.

Every model is identified by a canonical *spec string* (``"single"``,
``"burst2"``, ``"burst4:stride2"``, ``"stuck0"``, ``"stuck1"``,
``"exhaustive"``, ``"temporal3"``) that round-trips through
:func:`parse_fault_model`, travels in journal headers / records, and is
what the ``--fault-model`` CLI flag accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaultModel",
    "SingleBit",
    "Burst",
    "StuckAt",
    "Exhaustive",
    "Temporal",
    "BURST_LENGTHS",
    "EXHAUSTIVE_SITE_CAP",
    "VALID_SPECS",
    "parse_fault_model",
]

#: burst lengths the model (and the ``--burst`` flag) accepts
BURST_LENGTHS = (2, 4)

#: largest per-layer site space :class:`Exhaustive` will enumerate; larger
#: layers are refused with an error naming this cap (use the sampled
#: estimator there — see the CI ``fault-models`` job for the consistency
#: check between the two)
EXHAUSTIVE_SITE_CAP = 4096

#: human-readable summary of every accepted spec (used in error messages)
VALID_SPECS = ("single, burst2[:strideS][:alignA], burst4[:strideS][:alignA], "
               "stuck0, stuck1, exhaustive, temporalN")


@dataclass(frozen=True)
class FaultModel:
    """Base fault model: sampled single/multi-bit XOR flips."""

    #: how the bit mask is applied to the encoded word
    op: str = "xor"  # "xor" | "set" | "clear"
    #: evaluation batches the fault survives (0 = the whole evaluation,
    #: i.e. the classic every-sample-sees-the-fault semantics)
    persist: int = 0
    #: True when the model enumerates every site instead of sampling
    exhaustive: bool = False

    def spec(self) -> str:
        raise NotImplementedError

    def sample_bits(self, rng: np.random.Generator, width: int,
                    num_bits: int = 1) -> tuple[int, ...]:
        """Draw one injection's bit positions from ``rng`` (MSB-first)."""
        raise NotImplementedError

    def patterns_per_word(self, width: int) -> int:
        """Distinct bit patterns this model can place in one word."""
        raise NotImplementedError


@dataclass(frozen=True)
class SingleBit(FaultModel):
    """The default model: ``num_bits`` uniformly sampled XOR flips.

    Sampling consumes the layer RNG exactly like the pre-fault-model
    engine (one ``rng.choice(width, num_bits)`` draw after the site index),
    so campaigns run under ``SingleBit`` are byte-identical — plans,
    records, journals — to campaigns run before fault models existed.
    It is the one classic draw: value and metadata sampling without a
    model and gradient sampling all go through it.  ``num_bits`` wider
    than the word raises ``ValueError``.
    """

    def spec(self) -> str:
        return "single"

    def sample_bits(self, rng, width, num_bits=1):
        return tuple(sorted(
            rng.choice(width, size=num_bits, replace=False).tolist()))

    def patterns_per_word(self, width):
        return width


@dataclass(frozen=True)
class Burst(FaultModel):
    """``length`` bits, ``stride`` apart, flipped together as one XOR mask."""

    length: int = 2
    stride: int = 1
    start_align: int = 1

    def __post_init__(self):
        if self.length not in BURST_LENGTHS:
            raise ValueError(
                f"burst length must be one of {set(BURST_LENGTHS)}, "
                f"got {self.length}")
        if self.stride < 1:
            raise ValueError(f"burst stride must be >= 1, got {self.stride}")
        if self.start_align < 1:
            raise ValueError(
                f"burst start alignment must be >= 1, got {self.start_align}")

    def spec(self) -> str:
        out = f"burst{self.length}"
        if self.stride != 1:
            out += f":stride{self.stride}"
        if self.start_align != 1:
            out += f":align{self.start_align}"
        return out

    def span(self) -> int:
        """Bits covered from the first to the last flipped position."""
        return (self.length - 1) * self.stride + 1

    def valid_starts(self, width: int) -> range:
        """Aligned start positions whose burst fits inside the word.

        Empty when the span exceeds the word — wraparound is refused, not
        wrapped (a burst never crosses the MSB/LSB boundary).
        """
        return range(0, max(0, width - self.span() + 1), self.start_align)

    def bits_at(self, start: int, width: int) -> tuple[int, ...]:
        bits = tuple(start + i * self.stride for i in range(self.length))
        if start < 0 or bits[-1] >= width:
            raise ValueError(
                f"{self.spec()} starting at bit {start} does not fit a "
                f"{width}-bit word (wraparound is refused)")
        return bits

    def sample_bits(self, rng, width, num_bits=1):
        starts = self.valid_starts(width)
        if not len(starts):
            raise ValueError(
                f"{self.spec()} spans {self.span()} bits and cannot fit a "
                f"{width}-bit word (wraparound is refused)")
        start = starts[int(rng.integers(len(starts)))]
        return self.bits_at(start, width)

    def patterns_per_word(self, width):
        return len(self.valid_starts(width))


@dataclass(frozen=True)
class StuckAt(FaultModel):
    """One uniformly sampled bit forced to ``value`` (0 or 1)."""

    value: int = 0

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0 or 1, got {self.value}")
        object.__setattr__(self, "op", "set" if self.value else "clear")

    def spec(self) -> str:
        return f"stuck{self.value}"

    def sample_bits(self, rng, width, num_bits=1):
        return (int(rng.integers(width)),)

    def patterns_per_word(self, width):
        return width


@dataclass(frozen=True)
class Exhaustive(FaultModel):
    """Every (element, bit) single-bit site, in deterministic order."""

    def __post_init__(self):
        object.__setattr__(self, "exhaustive", True)

    def spec(self) -> str:
        return "exhaustive"

    def enumerate_bits(self, width: int):
        """All single-bit patterns of one word, MSB to LSB."""
        return ((b,) for b in range(width))

    def sample_bits(self, rng, width, num_bits=1):
        raise ValueError("the exhaustive fault model enumerates sites; "
                         "it does not sample")

    def patterns_per_word(self, width):
        return width


@dataclass(frozen=True)
class Temporal(SingleBit):
    """A single-bit fault persisting for ``persist`` evaluation batches.

    Its bits are drawn as :class:`SingleBit` draws them.
    """

    def __post_init__(self):
        if self.persist < 1:
            raise ValueError(
                f"temporal persistence must be >= 1, got {self.persist}")

    def spec(self) -> str:
        return f"temporal{self.persist}"


def _parse_burst(spec: str) -> Burst:
    head, *opts = spec.split(":")
    length = int(head[len("burst"):])
    stride, align = 1, 1
    for opt in opts:
        if opt.startswith("stride") and opt[len("stride"):].isdigit():
            stride = int(opt[len("stride"):])
        elif opt.startswith("align") and opt[len("align"):].isdigit():
            align = int(opt[len("align"):])
        else:
            raise ValueError(
                f"unknown burst option {opt!r} in fault model {spec!r}; "
                f"valid options: strideS (S >= 1), alignA (A >= 1)")
    return Burst(length=length, stride=stride, start_align=align)


def parse_fault_model(spec: "str | FaultModel | None") -> FaultModel:
    """Parse a fault-model spec string into its model (round-trippable).

    ``None`` and an already-constructed :class:`FaultModel` pass through;
    every invalid spec raises ``ValueError`` naming the valid values.
    """
    if spec is None:
        return SingleBit()
    if isinstance(spec, FaultModel):
        return spec
    text = str(spec).strip().lower()
    try:
        if text == "single":
            return SingleBit()
        if text.startswith("burst") and len(text) > len("burst") \
                and text[len("burst")].isdigit():
            return _parse_burst(text)
        if text in ("stuck0", "stuck1"):
            return StuckAt(value=int(text[-1]))
        if text == "exhaustive":
            return Exhaustive()
        if text.startswith("temporal") and text[len("temporal"):].isdigit():
            return Temporal(persist=int(text[len("temporal"):]))
    except ValueError as exc:
        raise ValueError(f"invalid fault model {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown fault model {spec!r}; valid models: {VALID_SPECS}")
