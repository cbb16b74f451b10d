"""Error-injection engine: single- and multi-bit flips in values and metadata.

GoldenEye's injection routine is the abstract sequence the paper gives in
§III-B: call ``real_to_format`` (Method 3) on the victim value, flip bits in
the resulting bitstring, then call ``format_to_real`` (Method 4) and write the
corrupted value back.  Metadata injections instead flip bits in a format's
hardware register (shared exponent / scale factor / exponent bias) and
re-express the dependent values under the corrupted register — which is how a
"single-bit flip" in hardware becomes a multi-bit flip in value space.

Injection *locations*:

* ``"neuron"`` — the layer's output activations, corrupted during the forward
  pass (dynamic runtime support);
* ``"weight"`` — the layer's parameters, corrupted offline at arm time and
  restored at disarm.

This module is the one place a value fault is applied.  Neuron columns, with
or without fault-axis lanes, go through one routine
(:meth:`InjectionEngine._corrupt_columns`) over
:func:`~repro.formats.vectorized.flip_values_batched`; a weight or a
gradient element goes through :func:`corrupt_element` over
:func:`~repro.formats.vectorized.flip_values`, the one-lane call of the
same kernels.  A metadata register is corrupted by
:func:`~repro.formats.bitstring.apply_bit_op`, and every bit pattern is
drawn by a :class:`~repro.core.faultmodels.FaultModel` (the classic one is
:class:`~repro.core.faultmodels.SingleBit`).

When a layer has no emulated format (native FP32 fabric), value injections
flip bits of the IEEE-754 binary32 encoding — the classic PyTorchFI-style
single-bit-flip model.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..formats.base import NumberFormat
from ..formats.bfp import BlockFloatingPoint
from ..formats.bitstring import apply_bit_op
from ..formats.vectorized import flip_values, flip_values_batched
from ..obs.telemetry import get_registry
from .faultmodels import FaultModel, SingleBit

if TYPE_CHECKING:  # pragma: no cover
    from .goldeneye import LayerState

__all__ = ["ValueInjection", "MetadataInjection", "InjectionEngine",
           "InjectionError", "corrupt_element", "per_sample_numel"]


def per_sample_numel(shape: tuple[int, ...]) -> int:
    """Number of injectable elements *per sample* of a layer output.

    The leading axis is always the batch dimension — each batch sample is an
    independent inference receiving the same flip (PyTorchFI's batched
    semantics) — so it is excluded from the injectable site count.  A 1-D
    output of shape ``(batch,)`` is a batch of scalars: exactly one site per
    sample, **not** ``batch`` sites (the historical off-by-a-dimension this
    helper fixes).
    """
    if len(shape) <= 1:
        return 1
    return int(np.prod(shape[1:]))


class InjectionError(RuntimeError):
    """Raised for invalid or inapplicable injection plans."""


#: bit operations a plan may carry: XOR flip (transient SEU), force-to-1 /
#: force-to-0 (the stuck-at fault model)
PLAN_OPS = ("xor", "set", "clear")


@dataclass(frozen=True)
class ValueInjection:
    """Corrupt ``bits`` of the data value at ``flat_index`` in a layer's tensor.

    ``op`` selects the corruption primitive (``"xor"`` flip, ``"set"`` /
    ``"clear"`` stuck-at); ``persist`` > 0 marks a temporal fault that
    survives only the first ``persist`` evaluation batches (see
    :class:`repro.core.faultmodels.Temporal`).  The defaults reproduce the
    classic transient single/multi-bit-flip plan exactly.
    """

    layer: str
    location: str  # "neuron" | "weight"
    flat_index: int
    bits: tuple[int, ...]
    op: str = "xor"
    persist: int = 0

    def __post_init__(self):
        if self.location not in ("neuron", "weight"):
            raise InjectionError(f"unknown location {self.location!r}")
        if not self.bits:
            raise InjectionError("at least one bit position is required")
        if self.flat_index < 0:
            raise InjectionError("flat_index must be non-negative")
        if self.op not in PLAN_OPS:
            raise InjectionError(
                f"unknown bit operation {self.op!r}; valid: {', '.join(PLAN_OPS)}")
        if self.persist < 0:
            raise InjectionError("persist must be non-negative")


@dataclass(frozen=True)
class MetadataInjection:
    """Corrupt ``bits`` of metadata register ``register`` of a layer's format."""

    layer: str
    location: str  # "neuron" | "weight"
    register: int
    bits: tuple[int, ...]
    op: str = "xor"
    persist: int = 0

    def __post_init__(self):
        if self.location not in ("neuron", "weight"):
            raise InjectionError(f"unknown location {self.location!r}")
        if not self.bits:
            raise InjectionError("at least one bit position is required")
        if self.op not in PLAN_OPS:
            raise InjectionError(
                f"unknown bit operation {self.op!r}; valid: {', '.join(PLAN_OPS)}")
        if self.persist < 0:
            raise InjectionError("persist must be non-negative")


def _blocks_of(fmt: NumberFormat | None, flat_index):
    """BFP block register of each flat position, or None for other formats."""
    if isinstance(fmt, BlockFloatingPoint) and fmt.metadata is not None:
        return fmt._block_of(flat_index)
    return None


def corrupt_element(fmt: NumberFormat | None, array: np.ndarray,
                    flat_index: int, bits, op: str = "xor") -> None:
    """Corrupt ``bits`` of one element of ``array`` in place, under ``fmt``.

    The weight and gradient fault: the element at ``flat_index`` (C order)
    goes through the same fused encode → corrupt → decode kernel a neuron
    column does (:func:`~repro.formats.vectorized.flip_values`), under its
    BFP block register when ``fmt`` has one.  The element is addressed
    with ``np.unravel_index``, so a non-contiguous ``array`` (a gradient
    written through a transpose) is corrupted where it lives, not in a
    copy.
    """
    index = np.unravel_index(flat_index, array.shape)
    array[index] = flip_values(fmt, array[index], bits,
                               blocks=_blocks_of(fmt, flat_index), op=op)[0]


@dataclass
class _WeightRestore:
    layer: str
    param_name: str
    saved: np.ndarray
    saved_metadata: object = None


class InjectionEngine:
    """Arms, applies, and reverses injection plans over a GoldenEye's layers.

    ``layers`` is the platform's own ``name -> LayerState`` map, shared,
    not copied.  The engine keeps no reference to the platform itself, so
    a dropped platform is freed at once instead of by the cyclic collector.
    """

    def __init__(self, layers: "dict[str, LayerState]"):
        self._layers = layers
        self._neuron_plans: list[ValueInjection | MetadataInjection] = []
        self._restores: list[_WeightRestore] = []
        #: number of individual corruptions actually performed
        self.injections_applied: int = 0

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, *plans: ValueInjection | MetadataInjection) -> None:
        """Schedule ``plans``; weight plans are applied immediately."""
        for plan in plans:
            state = self._layer_state(plan.layer)
            if plan.location == "neuron":
                self._validate_neuron_plan(state, plan)
                self._neuron_plans.append(plan)
            elif isinstance(plan, ValueInjection):
                self._inject_weight_value(state, plan)
            else:
                self._inject_weight_metadata(state, plan)

    def disarm(self) -> None:
        """Clear scheduled neuron plans and restore corrupted weights."""
        self._neuron_plans.clear()
        for restore in reversed(self._restores):
            state = self._layer_state(restore.layer)
            np.copyto(getattr(state.module, restore.param_name).data, restore.saved)
            if restore.saved_metadata is not None and state.weight_format is not None:
                state.weight_format.metadata = restore.saved_metadata
        self._restores.clear()

    @contextlib.contextmanager
    def armed(self, *plans: ValueInjection | MetadataInjection):
        """Context manager: arm ``plans``, guarantee disarm afterwards."""
        self.arm(*plans)
        try:
            yield self
        finally:
            self.disarm()

    @property
    def active(self) -> bool:
        return bool(self._neuron_plans or self._restores)

    def armed_sites(self) -> set[tuple[str, str]]:
        """``(layer, location)`` of every armed plan.

        An armed weight plan has already been applied; its restore marks it.
        """
        return ({(p.layer, "neuron") for p in self._neuron_plans}
                | {(r.layer, "weight") for r in self._restores})

    # ------------------------------------------------------------------
    # neuron-side application (called from the GoldenEye forward hook)
    # ------------------------------------------------------------------
    def apply_neuron_injections(self, state: "LayerState", quantized: np.ndarray) -> np.ndarray:
        if not self._neuron_plans:
            return quantized
        for plan in self._layer_plans(state):
            quantized = self._corrupt_neuron(state, plan, quantized)
        return quantized

    def _corrupt_neuron(self, state: "LayerState",
                        plan: ValueInjection | MetadataInjection,
                        quantized: np.ndarray) -> np.ndarray:
        """Apply one neuron plan: a metadata plan corrupts the layer's live
        metadata register, a value plan one data word per sample."""
        if isinstance(plan, MetadataInjection):
            return self._corrupt_neuron_metadata(state, plan, quantized)
        return self._corrupt_columns(state, [plan], quantized)

    def _corrupt_columns(self, state: "LayerState", plans: list,
                         quantized: np.ndarray) -> np.ndarray:
        """Flip value plan ``k``'s bits at its ``flat_index`` in every sample
        of lane ``k``.

        ``quantized`` holds ``len(plans)`` replicas of the evaluation batch
        along axis 0 (one, without fault-axis batching).  Every sample in a
        lane is one independent inference experiencing the same flip at the
        same activation site (PyTorchFI's batched-injection semantics), so
        one forward pass evaluates a plan across the whole evaluation set.
        All lanes' victim columns are corrupted in one vectorized encode →
        flip → decode pass
        (:func:`~repro.formats.vectorized.flip_values_batched`), each
        element under its own BFP block register.  The result is a
        C-ordered copy; ``quantized`` is not modified.
        """
        out = quantized.copy()
        total = out.shape[0] if out.ndim >= 1 else 1
        per_sample = out.reshape(total, -1)
        sample_size = per_sample.shape[1]
        for plan in plans:
            if plan.flat_index >= sample_size:
                raise InjectionError(
                    f"flat_index {plan.flat_index} out of range for layer "
                    f"{state.name} per-sample output of {sample_size} elements"
                )
        ops = {p.op for p in plans}
        if len(ops) > 1:
            raise InjectionError(
                f"lane-batched plans must share one bit operation, got {ops}")
        rows = np.arange(total)
        cols = np.repeat(np.array([p.flat_index for p in plans], dtype=np.int64),
                         total // len(plans))
        fmt = state.neuron_format
        per_sample[rows, cols] = flip_values_batched(
            fmt, per_sample[rows, cols], [p.bits for p in plans],
            blocks=_blocks_of(fmt, rows * sample_size + cols), op=plans[0].op)
        self.injections_applied += len(plans)
        self._count_flip("value", "neuron", len(plans))
        return out

    # ------------------------------------------------------------------
    # fault-axis batched application (one replica lane per armed plan)
    # ------------------------------------------------------------------
    def _layer_plans(self, state: "LayerState") -> list:
        return [p for p in self._neuron_plans if p.layer == state.name]

    def apply_lane_injection(self, state: "LayerState", quantized: np.ndarray,
                             lane: int) -> np.ndarray:
        """Apply only lane ``lane``'s armed plan to one replica's tensor.

        Used when a layer quantizes one replica at a time (a format with
        metadata registers, or one a stats sink watches): the corruption,
        value or metadata, runs against lane ``lane``'s freshly captured
        metadata.
        """
        plans = self._layer_plans(state)
        if not plans:
            return quantized
        return self._corrupt_neuron(state, plans[lane], quantized)

    def apply_lane_injections(self, state: "LayerState",
                              quantized: np.ndarray) -> np.ndarray:
        """Apply all K armed plans to a fault-stacked tensor in one pass.

        ``quantized`` holds one replica of the evaluation batch per armed
        plan along axis 0; plan ``k`` corrupts only replica ``k``, at its
        own site with its own bits (see :meth:`_corrupt_columns`).
        Stateless formats only (no block/scale registers to track per lane).
        """
        plans = self._layer_plans(state)
        if not plans:
            return quantized
        return self._corrupt_columns(state, plans, quantized)

    def _corrupt_neuron_metadata(self, state: "LayerState", plan: MetadataInjection,
                                 quantized: np.ndarray) -> np.ndarray:
        fmt = state.neuron_format
        if fmt is None or not fmt.has_metadata:
            raise InjectionError(
                f"layer {state.name} format {fmt!r} has no metadata to inject into"
            )
        golden = state.neuron_golden_metadata
        bits = apply_bit_op(fmt.get_metadata_bits(plan.register),
                            plan.bits, plan.op)
        fmt.set_metadata_bits(bits, plan.register)
        corrupted = fmt.apply_metadata_corruption(quantized, golden)
        self.injections_applied += 1
        self._count_flip("metadata", "neuron")
        return corrupted

    # ------------------------------------------------------------------
    # weight-side application (offline, at arm time)
    # ------------------------------------------------------------------
    def _weight_param(self, state: "LayerState"):
        param = state.module._parameters.get("weight")
        if param is None:
            raise InjectionError(f"layer {state.name} has no weight parameter")
        return param

    def _inject_weight_value(self, state: "LayerState", plan: ValueInjection) -> None:
        param = self._weight_param(state)
        if plan.flat_index >= param.data.size:
            raise InjectionError(
                f"flat_index {plan.flat_index} out of range for layer {state.name} "
                f"weight of {param.data.size} elements"
            )
        self._restores.append(
            _WeightRestore(state.name, "weight", param.data.copy())
        )
        corrupt_element(state.weight_format, param.data, plan.flat_index,
                        plan.bits, plan.op)
        self.injections_applied += 1
        self._count_flip("value", "weight")

    def _inject_weight_metadata(self, state: "LayerState", plan: MetadataInjection) -> None:
        fmt = state.weight_format
        if fmt is None or not fmt.has_metadata:
            raise InjectionError(
                f"layer {state.name} weight format {fmt!r} has no metadata"
            )
        param = self._weight_param(state)
        golden = state.weight_golden_metadata
        self._restores.append(
            _WeightRestore(state.name, "weight", param.data.copy(),
                           saved_metadata=golden)
        )
        bits = apply_bit_op(fmt.get_metadata_bits(plan.register),
                            plan.bits, plan.op)
        fmt.set_metadata_bits(bits, plan.register)
        param.data[...] = fmt.apply_metadata_corruption(param.data, golden)
        self.injections_applied += 1
        self._count_flip("metadata", "weight")

    # ------------------------------------------------------------------
    # random-site sampling
    # ------------------------------------------------------------------
    def sample_value_injection(
        self,
        rng: np.random.Generator,
        layer: str | None = None,
        location: str = "neuron",
        num_bits: int = 1,
        fault_model: FaultModel = SingleBit(),
    ) -> ValueInjection:
        """Sample a uniformly random value injection.

        Neuron sampling requires a prior (warm-up) forward pass so output
        shapes are known.  ``fault_model`` (a
        :class:`repro.core.faultmodels.FaultModel`) draws the bit pattern
        and names the operation; the default :class:`SingleBit` is the
        classic single/multi-bit XOR draw.  A model with no pattern that
        fits the layer's word (a burst wider than it) raises
        :class:`InjectionError`; ``num_bits`` wider than the word raises
        ``ValueError``.
        """
        state = self._pick_layer(rng, layer)
        if location == "neuron":
            if state.last_output_shape is None:
                raise InjectionError(
                    f"layer {state.name} has no recorded output shape; "
                    "run one clean forward pass first"
                )
            # index within one sample (batch axis excluded): each batch sample
            # is an independent inference receiving the same flip
            numel = per_sample_numel(state.last_output_shape)
            width = state.neuron_format.bit_width if state.neuron_format else 32
        else:
            param = self._weight_param(state)
            numel = param.data.size
            width = state.weight_format.bit_width if state.weight_format else 32
        index = int(rng.integers(numel))
        try:
            bits = fault_model.sample_bits(rng, width, num_bits)
        except ValueError as exc:
            if fault_model.patterns_per_word(width):
                raise  # num_bits wider than the word: the caller's error
            # no pattern fits this layer's word (a burst wider than it)
            raise InjectionError(str(exc)) from None
        return ValueInjection(state.name, location, index, bits,
                              op=fault_model.op, persist=fault_model.persist)

    def sample_metadata_injection(
        self,
        rng: np.random.Generator,
        layer: str | None = None,
        location: str = "neuron",
        num_bits: int = 1,
    ) -> MetadataInjection:
        """Sample a uniformly random metadata-register injection."""
        state = self._pick_layer(rng, layer)
        fmt = state.neuron_format if location == "neuron" else state.weight_format
        if fmt is None or not fmt.has_metadata:
            raise InjectionError(f"layer {state.name} format {fmt!r} has no metadata")
        registers = fmt.num_metadata_registers()
        if registers == 0:
            raise InjectionError(
                f"layer {state.name} has no captured metadata; "
                "run one clean forward pass (or attach weights) first"
            )
        register = int(rng.integers(registers))
        bits = SingleBit().sample_bits(rng, fmt.metadata_register_width(),
                                       num_bits)
        return MetadataInjection(state.name, location, register, bits)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _count_flip(kind: str, location: str, count: int = 1) -> None:
        """Telemetry: count ``count`` performed corruptions in the registry."""
        get_registry().counter(
            "injection.flips_total",
            help="bit-flip corruptions performed, by plan kind and location",
            kind=kind, location=location).inc(count)

    def _layer_state(self, name: str) -> "LayerState":
        try:
            return self._layers[name]
        except KeyError:
            raise InjectionError(
                f"layer {name!r} is not instrumented; "
                f"known layers: {', '.join(self._layers)}"
            ) from None

    def _pick_layer(self, rng: np.random.Generator, layer: str | None) -> "LayerState":
        if layer is not None:
            return self._layer_state(layer)
        names = list(self._layers)
        return self._layers[names[int(rng.integers(len(names)))]]

    def _validate_neuron_plan(self, state: "LayerState",
                              plan: ValueInjection | MetadataInjection) -> None:
        fmt = state.neuron_format
        if isinstance(plan, MetadataInjection):
            if fmt is None or not fmt.has_metadata:
                raise InjectionError(
                    f"layer {state.name} format {fmt!r} has no metadata to inject into"
                )
            return
        width = fmt.bit_width if fmt is not None else 32
        for b in plan.bits:
            if not 0 <= b < width:
                raise InjectionError(
                    f"bit {b} out of range for {width}-bit format at layer {state.name}"
                )
