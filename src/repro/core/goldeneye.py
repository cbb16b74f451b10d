"""The GoldenEye platform: number-format emulation over an instrumented model.

Implements the paper's §III-A flow.  The compute fabric (numpy FP32 here) runs
the model natively; a :class:`GoldenEye` instance attaches forward hooks to
the target layers, and each hook reads the layer's FP32 output, converts it to
the nearest value representable in the emulated format, and writes it back as
FP32 — while capturing the format's hardware metadata (shared exponents, scale
factors, exponent biases) for the error-injection engine.

Weights are converted once at attach time ("weight injections can be performed
offline"), neurons on every forward pass.  Backpropagation works through the
emulation via a straight-through estimator, so training with emulated formats
is supported (§V-B).
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from .. import nn
from ..formats.base import NumberFormat
from ..formats.bfp import BfpMetadata, BlockFloatingPoint
from ..formats.registry import make_format
from ..nn.tensor import Tensor
from ..obs.telemetry import get_registry
from ..obs.tracing import get_tracer
from .detector import RangeDetector
from .injection import InjectionEngine
from .resume import DEFAULT_CACHE_BUDGET, ResumeSession, changed_box, conv_reach

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.numerics import NumericHealthMonitor
    from ..obs.profiler import LayerProfiler

logger = logging.getLogger("repro.goldeneye")

__all__ = ["GoldenEye", "LayerState", "TARGET_KINDS", "CONE_GEMM_FLOOR",
           "default_target_types"]

#: layer-kind selectors for the ``targets`` knob
TARGET_KINDS: dict[str, tuple[type, ...]] = {
    "conv": (nn.Conv2d,),
    "linear": (nn.Linear,),
    "norm": (nn.BatchNorm2d, nn.LayerNorm),
    "activation": (nn.ReLU, nn.GELU, nn.Sigmoid, nn.Tanh, nn.Softmax),
    "pool": (nn.MaxPool2d, nn.AvgPool2d, nn.AdaptiveAvgPool2d),
    "embedding": (nn.Embedding,),
}


#: Fewest output elements (GEMM rows x out-channels) a cone region's GEMM
#: multiplies; a smaller region grows to it, capped at the whole output.
#: A row of ``a @ b`` keeps its bits across row counts only while BLAS
#: takes the same kernel: on OpenBLAS 0.3.31 (x86-64, AVX-512), conv-shaped
#: GEMMs of rows x out-channels <= 1,024 took the small-matrix kernel and
#: differed from the full GEMM's rows in the last bit at K >= 32, and every
#: one-row call differed (numpy calls gemv); all subsets of >= 1,536
#: elements matched.  4,096 keeps a 4x margin, and a full output under it is
#: the dense call itself.  ``tests/test_resume.py::TestConeBlasProbe``
#: re-measures it for every conv shape of the zoo's CNNs.
CONE_GEMM_FLOOR = 4096


def default_target_types() -> tuple[type, ...]:
    """CONV and LINEAR — the paper's defaults, "due to their computational
    intensity" (§V-B)."""
    return TARGET_KINDS["conv"] + TARGET_KINDS["linear"]


@dataclass
class LayerState:
    """Per-instrumented-layer bookkeeping."""

    name: str
    module: nn.Module
    #: format instance for this layer's output activations (neurons)
    neuron_format: NumberFormat | None
    #: format instance for this layer's weights
    weight_format: NumberFormat | None
    #: pristine FP32 weights, restored at detach
    original_weights: dict[str, np.ndarray] = field(default_factory=dict)
    #: metadata captured when the weights were converted
    weight_golden_metadata: Any = None
    #: metadata captured on the most recent forward (clean, pre-corruption)
    neuron_golden_metadata: Any = None
    #: shape of the most recent output (for sampling injection sites)
    last_output_shape: tuple[int, ...] | None = None
    hook_handle: nn.HookHandle | None = None


def _copy_metadata(meta: Any) -> Any:
    return meta.copy() if hasattr(meta, "copy") and not np.isscalar(meta) else meta


def _pair(value) -> tuple[int, int]:
    return (value, value) if isinstance(value, int) else tuple(value)


def _block_alignment(fmt: NumberFormat,
                     shape: tuple[int, ...] | None) -> tuple[int, int] | None:
    """``(rows, cols)`` multiples that keep a region of a conv output of
    ``shape`` made of whole quantization blocks of ``fmt``; None when its
    state is tensor-global (an INT scale, AFP's bias, whole-tensor BFP) or
    its blocks do not tile the output plane.  Columns aligned to the plane
    width mean whole rows."""
    if not fmt.has_metadata:
        return 1, 1
    if (type(fmt) is not BlockFloatingPoint or fmt.block_size is None
            or shape is None or len(shape) != 4):
        return None
    oh, ow = shape[2:]
    block = fmt.block_size
    if ow % block == 0:
        return 1, block
    if oh * ow % block:
        return None
    return block // math.gcd(ow, block), ow


def _cone_region(rows: tuple[int, int], cols: tuple[int, int],
                 align: tuple[int, int], n: int, oc: int, oh: int,
                 ow: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Round a cone region out to whole blocks, then grow it to
    :data:`CONE_GEMM_FLOOR` output elements (capped at the whole plane)."""
    (r0, r1), (c0, c1), (ra, ca) = rows, cols, align
    r0, r1 = r0 // ra * ra, -(-r1 // ra) * ra
    c0, c1 = c0 // ca * ca, min(ow, -(-c1 // ca) * ca)
    need = -(-CONE_GEMM_FLOOR // oc)  # GEMM rows
    if n * (r1 - r0) * (c1 - c0) < need:
        height = -(-need // (n * (c1 - c0)))
        if height > oh:
            c0, c1 = 0, ow
            height = -(-need // (n * ow))
        height = min(oh, -(-height // ra) * ra)
        r1 = min(oh, max(r1, r0 + height))
        r0 = min(r0, r1 - height)
    return (r0, r1), (c0, c1)


class GoldenEye:
    """Functional simulator of a number format over a model.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`.
    number_format:
        A format spec (``"fp16"``, ``"bfp_e5m5_b16"``, a
        :class:`~repro.formats.NumberFormat` instance), or a mapping of layer
        name to spec for per-layer (mixed) assignment.  Each instrumented
        layer gets its own fresh instance so metadata never aliases.
    targets:
        Iterable of kind selectors from :data:`TARGET_KINDS`, ``"all"``, or an
        explicit list of layer names.  Defaults to CONV + LINEAR.
    quantize_weights / quantize_neurons:
        Convert parameters at attach time / activations per forward pass.
    range_detector:
        Optional :class:`RangeDetector` (the paper's toggleable detector);
        clamps each layer's output to its profiled range *after* injection,
        modelling a low-cost protection mechanism.
    profiler:
        Optional :class:`~repro.obs.profiler.LayerProfiler`.  When set,
        :meth:`attach` lets it wrap the calls behind every instrumented
        layer's compute / quantize / inject / detect phases, which it books
        per layer in the metrics registry; the hook itself never sees it.
    numerics:
        Optional :class:`~repro.obs.numerics.NumericHealthMonitor`.  When
        set, :meth:`attach` installs a numeric-health stats sink on every
        layer format (weight *and* neuron streams), recording quantization
        error, saturation/flush/NaN-remap counts and dynamic-range coverage
        per layer in the metrics registry; when ``None`` (the default) each
        tensor conversion pays one ``is not None`` check.
    """

    def __init__(
        self,
        model: nn.Module,
        number_format: str | NumberFormat | Mapping[str, str | NumberFormat] = "fp32",
        targets: Iterable[str] | str = ("conv", "linear"),
        quantize_weights: bool = True,
        quantize_neurons: bool = True,
        range_detector: RangeDetector | None = None,
        profiler: "LayerProfiler | None" = None,
        numerics: "NumericHealthMonitor | None" = None,
    ):
        self.model = model
        self.quantize_weights = quantize_weights
        self.quantize_neurons = quantize_neurons
        self.detector = range_detector
        self.profiler = profiler
        self.numerics = numerics
        self._attached = False
        self._format_spec = number_format
        self.layers: dict[str, LayerState] = {}
        self.injector = InjectionEngine(self.layers)
        #: checkpoint-and-resume session (see :meth:`enable_resume`)
        self.resume_session: ResumeSession | None = None
        #: (lanes, per_replica_batch) while a fault-axis batched pass runs
        self._fault_lanes: tuple[int, int] | None = None
        self._build_layer_states(number_format, targets)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _select_modules(self, targets) -> list[tuple[str, nn.Module]]:
        named = [(name, mod) for name, mod in self.model.named_modules() if name]
        leaves = [(n, m) for n, m in named if not any(True for _ in m.children())]
        if isinstance(targets, str):
            targets = (targets,)
        targets = tuple(targets)
        if "all" in targets:
            return leaves
        selected: list[tuple[str, nn.Module]] = []
        kind_types: tuple[type, ...] = ()
        explicit_names = set()
        for t in targets:
            if t in TARGET_KINDS:
                kind_types += TARGET_KINDS[t]
            else:
                explicit_names.add(t)
        known = {n for n, _ in leaves}
        missing = explicit_names - known
        if missing:
            raise KeyError(f"target layer names not found in model: {sorted(missing)}")
        for name, mod in leaves:
            if isinstance(mod, kind_types) or name in explicit_names:
                selected.append((name, mod))
        if not selected:
            raise ValueError(f"no layers matched targets {targets!r}")
        return selected

    def _build_layer_states(self, number_format, targets) -> None:
        modules = self._select_modules(targets)
        per_layer = isinstance(number_format, Mapping)
        for name, module in modules:
            if per_layer:
                spec = number_format.get(name)
                if spec is None:
                    continue  # unassigned layers stay in the fabric format
            else:
                spec = number_format
            self.layers[name] = LayerState(
                name=name,
                module=module,
                neuron_format=make_format(spec) if self.quantize_neurons else None,
                weight_format=make_format(spec) if self.quantize_weights else None,
            )
        if not self.layers:
            raise ValueError("no layers selected for emulation")

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------
    def attach(self) -> "GoldenEye":
        """Instrument the model: convert weights, register neuron hooks."""
        if self._attached:
            return self
        registry = get_registry()
        if self.numerics is not None:
            # before weight conversion, so the attach-time weight
            # quantization is part of the numeric-health record
            self.numerics.attach(self)
        if self.profiler is not None:
            self.profiler.attach(self)
        with get_tracer().span("goldeneye.attach", format=self.format_name(),
                               layers=len(self.layers)):
            for state in self.layers.values():
                if state.weight_format is not None:
                    t0 = time.perf_counter()
                    self._convert_weights(state)
                    registry.histogram(
                        "goldeneye.weight_convert_seconds",
                        help="per-layer attach-time weight conversion",
                        layer=state.name).observe(time.perf_counter() - t0)
                if state.neuron_format is not None or self.detector is not None:
                    state.hook_handle = state.module.register_forward_hook(
                        self._make_hook(state)
                    )
        registry.counter("goldeneye.attaches_total",
                         help="platform attach() calls").inc()
        logger.debug("attached %d layers under format %r",
                     len(self.layers), self.format_name())
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove hooks and restore the pristine FP32 weights."""
        for state in self.layers.values():
            if state.hook_handle is not None:
                state.hook_handle.remove()
                state.hook_handle = None
            for pname, original in state.original_weights.items():
                np.copyto(getattr(state.module, pname).data, original)
            state.original_weights.clear()
            state.weight_golden_metadata = None
        if self.numerics is not None:
            self.numerics.detach()
        if self.profiler is not None:
            self.profiler.detach()
        self._attached = False
        # cached activations were produced under the (now removed) hooks
        self.clear_resume()

    def __enter__(self) -> "GoldenEye":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    @property
    def attached(self) -> bool:
        return self._attached

    def _convert_weights(self, state: LayerState) -> None:
        fmt = state.weight_format
        weight_metadata = None
        for pname, param in state.module._parameters.items():
            if param is None:
                continue
            state.original_weights[pname] = param.data.copy()
            param.data[...] = fmt.real_to_format_tensor(param.data)
            if pname == "weight":
                weight_metadata = _copy_metadata(fmt.metadata)
        # the main weight tensor's metadata is the injectable register; keep it
        # captured even though other params (bias) were converted afterwards
        if weight_metadata is not None:
            state.weight_golden_metadata = weight_metadata
            fmt.metadata = weight_metadata

    # ------------------------------------------------------------------
    # the per-layer forward hook (§III-A)
    # ------------------------------------------------------------------
    def _make_hook(self, state: LayerState):
        def hook(module: nn.Module, inputs, output: nn.Tensor):
            data = output.data
            if self._fault_lanes is not None:
                return _straight_through(output,
                                         self._lane_postprocess(state, data))
            quantized = self._inject(state, self._quantize(state, data))
            if self.detector is not None:
                quantized = self.detector.clamp(state.name, quantized)
            return _straight_through(output, quantized)

        return hook

    def _quantize(self, state: LayerState, data: np.ndarray,
                  resumed: bool = False) -> np.ndarray:
        """Quantize one layer output and capture its golden neuron metadata.

        A ``resumed`` output is the layer's cached golden output, already
        quantized: the metadata the golden pass captured for it becomes the
        live register again (a fresh copy, since a metadata injection
        mutates the live register in place).
        """
        fmt = state.neuron_format
        if resumed:
            golden = self.resume_session.neuron_metadata[state.name]
            fmt.metadata = _copy_metadata(golden)
            quantized = data
        elif fmt is not None:
            quantized = fmt.real_to_format_tensor(data)
            golden = _copy_metadata(fmt.metadata)
        else:
            return data.copy()
        state.neuron_golden_metadata = golden
        return quantized

    def _inject(self, state: LayerState, quantized: np.ndarray,
                lane: int | None = None) -> np.ndarray:
        """Apply the armed neuron corruptions (lane ``lane``'s only, if set)."""
        state.last_output_shape = quantized.shape
        if lane is None:
            return self.injector.apply_neuron_injections(state, quantized)
        return self.injector.apply_lane_injection(state, quantized, lane)

    def _lane_postprocess(self, state: LayerState, data: np.ndarray,
                          resumed: bool = False) -> np.ndarray:
        """Quantize + inject a fault-axis batched layer output.

        The tensor stacks ``lanes`` replicas of the evaluation batch along
        axis 0.  Stateless formats quantize elementwise, so the whole stack
        converts in one pass and all lane corruptions land in a single
        :func:`~repro.formats.vectorized.flip_values_batched` call.  Formats
        with tensor-global metadata (scale / bias / block registers) must
        quantize each replica separately — the registers the K=1 pass would
        capture — with that lane's corruption applied while its metadata is
        live.  So does a format with a stats sink, which then books the K
        conversions K single passes book.  A ``resumed`` stack tiles the
        layer's cached output, already quantized (see :meth:`_quantize`).
        """
        lanes, batch = self._fault_lanes
        fmt = state.neuron_format
        if fmt is not None and (fmt.has_metadata
                                or fmt.stats_sink is not None):
            quantized = np.empty(data.shape, dtype=np.float32)
            for k in range(lanes):
                lane = slice(k * batch, (k + 1) * batch)
                lane_q = self._quantize(state, data[lane], resumed)
                quantized[lane] = self._inject(state, lane_q, k)
        else:
            quantized = data if resumed else self._quantize(state, data)
            state.last_output_shape = (batch,) + quantized.shape[1:]
            quantized = self.injector.apply_lane_injections(
                state, quantized, lanes)
        if self.detector is not None:
            quantized = self.detector.clamp(state.name, quantized)
        return quantized

    def _resume_output(self, state: LayerState, cached: np.ndarray) -> np.ndarray:
        """Serve ``state``'s layer call from its cached golden output."""
        if self._fault_lanes is not None:
            return self._lane_postprocess(state, cached, resumed=True)
        return self._inject(state, self._quantize(state, cached, resumed=True))

    # ------------------------------------------------------------------
    # checkpoint-and-resume partial execution (see core/resume.py)
    # ------------------------------------------------------------------
    def enable_resume(self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET) -> ResumeSession:
        """Create (or replace) the activation-checkpoint session.

        ``budget_bytes`` caps the activation cache (LRU-evicted beyond it;
        ``None`` = unlimited).  Call :meth:`capture_golden` afterwards to
        record the golden pass, then :meth:`forward_from` per injection.
        """
        self.resume_session = ResumeSession(self.model, budget_bytes)
        return self.resume_session

    def clear_resume(self) -> None:
        """Drop the resume session, its cached activations and metadata."""
        self.resume_session = None

    def capture_golden(self, images: np.ndarray) -> np.ndarray:
        """Run one clean forward pass, recording every leaf output.

        Returns the golden logits.  Requires :meth:`enable_resume` first and
        an attached platform; no injections may be armed (the recording must
        be fault-free to be a valid checkpoint).
        """
        if self.resume_session is None:
            raise RuntimeError("call enable_resume() before capture_golden()")
        if self.injector.active:
            raise RuntimeError("cannot record a golden pass with injections armed")
        self.model.eval()
        with get_tracer().span("goldeneye.capture_golden",
                               batch=int(np.asarray(images).shape[0])):
            with nn.no_grad(), np.errstate(over="ignore", invalid="ignore"):
                with self.resume_session.recording():
                    logits = self.model.forward_from(
                        self.resume_session, Tensor(np.asarray(images, dtype=np.float32)))
        # the hook's snapshots: injections read them, never mutate them
        self.resume_session.neuron_metadata.update(
            (name, state.neuron_golden_metadata)
            for name, state in self.layers.items())
        return logits.data.copy()

    def _resume_point(self, state: LayerState):
        """Where a resumed pass for ``state``'s layer starts, and how.

        Returns ``(start, resume)``.  ``start`` is the earliest recorded
        position among the layer and the layer of every armed plan (None
        when there is no usable recording: run a full forward).  ``resume``
        serves the call at ``start`` from the layer's cached output, or is
        None when that call must recompute: see :meth:`forward_from`.
        """
        session = self.resume_session
        if session is None or not session.recorded:
            return None, None
        sites = self.injector.armed_sites()
        starts = [session.start_index_for(self.layers[name].module)
                  for name in {state.name} | {layer for layer, _ in sites}]
        if None in starts:
            return None, None
        fmt, module = state.neuron_format, state.module
        if (sites <= {(state.name, "neuron")}
                and self.detector is None
                and fmt is not None
                and state.hook_handle is not None
                and not module._forward_pre_hooks
                and list(module._forward_hooks) == [state.hook_handle.id]
                and state.name in session.neuron_metadata
                and session.runs_once(module)):
            return min(starts), functools.partial(self._resume_output, state)
        return min(starts), None

    def _cone_servers(self) -> dict:
        """Convs a K=1 replay serves from their golden outputs, patched on
        the fault's cone: ``{id(module): server}`` (see :meth:`forward_from`)."""
        if self.detector is not None:
            return {}
        armed = {layer for layer, _ in self.injector.armed_sites()}
        servers = {}
        for name, state in self.layers.items():
            module, fmt = state.module, state.neuron_format
            # a module that runs twice has one golden register (its last
            # call's), which the first call's patch must not start from
            if (name in armed or type(module) is not nn.Conv2d
                    or module.groups != 1 or fmt is None
                    or fmt.stats_sink is not None
                    or state.hook_handle is None
                    or module._forward_pre_hooks
                    or list(module._forward_hooks) != [state.hook_handle.id]
                    or not self.resume_session.runs_once(module)):
                continue
            align = _block_alignment(fmt, state.last_output_shape)
            if align is not None:
                servers[id(module)] = functools.partial(self._serve_cone,
                                                        state, align)
        return servers

    def _serve_cone(self, state: LayerState, align: tuple[int, int],
                    x: np.ndarray, golden_input: np.ndarray,
                    golden: np.ndarray):
        """One conv call from its golden output, patched where ``x``
        differs from ``golden_input``: ``(output, region)``, where
        ``region`` is the ``((row0, row1), (col0, col1))`` recomputed, or
        None when the change does not reach the output."""
        box = changed_box(x, golden_input)
        if box is not None:
            module = state.module
            n, oc, oh, ow = golden.shape
            (kh, kw), (sh, sw), (ph, pw) = (
                module.weight.shape[2:], _pair(module.stride),
                _pair(module.padding))
            r0, r1 = conv_reach(box[0], box[1], kh, sh, ph, oh)
            c0, c1 = conv_reach(box[2], box[3], kw, sw, pw, ow)
            if r0 < r1 and c0 < c1:
                (r0, r1), (c0, c1) = _cone_region(
                    (r0, r1), (c0, c1), align, n, oc, oh, ow)
                region = self._cone_conv(state, x, (r0, r1), (c0, c1))
                quantized = state.neuron_format.real_to_format_tensor(region)
                out = golden.copy(order="K")
                out[:, :, r0:r1, c0:c1] = quantized
                self._patch_metadata(state, (r0, r1), (c0, c1), out.shape)
                return self._inject(state, out), ((r0, r1), (c0, c1))
        self._quantize(state, golden, resumed=True)
        state.last_output_shape = golden.shape
        return golden, None

    def _cone_conv(self, state: LayerState, x: np.ndarray,
                   rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
        """The cone region of ``state``'s conv output (a profiler books it
        as the layer's compute phase)."""
        module = state.module
        return nn.functional.conv2d_region(
            x, module.weight.data,
            None if module.bias is None else module.bias.data,
            _pair(module.stride), _pair(module.padding), rows, cols)

    def _patch_metadata(self, state: LayerState, rows: tuple[int, int],
                        cols: tuple[int, int], shape: tuple[int, ...]) -> None:
        """Set the register a dense pass would leave: the golden one with
        the region's blocks replaced by those just quantized."""
        fmt = state.neuron_format
        if isinstance(fmt.metadata, BfpMetadata):
            golden = self.resume_session.neuron_metadata[state.name]
            fields = golden.exp_fields.copy()
            n, oc, oh, ow = shape
            block = golden.block_size
            if cols == (0, ow):  # whole rows: a run of blocks per plane
                plane = fields.reshape(n * oc, oh * ow // block)
                plane[:, rows[0] * ow // block:rows[1] * ow // block] = (
                    fmt.metadata.exp_fields.reshape(n * oc, -1))
            else:
                grid = fields.reshape(n, oc, oh, ow // block)
                grid[:, :, rows[0]:rows[1], cols[0] // block:cols[1] // block] = (
                    fmt.metadata.exp_fields.reshape(
                        n, oc, rows[1] - rows[0], -1))
            fmt.metadata = BfpMetadata(fields, block, golden.numel)
        state.neuron_golden_metadata = _copy_metadata(fmt.metadata)

    def forward_from(self, layer: str, images: np.ndarray) -> np.ndarray:
        """Resume inference from ``layer``, replaying the cached prefix.

        Every leaf module that executed before ``layer``'s first appearance
        in the recorded golden pass returns its cached output, and
        everything downstream of ``layer`` re-executes, applying any armed
        injections.  A plan armed at an earlier layer moves the resume
        point back to that layer, so no armed plan is skipped.

        ``layer`` itself is served from its own cached output when every
        armed plan is a neuron plan (value or metadata) at ``layer``: its
        golden neuron metadata is restored and the armed corruption applied
        to the cached tensor, so its compute and quantizer do not run.  That
        needs the cached tensor to be the pre-injection value and nothing to
        observe the call: no range detector, no pre-hook or foreign forward
        hook on its module, and a module that ran once in the recorded pass.
        A profiler or numerics monitor observes nothing; a served call books
        the profiler's inject phase but no numeric-health conversion, as
        the replayed layers upstream do not.  Otherwise, or when its cache
        entry is missing, ``layer`` recomputes on its replayed inputs.  A
        call served from its own output counts as a cache hit and as
        ``replayed`` in the session's stats.

        Downstream, each instrumented ``Conv2d`` is served from its cached
        output patched on the fault's cone (cone-of-influence replay, see
        :mod:`repro.core.resume`): it compares its input's bits with the
        golden input, returns the cached output whole when the change does
        not reach it, and otherwise recomputes, quantizes and writes back
        only the reached region, widened to whole quantization blocks and
        to :data:`CONE_GEMM_FLOOR` GEMM elements, leaving the metadata
        register as the dense pass would.  A conv computes densely when it
        has an armed plan, a range detector or stats sink observes it, a
        pre-hook or foreign hook is on it, ``groups > 1``, it ran more than
        once in the recorded pass, its format's
        state is tensor-global (an INT scale, AFP's bias, whole-tensor
        BFP) or its BFP blocks do not tile the output plane, or its golden
        input or output is not cached.  A profiler books the region as the
        layer's compute and quantize phases.

        Falls back to a full forward pass — still bit-exact — when no valid
        recording exists for this batch.  ``images`` must be the batch given
        to :meth:`capture_golden`.
        """
        state = self.layers.get(layer)
        if state is None:
            raise KeyError(f"layer {layer!r} is not instrumented")
        start, resume = self._resume_point(state)
        x = Tensor(np.asarray(images, dtype=np.float32))
        self.model.eval()
        with nn.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            if start is None:
                logits = self.model(x)  # fallback: full forward
            else:
                with self.resume_session.replaying(
                        start, resume=resume, cone=self._cone_servers()):
                    logits = self.model.forward_from(self.resume_session, x)
        return logits.data.copy()

    def forward_from_batched(self, layer: str, plans,
                             images: np.ndarray) -> np.ndarray:
        """Evaluate K independent neuron injections in one forward pass.

        The evaluation batch is tiled K times along axis 0 — one replica
        *lane* per plan — and the suffix below ``layer`` runs once over the
        stack, with plan ``k``'s corruption applied only to lane ``k``
        (every lane's flip lands in a single
        :func:`~repro.formats.vectorized.flip_values_batched` call for
        stateless formats).  When a golden recording exists the cached
        prefix is tiled instead of recomputed, and ``layer`` is served from
        its tiled cached output under :meth:`forward_from`'s conditions
        (metadata formats restore the golden metadata once per lane).
        Returns logits of shape
        ``(K, batch, ...)``: ``out[k]`` is bit-identical to
        ``forward_from(layer, images)`` with ``plans[k]`` armed alone
        (GEMMs are lane-chunked — :mod:`repro.nn.lanes` — so BLAS sees the
        exact K=1 shapes).

        Only same-layer neuron plans batch, value or metadata (a lane's
        register is live during its own quantize); weight plans perturb
        parameters every lane shares and go through the per-plan path.
        """
        state = self.layers.get(layer)
        if state is None:
            raise KeyError(f"layer {layer!r} is not instrumented")
        plans = list(plans)
        if not plans:
            raise ValueError("forward_from_batched needs at least one plan")
        for plan in plans:
            if plan.location != "neuron":
                raise ValueError(f"only neuron plans can batch, got {plan!r}")
            if plan.layer != layer:
                raise ValueError(
                    f"plan targets layer {plan.layer!r}, expected {layer!r}")
        images = np.asarray(images, dtype=np.float32)
        lanes, batch = len(plans), images.shape[0]
        tiled = np.tile(images, (lanes,) + (1,) * (images.ndim - 1))
        self.model.eval()
        with self.injector.armed(*plans):
            start, resume = self._resume_point(state)
            self._fault_lanes = (lanes, batch)
            try:
                with nn.no_grad(), np.errstate(over="ignore", invalid="ignore"), \
                        nn.lane_scope(lanes):
                    if start is None:
                        logits = self.model(Tensor(tiled))
                    else:
                        with self.resume_session.replaying(
                                start, lanes=lanes, resume=resume):
                            logits = self.model.forward_from(
                                self.resume_session, Tensor(tiled))
            finally:
                self._fault_lanes = None
        out = logits.data.copy()
        return out.reshape((lanes, batch) + out.shape[1:])

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def layer_names(self) -> list[str]:
        return list(self.layers)

    def layer_output_shape(self, name: str) -> tuple[int, ...] | None:
        return self.layers[name].last_output_shape

    def describe(self) -> str:
        """Human-readable instrumentation summary."""
        lines = [f"GoldenEye(format={self._format_spec!r}, "
                 f"weights={self.quantize_weights}, neurons={self.quantize_neurons}, "
                 f"detector={'on' if self.detector else 'off'})"]
        for state in self.layers.values():
            fmt = state.neuron_format or state.weight_format
            lines.append(f"  {state.name}: {type(state.module).__name__} -> {fmt}")
        return "\n".join(lines)

    def spawn_format(self) -> NumberFormat | None:
        """A fresh instance of the (single) configured format, if uniform."""
        if isinstance(self._format_spec, Mapping):
            return None
        return make_format(self._format_spec)

    def format_name(self) -> str:
        """Display name of the configured format (``"mixed"`` if per-layer).

        Unlike :meth:`spawn_format` this never instantiates a throwaway
        format object for uniform configurations already materialised in a
        layer state.
        """
        if isinstance(self._format_spec, Mapping):
            return "mixed"
        if isinstance(self._format_spec, NumberFormat):
            return self._format_spec.name
        for state in self.layers.values():
            fmt = state.neuron_format or state.weight_format
            if fmt is not None:
                return fmt.name
        return make_format(self._format_spec).name


def _straight_through(original: nn.Tensor, quantized_data: np.ndarray) -> nn.Tensor:
    """Wrap quantized data as a Tensor whose gradient bypasses the emulation.

    The straight-through estimator is what makes "number format emulation ...
    supported for training ... as backpropagation is supported" (§V-B).
    """
    out = original._make(quantized_data.astype(np.float32, copy=False), (original,))
    if out.requires_grad:

        def _backward():
            original._accumulate(out.grad)

        out._backward = _backward
    return out
