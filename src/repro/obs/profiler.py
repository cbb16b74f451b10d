"""Per-layer phase profiler: where does an instrumented forward go?

An emulated forward pass through a GoldenEye-instrumented layer has four cost
phases (§III-A's hook flow):

* ``compute``  — the layer module's native FP32 ``forward``, or the region
  a cone-of-influence replay recomputes (``GoldenEye._cone_conv``);
* ``quantize`` — its neuron format's ``real_to_format_tensor``;
* ``inject``   — the injection engine's ``apply_neuron_injections``,
  ``apply_lane_injection`` and ``apply_lane_injections``;
* ``detect``   — the optional range detector's ``clamp``.

:meth:`LayerProfiler.attach`, called by ``GoldenEye.attach``, shadows those
methods on the platform's own objects with timing wrappers that book seconds,
elements (→ ns/element, the accelerator-kernel figure of merit) and calls per
``(layer, phase)`` as counters in the process registry;
:meth:`~LayerProfiler.detach` deletes the wrappers.  No hook observes a
layer's call, so the output resume and fault-axis batching run under a
profiler as without one, and forked campaign workers' bookings reach the
parent in the :class:`~repro.obs.telemetry.RunScope` deltas the supervisor
merges.  The readouts report the registry's delta since the first attach.

Usage::

    prof = LayerProfiler()
    with GoldenEye(model, "bfp_e5m5_b16", profiler=prof) as platform:
        run_campaign(platform, images, labels, ...)
    print(prof.table())
"""

from __future__ import annotations

import functools
import time
from typing import TYPE_CHECKING

from .telemetry import RunScope, get_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.goldeneye import GoldenEye

__all__ = ["LayerProfiler"]

PHASES = ("compute", "quantize", "inject", "detect")

#: readout field -> (registry counter each ``(layer, phase)`` books, help)
_COUNTERS = {
    "total_s": ("profile.phase_seconds", "wall seconds in the phase"),
    "elements": ("profile.phase_elements", "tensor elements the phase handled"),
    "calls": ("profile.phase_calls", "calls of the phase"),
}


class LayerProfiler:
    """Per-layer phase timing + activation-memory accounting."""

    def __init__(self):
        self._scope: RunScope | None = None
        self._wrapped: list[tuple[object, str]] = []
        #: layer -> (peak output bytes, that output's shape)
        self._peaks: dict[str, tuple] = {}

    def attach(self, platform: "GoldenEye") -> "LayerProfiler":
        """Wrap the calls behind the four phases on ``platform``'s objects."""
        registry = get_registry()
        if self._scope is None:
            self._scope = registry.run_scope("profile").__enter__()
        counters = {
            (layer, phase): tuple(
                registry.counter(name, help=help, layer=layer, phase=phase)
                for name, help in _COUNTERS.values())
            for layer in platform.layers for phase in PHASES}
        wrap = functools.partial(self._wrap, counters)
        for layer, state in platform.layers.items():
            wrap(state.module, "forward", "compute", lambda a, name=layer: name,
                 functools.partial(self._output_size, layer))
            if state.neuron_format is not None:
                wrap(state.neuron_format, "real_to_format_tensor", "quantize",
                     lambda a, name=layer: name, lambda a, out: a[0].size)
        # a conv served from its golden output computes only the fault's
        # cone: that region is the layer's compute phase
        wrap(platform, "_cone_conv", "compute", lambda a: a[0].name,
             lambda a, out: out.size)
        for method in ("apply_neuron_injections", "apply_lane_injection",
                       "apply_lane_injections"):
            wrap(platform.injector, method, "inject", lambda a: a[0].name,
                 lambda a, out: a[1].size)
        if platform.detector is not None:
            wrap(platform.detector, "clamp", "detect", lambda a: a[0],
                 lambda a, out: a[1].size)
        return self

    def _wrap(self, counters, obj, method: str, phase: str, layer_of,
              size_of) -> None:
        """Shadow ``obj.method`` with a wrapper booking ``phase`` for the
        layer ``layer_of(args)`` names, ``size_of(args, out)`` elements."""
        call = getattr(obj, method)

        def timed(*args):
            t0 = time.perf_counter()
            out = call(*args)
            total_s, elements, calls = counters[layer_of(args), phase]
            total_s.inc(time.perf_counter() - t0)
            elements.inc(size_of(args, out))
            calls.inc()
            return out

        setattr(obj, method, timed)
        self._wrapped.append((obj, method))

    def _output_size(self, layer: str, args, out) -> int:
        """Elements of ``layer``'s output; its bytes feed the layer's peak."""
        data = out.data
        if data.nbytes > self._peaks.get(layer, (0,))[0]:
            self._peaks[layer] = (data.nbytes, data.shape)
        return data.size

    def detach(self) -> None:
        """Delete every wrapper this profiler installed."""
        for obj, method in self._wrapped:
            vars(obj).pop(method, None)
        self._wrapped.clear()

    # ------------------------------------------------------------------
    # readouts
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """``{layer: {"phases": {phase: stats}, "activation_bytes",
        "output_shape"}}`` of what this profiler booked.

        ``stats`` holds ``calls``, ``total_s``, ``elements`` and
        ``ns_per_element``; ``activation_bytes`` is the layer's peak output
        bytes in this process (a fault-batched call stacks K replicas) and
        ``output_shape`` that output's shape.
        """
        delta = self._scope.delta() if self._scope is not None else {}
        out: dict[str, dict] = {}
        for field, (name, _) in _COUNTERS.items():
            for entry in delta.get(name, ()):
                labels = entry["labels"]
                profile = out.setdefault(labels["layer"], {"phases": {
                    p: dict.fromkeys(_COUNTERS, 0) for p in PHASES}})
                profile["phases"][labels["phase"]][field] = entry["value"]
        for layer, profile in out.items():
            for stats in profile["phases"].values():
                stats["calls"] = int(stats["calls"])
                stats["elements"] = int(stats["elements"])
                stats["ns_per_element"] = (
                    stats["total_s"] * 1e9 / stats["elements"]
                    if stats["elements"] else 0.0)
            nbytes, shape = self._peaks.get(layer, (0, None))
            profile["activation_bytes"] = nbytes
            profile["output_shape"] = list(shape) if shape else None
        return out

    def total_seconds(self, phase: str | None = None) -> float:
        return sum(stats["total_s"]
                   for profile in self.as_dict().values()
                   for name, stats in profile["phases"].items()
                   if phase is None or name == phase)

    def table(self) -> str:
        """Fixed-width per-layer report (phases in ms + ns/element + bytes)."""
        header = (f"{'layer':<24} {'phase':<9} {'calls':>7} {'total ms':>10} "
                  f"{'ns/elem':>9} {'act bytes':>11}")
        lines = [header, "-" * len(header)]
        for layer, profile in self.as_dict().items():
            first = True
            for phase in PHASES:
                stats = profile["phases"][phase]
                if stats["calls"] == 0:
                    continue
                mem = (f"{profile['activation_bytes']:>11,}" if first
                       else f"{'':>11}")
                lines.append(
                    f"{layer if first else '':<24} {phase:<9} "
                    f"{stats['calls']:>7} {stats['total_s'] * 1e3:>10.2f} "
                    f"{stats['ns_per_element']:>9.1f} {mem}")
                first = False
        if len(lines) == 2:
            lines.append("(no layers profiled — run a forward pass first)")
        return "\n".join(lines)
