"""Numeric-health monitors: how a number format degrades, per layer.

GoldenEye's premise is that the *way* a format fails — saturating, flushing
small activations to zero, remapping NaN — explains its fault-injection
behaviour (Table I's dynamic ranges; §IV-B's "low magnitude numbers may
suffer, by being essentially rounded to zero").  Fuzzy-PyTorch-style
per-layer numerical-variability instrumentation (PAPERS.md) makes that
visible: this module records, per ``layer x role x format``,

* quantization-error histograms, absolute (``numerics.abs_error``) and
  ulp-relative (``numerics.ulp_error``: error over the format's local step
  ``2^-radix * |x|``, so 0.5 == worst-case correct rounding);
* saturation/overflow, underflow/flush-to-zero and NaN-remap counters
  (``numerics.saturated_total`` / ``flushed_total`` / ``nan_remapped_total``),
  fed by the saturation paths inside each format's tensor conversion;
* dynamic-range coverage gauges (``numerics.range_used_db`` — the observed
  ``20*log10(max|x|/min|x|)`` over nonzero finite inputs — against the
  format's Table-1 range ``numerics.format_range_db``, with the ratio in
  ``numerics.range_coverage``).

The coupling to the formats is a duck-typed *stats sink*
(:class:`NumericStatsSink`) installed through
:meth:`repro.formats.base.NumberFormat.set_stats_sink`; formats never import
``repro.obs``, and a format without a sink pays one ``is not None`` check per
tensor conversion (budgeted < 2% by ``benchmarks/bench_numerics_overhead.py``).

The sinks book into the process registry, as the profiler does, so forked
campaign workers' bookings reach the parent in the per-shard
:class:`~repro.obs.telemetry.RunScope` deltas the supervisor merges.  A
conversion is booked when a format quantizes a tensor: a layer served from
its cached output books nothing, and a K-lane pass books K conversions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from .telemetry import Histogram, MetricsRegistry, RunScope, get_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.goldeneye import GoldenEye
    from ..formats.base import NumberFormat

__all__ = [
    "NumericStatsSink",
    "NumericHealthMonitor",
    "summarize_numerics",
    "summarize_collected",
    "ABS_ERROR_BUCKETS",
    "ULP_ERROR_BUCKETS",
]

#: log-spaced absolute-error buckets (quantization steps span many decades)
ABS_ERROR_BUCKETS = tuple(10.0 ** e for e in range(-9, 5))

#: ulp-relative buckets: 0.5 is the correct-rounding bound; >1 means the
#: value landed outside the format's local grid (saturation / flush)
ULP_ERROR_BUCKETS = (0.001, 0.01, 0.0625, 0.125, 0.25, 0.5,
                     1.0, 2.0, 4.0, 16.0, 256.0, 65536.0)

_TINY = float(np.finfo(np.float32).tiny)


def _bulk_observe(hist: Histogram, values: np.ndarray) -> None:
    """Vectorized ``hist.observe`` for a 1-D array (NaNs -> nan_count)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    nan_mask = np.isnan(values)
    if nan_mask.any():
        hist.nan_count += int(np.count_nonzero(nan_mask))
        values = values[~nan_mask]
    n = values.size
    if n == 0:
        return
    hist.count += n
    hist.sum += float(values.sum())
    vmin = float(values.min())
    vmax = float(values.max())
    if vmin < hist.min:
        hist.min = vmin
    if vmax > hist.max:
        hist.max = vmax
    # first bound with value <= bound == searchsorted side='left'
    idx = np.searchsorted(np.asarray(hist.buckets), values, side="left")
    counts = np.bincount(idx, minlength=len(hist.buckets) + 1)
    for i, c in enumerate(counts):
        if c:
            hist.bucket_counts[i] += int(c)


def _format_range_db(fmt: "NumberFormat") -> float:
    """Table-1 dynamic range of ``fmt`` in dB (NaN when unknown)."""
    try:
        from ..formats.ranges import dynamic_range
        return float(dynamic_range(fmt).db)
    except Exception:
        return float("nan")


class NumericStatsSink:
    """Stats sink for one ``layer x role x format`` stream.

    Resolves all its metric objects once at construction (the registry
    get-or-create path is lock-guarded; the record path is plain-number
    mutation), so per-tensor cost is a handful of numpy reductions.
    """

    __slots__ = ("registry", "layer", "role", "format_name", "radix",
                 "tensors", "elements", "saturated", "flushed", "nan_remapped",
                 "abs_error", "ulp_error",
                 "range_used", "range_coverage", "format_range",
                 "_min_abs", "_max_abs", "_format_db")

    def __init__(self, registry: MetricsRegistry, layer: str, role: str,
                 fmt: "NumberFormat"):
        self.registry = registry
        self.layer = layer
        self.role = role
        self.format_name = fmt.name
        self.radix = int(getattr(fmt, "radix", 0))
        labels = {"layer": layer, "role": role, "format": fmt.name}
        self.tensors = registry.counter(
            "numerics.tensors_total",
            help="tensor conversions observed", **labels)
        self.elements = registry.counter(
            "numerics.elements_total",
            help="elements quantized", **labels)
        self.saturated = registry.counter(
            "numerics.saturated_total",
            help="elements clipped at the format's max magnitude", **labels)
        self.flushed = registry.counter(
            "numerics.flushed_total",
            help="nonzero finite elements quantized to zero", **labels)
        self.nan_remapped = registry.counter(
            "numerics.nan_remapped_total",
            help="NaN inputs remapped to a representable value", **labels)
        self.abs_error = registry.histogram(
            "numerics.abs_error", help="absolute quantization error |x - q(x)|",
            buckets=ABS_ERROR_BUCKETS, **labels)
        self.ulp_error = registry.histogram(
            "numerics.ulp_error",
            help="quantization error in format-local steps (0.5 = correct rounding)",
            buckets=ULP_ERROR_BUCKETS, **labels)
        self.range_used = registry.gauge(
            "numerics.range_used_db",
            help="observed input dynamic range 20log10(max|x|/min|x|)", **labels)
        self.range_coverage = registry.gauge(
            "numerics.range_coverage",
            help="observed range / format Table-1 range", **labels)
        self.format_range = registry.gauge(
            "numerics.format_range_db",
            help="format dynamic range (Table 1)", **labels)
        self._min_abs = math.inf
        self._max_abs = 0.0
        self._format_db = _format_range_db(fmt)
        if self._format_db == self._format_db:  # skip NaN
            self.format_range.set(self._format_db)

    def record(self, fmt: "NumberFormat", original: np.ndarray,
               quantized: np.ndarray, *, saturated: int = 0,
               flushed: int = 0, nan_remapped: int = 0) -> None:
        """Fold one tensor conversion into the stream.

        ``original``/``quantized`` are the FP32 input and output of
        ``real_to_format_tensor``; the counts come from the format's own
        saturation paths (each format knows *why* a value moved).
        """
        x = np.asarray(original, dtype=np.float64).reshape(-1)
        q = np.asarray(quantized, dtype=np.float64).reshape(-1)
        self.tensors.inc()
        self.elements.inc(x.size)
        if saturated:
            self.saturated.inc(saturated)
        if flushed:
            self.flushed.inc(flushed)
        if nan_remapped:
            self.nan_remapped.inc(nan_remapped)
        finite = np.isfinite(x) & np.isfinite(q)
        if finite.any():
            xf = x[finite]
            err = np.abs(xf - q[finite])
            _bulk_observe(self.abs_error, err)
            # local grid step ~ 2^-radix * |x| (within 2x of the true ulp)
            step = np.ldexp(np.maximum(np.abs(xf), _TINY), -self.radix)
            _bulk_observe(self.ulp_error, err / step)
            # dynamic-range coverage over nonzero finite inputs
            mags = np.abs(xf)
            nz = mags > 0.0
            if nz.any():
                lo = float(mags[nz].min())
                hi = float(mags[nz].max())
                changed = False
                if lo < self._min_abs:
                    self._min_abs = lo
                    changed = True
                if hi > self._max_abs:
                    self._max_abs = hi
                    changed = True
                if changed and self._min_abs > 0.0:
                    used_db = 20.0 * math.log10(self._max_abs / self._min_abs)
                    self.range_used.set(used_db)
                    if self._format_db == self._format_db and self._format_db > 0:
                        self.range_coverage.set(used_db / self._format_db)


class NumericHealthMonitor:
    """Monitor wiring :class:`NumericStatsSink` streams into a
    :class:`~repro.core.goldeneye.GoldenEye` platform.

    Pass an instance as ``GoldenEye(..., numerics=monitor)`` (or call
    :meth:`attach` on an existing platform): every instrumented layer's
    neuron and weight format gets a sink keyed ``layer x role x format``.
    ``detach`` removes the sinks; a platform without a monitor pays a single
    ``is not None`` check per conversion.
    """

    def __init__(self):
        self._scope: RunScope | None = None
        self._sinks: dict[tuple[str, str, str], NumericStatsSink] = {}
        self._installed: list[Any] = []

    def sink(self, layer: str, role: str, fmt: "NumberFormat") -> NumericStatsSink:
        """Get-or-create the sink for one ``layer x role x format`` stream
        (the first one opens the run :meth:`as_dict` reports)."""
        key = (layer, role, fmt.name)
        sink = self._sinks.get(key)
        if sink is None:
            registry = get_registry()
            if self._scope is None:
                self._scope = registry.run_scope("numerics").__enter__()
            sink = NumericStatsSink(registry, layer, role, fmt)
            self._sinks[key] = sink
        return sink

    # ------------------------------------------------------------------
    # platform wiring
    # ------------------------------------------------------------------
    def attach(self, platform: "GoldenEye") -> "NumericHealthMonitor":
        """Install sinks on every layer format of ``platform``."""
        for state in platform.layers.values():
            if state.weight_format is not None:
                state.weight_format.set_stats_sink(
                    self.sink(state.name, "weight", state.weight_format))
                self._installed.append(state.weight_format)
            if state.neuron_format is not None:
                state.neuron_format.set_stats_sink(
                    self.sink(state.name, "neuron", state.neuron_format))
                self._installed.append(state.neuron_format)
        return self

    def detach(self) -> None:
        """Remove every sink this monitor installed."""
        for fmt in self._installed:
            fmt.set_stats_sink(None)
        self._installed.clear()

    # ------------------------------------------------------------------
    # readouts
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Per-``layer x role`` summary of this monitor's own run.

        Counters and histograms are the registry's delta since the first
        stream (merged worker bookings in, an earlier monitor's run out);
        gauges are read at their current value.
        """
        delta = self._scope.delta() if self._scope is not None else {}
        collected = {name: [e for e in entries if e["type"] != "gauge"]
                     for name, entries in delta.items()
                     if name.startswith("numerics.")}
        for sink in self._sinks.values():
            for gauge in (sink.range_used, sink.range_coverage,
                          sink.format_range):
                collected.setdefault(gauge.name, []).append(
                    {"labels": gauge.labels, "value": gauge.value})
        return summarize_collected(collected)

    def table(self) -> str:
        """Fixed-width text table of :meth:`as_dict` (CLI-friendly)."""
        rows = []
        for layer, roles in sorted(self.as_dict().items()):
            for role, s in sorted(roles.items()):
                rows.append((layer, role, s["format"],
                             f"{int(s['elements']):d}",
                             f"{s['saturation_rate']:.2e}",
                             f"{s['flush_rate']:.2e}",
                             f"{s['nan_remapped']:.0f}",
                             f"{s['abs_error']['mean']:.3g}",
                             f"{s['ulp_error']['mean']:.3g}",
                             f"{s['range_used_db']:.1f}",
                             f"{s['range_coverage']:.2f}"))
        header = ("layer", "role", "format", "elements", "sat_rate",
                  "flush_rate", "nan", "abs_err", "ulp_err",
                  "used_dB", "coverage")
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
                  else len(header[i]) for i in range(len(header))]
        fmt_row = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt_row.format(*header)]
        lines.extend(fmt_row.format(*r) for r in rows)
        return "\n".join(lines)


def summarize_numerics(registry: MetricsRegistry | None = None) -> dict:
    """``{layer: {role: {...}}}`` summary of the ``numerics.*`` metrics."""
    registry = registry if registry is not None else get_registry()
    return summarize_collected(registry.collect(prefix="numerics."))


def summarize_collected(collected: dict) -> dict:
    """Like :func:`summarize_numerics` but over an already-collected snapshot
    (e.g. the ``metrics`` mapping of a ``--metrics-json`` artifact) — this is
    what lets ``repro report`` rebuild the numeric-health view offline."""
    out: dict[str, dict[str, dict]] = {}

    def entry(labels: dict) -> dict:
        layer = labels.get("layer", "?")
        role = labels.get("role", "?")
        return out.setdefault(layer, {}).setdefault(role, {
            "format": labels.get("format", "?"),
            "tensors": 0.0, "elements": 0.0, "saturated": 0.0,
            "flushed": 0.0, "nan_remapped": 0.0,
            "abs_error": {"count": 0, "mean": 0.0, "max": None},
            "ulp_error": {"count": 0, "mean": 0.0, "max": None},
            "range_used_db": 0.0, "range_coverage": 0.0,
            "format_range_db": 0.0,
        })

    simple = {
        "numerics.tensors_total": "tensors",
        "numerics.elements_total": "elements",
        "numerics.saturated_total": "saturated",
        "numerics.flushed_total": "flushed",
        "numerics.nan_remapped_total": "nan_remapped",
        "numerics.range_used_db": "range_used_db",
        "numerics.range_coverage": "range_coverage",
        "numerics.format_range_db": "format_range_db",
    }
    hists = {"numerics.abs_error": "abs_error", "numerics.ulp_error": "ulp_error"}
    for name, entries in collected.items():
        if not name.startswith("numerics."):
            continue
        for snap in entries:
            labels = snap.get("labels", {})
            if name in simple:
                entry(labels)[simple[name]] = float(snap.get("value", 0.0))
            elif name in hists:
                entry(labels)[hists[name]] = {
                    "count": snap.get("count", 0),
                    "mean": snap.get("mean", 0.0),
                    "max": snap.get("max"),
                }
    for roles in out.values():
        for s in roles.values():
            elements = s["elements"] or 0.0
            s["saturation_rate"] = s["saturated"] / elements if elements else 0.0
            s["flush_rate"] = s["flushed"] / elements if elements else 0.0
    return out
