"""Process-wide metrics registry: Counter / Gauge / Histogram primitives.

GoldenEye's pitch is *speed* (Fig. 3, the ΔLoss metric chosen "because it
converges asymptotically faster", §IV-C), and the checkpoint-resume engine
claims order-of-magnitude campaign speedups — claims that are only testable
if the platform measures itself.  This module is the measurement substrate:
a small, dependency-free, thread-safe metrics registry in the spirit of
``prometheus_client``, consumed by the injection engine, the campaign
runner, the resume cache, and the CLI exporters (:mod:`repro.obs.export`).

Design points
-------------
* **Cheap on the hot path.**  Instruments resolve their metric objects once
  (``registry.counter(...)`` returns the same object for the same
  name+labels) and then mutate plain Python numbers lock-free; the registry
  lock guards only creation and collection.  A disabled registry is simply
  one that nobody exports.
* **Labels.**  Each metric is keyed by ``(name, sorted(labels.items()))``;
  the same name may carry many label sets (e.g. one ``campaign.layer_seconds``
  histogram per layer).
* **Scoped per-run views.**  ``with registry.run_scope("campaign-3") as view``
  snapshots every counter/histogram at entry; ``view.delta()`` returns just
  what this run contributed, so concurrent or sequential campaigns can report
  isolated numbers out of one process-wide registry.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunScope",
    "get_registry",
    "set_registry",
    "reset_registry",
    "merge_metric_delta",
]

#: default histogram bucket upper bounds (seconds-flavoured, but generic)
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared identity for all metric primitives."""

    kind = "metric"

    __slots__ = ("name", "labels", "help")

    def __init__(self, name: str, labels: dict[str, str], help: str = ""):
        self.name = name
        self.labels = dict(labels)
        self.help = help

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.name, _label_key(self.labels))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lab = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"{type(self).__name__}({self.name}{{{lab}}})"


class Counter(_Metric):
    """Monotonically increasing count (flips performed, cache hits, ...).

    NaN increments are refused and tallied in :attr:`nan_count` instead of
    silently poisoning the running total (a single NaN would make every
    downstream export report NaN forever).
    """

    kind = "counter"

    __slots__ = ("_value", "nan_count")

    def __init__(self, name: str, labels: dict[str, str], help: str = ""):
        super().__init__(name, labels, help)
        self._value = 0.0
        self.nan_count = 0

    def inc(self, amount: float = 1.0) -> None:
        if amount != amount:  # NaN guard: never poison the accumulation
            self.nan_count += 1
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        snap = {"value": self._value}
        if self.nan_count:
            snap["nan_count"] = self.nan_count
        return snap


class Gauge(_Metric):
    """A value that can go up and down (cache bytes, hit-rate, progress).

    ``set(nan)`` keeps the previous value and tallies :attr:`nan_count`
    instead — a gauge is *state*, and NaN state helps nobody downstream.
    """

    kind = "gauge"

    __slots__ = ("_value", "nan_count")

    def __init__(self, name: str, labels: dict[str, str], help: str = ""):
        super().__init__(name, labels, help)
        self._value = 0.0
        self.nan_count = 0

    def set(self, value: float) -> None:
        value = float(value)
        if value != value:  # NaN guard
            self.nan_count += 1
            return
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set_to_current_time(self) -> None:
        self._value = time.time()

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        snap = {"value": self._value}
        if self.nan_count:
            snap["nan_count"] = self.nan_count
        return snap


class Histogram(_Metric):
    """Bucketed distribution (per-layer timings, ΔLoss spread, ...).

    ``observe(nan)`` is counted in :attr:`nan_count` and otherwise ignored:
    a single NaN ΔLoss must not poison ``sum``/``mean`` and every export
    derived from them.
    """

    kind = "histogram"

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max",
                 "nan_count")

    def __init__(self, name: str, labels: dict[str, str], help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, labels, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.nan_count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:  # NaN guard: count, never accumulate
            self.nan_count += 1
            return
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def merge(self, entry: dict) -> None:
        """Fold a serialized delta (from :meth:`RunScope.delta`) into this
        histogram — the cross-process merge primitive used by the parallel
        campaign supervisor to adopt worker-side observations.

        ``entry`` carries ``count``/``sum`` (and optionally ``min``/``max``,
        per-bound ``buckets`` and ``nan_count``).  Bucket bounds are matched
        by value; a foreign bound with no exact local match lands in the
        first local bucket that covers it.
        """
        count = int(entry.get("count", 0) or 0)
        self.nan_count += int(entry.get("nan_count", 0) or 0)
        if count <= 0:
            return
        self.count += count
        self.sum += float(entry.get("sum", 0.0) or 0.0)
        lo = entry.get("min")
        hi = entry.get("max")
        if lo is not None and float(lo) < self.min:
            self.min = float(lo)
        if hi is not None and float(hi) > self.max:
            self.max = float(hi)
        buckets = entry.get("buckets")
        if not buckets:
            # no distribution detail: attribute everything to the mean
            mean = float(entry.get("sum", 0.0) or 0.0) / count
            self.bucket_counts[self._bucket_index(mean)] += count
            return
        for key, n in buckets.items():
            if not n:
                continue
            bound = math.inf if key in ("+inf", "inf") else float(key)
            self.bucket_counts[self._bucket_index(bound)] += int(n)

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)  # +inf bucket

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        # Copy the bucket list in one step before reading anything else: a
        # live scrape snapshots while observe() mutates, and list() of a
        # fixed-size list is atomic under the GIL, so the bucket view is
        # internally consistent even when count/sum race slightly ahead.
        counts = list(self.bucket_counts)
        count = self.count
        snap = {
            "count": count,
            "sum": self.sum,
            "mean": self.sum / count if count else 0.0,
            "min": self.min if count else None,
            "max": self.max if count else None,
            "buckets": {
                ("+inf" if i == len(self.buckets) else repr(self.buckets[i])): c
                for i, c in enumerate(counts)
            },
        }
        if self.nan_count:
            snap["nan_count"] = self.nan_count
        return snap


class MetricsRegistry:
    """Thread-safe registry of named metrics with label support."""

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: dict[tuple, _Metric] = {}

    # ------------------------------------------------------------------
    # metric factories (get-or-create; same name+labels -> same object)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Histogram(name, labels, help, buckets=buckets)
                self._metrics[key] = metric
            elif not isinstance(metric, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def _get_or_create(self, cls, name: str, help: str, labels: dict) -> _Metric:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, help)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    # ------------------------------------------------------------------
    # introspection / export support
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[_Metric]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def get(self, name: str, **labels: str) -> _Metric | None:
        """Fetch an existing metric without creating it."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def collect(self, prefix: str = "") -> dict:
        """Snapshot every metric (optionally filtered by name prefix)."""
        out: dict[str, list[dict]] = {}
        with self._lock:
            for metric in self._metrics.values():
                if prefix and not metric.name.startswith(prefix):
                    continue
                out.setdefault(metric.name, []).append({
                    "type": metric.kind,
                    "labels": dict(metric.labels),
                    **metric.snapshot(),
                })
        return out

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # scoped per-run views
    # ------------------------------------------------------------------
    def run_scope(self, run_id: str) -> "RunScope":
        """Per-run delta view: counters/histograms relative to scope entry."""
        return RunScope(self, run_id)


class RunScope:
    """Context manager isolating one run's contribution to the registry.

    Counters and histogram (count, sum) pairs are reported as deltas against
    the values at scope entry; gauges are reported at their current value
    (a gauge is a *state*, not an accumulation) — but only when the run
    touched them (set during the scope, or changed vs the entry snapshot).
    """

    def __init__(self, registry: MetricsRegistry, run_id: str):
        self.registry = registry
        self.run_id = run_id
        self.started_at: float | None = None
        self.ended_at: float | None = None
        self._entry: dict[tuple, dict] = {}

    def __enter__(self) -> "RunScope":
        self.started_at = time.time()
        self._entry = {m.key: m.snapshot() for m in self.registry}
        return self

    def __exit__(self, *exc) -> None:
        self.ended_at = time.time()

    def delta(self) -> dict:
        """This run's contribution: ``{name: [{labels, type, ...}, ...]}``.

        Histogram entries carry enough structure (``min``/``max``, per-bound
        ``buckets`` deltas, ``nan_count``) for :meth:`Histogram.merge` to fold
        them into another process's registry without losing distribution
        detail — this is the wire format the parallel campaign workers stream
        back to the supervisor.  ``min``/``max`` are reported only where this
        run's observations set them (the histogram was empty at scope entry,
        or the extreme moved past the entry snapshot's) and are None
        otherwise: a registry keeps no per-run extremes.
        """
        out: dict[str, list[dict]] = {}
        for metric in self.registry:
            snap = metric.snapshot()
            base = self._entry.get(metric.key)
            nan_delta = snap.get("nan_count", 0) - (
                base.get("nan_count", 0) if base else 0)
            if metric.kind == "counter":
                value = snap["value"] - (base["value"] if base else 0.0)
                if value == 0.0 and nan_delta == 0:
                    continue
                entry = {"value": value}
            elif metric.kind == "histogram":
                count = snap["count"] - (base["count"] if base else 0)
                if count == 0 and nan_delta == 0:
                    continue
                total = snap["sum"] - (base["sum"] if base else 0.0)
                base_buckets = base.get("buckets", {}) if base else {}
                buckets = {
                    key: n - base_buckets.get(key, 0)
                    for key, n in snap["buckets"].items()
                    if n - base_buckets.get(key, 0)
                }
                fresh = base is None or not base["count"]
                lo, hi = snap["min"], snap["max"]
                entry = {"count": count, "sum": total,
                         "mean": total / count if count else 0.0,
                         "min": lo if fresh or lo < base["min"] else None,
                         "max": hi if fresh or hi > base["max"] else None,
                         "buckets": buckets}
            else:  # gauge: current state (skipped when untouched this run)
                if base is not None and snap["value"] == base["value"] \
                        and nan_delta == 0:
                    continue
                entry = {"value": snap["value"]}
            if nan_delta:
                entry["nan_count"] = nan_delta
            out.setdefault(metric.name, []).append({
                "type": metric.kind, "labels": dict(metric.labels), **entry,
            })
        return out


def merge_metric_delta(delta: dict, registry: MetricsRegistry | None = None,
                       worker: int | str | None = None) -> None:
    """Fold a serialized :meth:`RunScope.delta` into ``registry``.

    This is the supervisor-side half of cross-process telemetry: a worker
    wraps each shard in a :class:`RunScope`, serializes ``delta()`` over the
    result pipe, and the parent calls this to adopt the contribution.

    * counters are incremented by the delta value,
    * histograms are folded with :meth:`Histogram.merge` (bucket-preserving),
    * gauges are *state*, not accumulations — merging a worker gauge into the
      parent's would clobber parent state, so when ``worker`` is given the
      gauge is re-registered with an extra ``worker`` label instead.
    """
    registry = registry if registry is not None else get_registry()
    for name, entries in delta.items():
        for entry in entries:
            labels = dict(entry.get("labels", {}))
            kind = entry.get("type")
            nan_count = int(entry.get("nan_count", 0) or 0)
            if kind == "counter":
                counter = registry.counter(name, **labels)
                value = float(entry.get("value", 0.0) or 0.0)
                if value:
                    counter.inc(value)
                counter.nan_count += nan_count
            elif kind == "histogram":
                registry.histogram(name, **labels).merge(entry)
            elif kind == "gauge":
                if worker is not None:
                    labels["worker"] = str(worker)
                gauge = registry.gauge(name, **labels)
                gauge.set(float(entry.get("value", 0.0) or 0.0))
                gauge.nan_count += nan_count


# ----------------------------------------------------------------------
# process-wide default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what the core instruments use)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    with _registry_lock:
        previous, _default_registry = _default_registry, registry
    return previous


def reset_registry() -> MetricsRegistry:
    """Install a fresh empty registry (mainly for tests); returns it."""
    set_registry(MetricsRegistry())
    return _default_registry
