"""Checkpoint-and-resume partial execution for injection campaigns.

A fault injected at layer *L* cannot change anything computed *before* L, so
re-running the whole network for every injection wastes the entire upstream
prefix — the inefficiency the PyTorchFI-extension work (Gräfe et al., 2023)
removes with intermediate-state checkpointing.  This module implements that
optimisation for GoldenEye:

* during the **golden** pass a :class:`ResumeSession` records, in execution
  order, the final (post-hook, i.e. quantized) output of every *leaf* module,
  storing the arrays in an :class:`ActivationCache` with an explicit memory
  budget and LRU eviction;
* for an injection at layer L the campaign calls
  :meth:`repro.core.goldeneye.GoldenEye.forward_from`, which re-runs the
  model under the session in *replay* mode: every leaf call that executed
  before L's first appearance returns its cached golden output (skipping the
  layer's compute, quantization hook and injection check entirely), while
  everything downstream of L executes normally — with the armed corruption
  applied by the usual hook machinery.

L itself is served one of two ways.  A fault in L's output neurons or in
their metadata registers cannot change L's own compute, so when the
platform hands :meth:`ResumeSession.replaying` a ``resume`` callback, L's
call returns ``resume(cached)``: the platform restores L's golden metadata
and applies the armed corruption to L's cached output, and L's GEMM or
convolution and its quantizer never run.  The platform offers the callback
only when the cached tensor is exactly the pre-injection value and nothing
observes L's call (see :meth:`~repro.core.goldeneye.GoldenEye.forward_from`);
otherwise, or when L's entry is missing, L recomputes on its replayed
inputs.

Correctness does not depend on the cache being complete: a cache miss (LRU
eviction, budget-skipped tensor) simply recomputes that one module with the
bit-exact inputs reconstructed from its replayed predecessors, and a
structural divergence (model edited between record and replay) permanently
falls back to full execution for the rest of the pass.  Resumed logits are
therefore always bit-identical to a full forward under the same plans.

Weight injections resume from the victim layer too: a corrupted weight (or
weight-metadata register) only affects the victim layer's own computation
and its downstream consumers, so the upstream prefix replays unchanged.

A fault-axis batched pass (:meth:`~repro.core.goldeneye.GoldenEye.
forward_from_batched`) runs the model once over K stacked replicas of the
evaluation batch; ``replaying(start, lanes=K)`` tiles every cached entry K
times along axis 0, one copy per lane, so the same controller serves both.

Forked workers
--------------
The parallel campaign executor (:mod:`repro.exec`) forks worker processes
*after* the golden pass is recorded, so every worker inherits a
copy-on-write copy of the cache for free.  A session is **owned** by the
process that recorded (or adopted) it: a forked worker must call
:meth:`ResumeSession.adopt` before replaying, which claims the inherited
cache and zeroes the inherited counters so each worker reports a clean
per-process delta that the supervisor can aggregate.

Shared-memory adoption
----------------------
Copy-on-write sharing still duplicates every page a worker touches, and a
worker that re-records silently diverges from the parent's golden state.
When the supervisor publishes the cache through
:mod:`repro.exec.shmcache`, workers call :meth:`ResumeSession.adopt_shared`
instead: the private cache is swapped for a
:class:`SharedActivationCache` — a read-only facade over the shared
segment with per-process :class:`CacheStats` — and **every write path
raises** :class:`ReadOnlyCacheError` (``recording()``, ``put``, ``clear``,
``drop``).  A worker bug that would have silently diverged per-worker
state now fails loudly.
"""

from __future__ import annotations

import contextlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..nn.module import COMPUTE, Module
from ..nn.tensor import Tensor
from ..obs.telemetry import MetricsRegistry, get_registry

__all__ = ["ActivationCache", "CacheStats", "ReadOnlyCacheError",
           "ResumeSession", "SharedActivationCache",
           "DEFAULT_CACHE_BUDGET", "publish_cache_metrics"]


class ReadOnlyCacheError(RuntimeError):
    """A write was attempted against a shared read-only activation cache."""

#: default activation-cache memory budget (bytes)
DEFAULT_CACHE_BUDGET = 256 * 1024 * 1024


@dataclass
class CacheStats:
    """Counters describing one session's cache behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    skipped: int = 0  # tensors larger than the whole budget, never stored
    replayed: int = 0  # leaf calls answered from cache during replay
    recomputed: int = 0  # leaf calls the replay wanted from cache that re-ran
    diverged: int = 0  # replay passes that fell back to full execution

    FIELDS = ("hits", "misses", "evictions", "skipped",
              "replayed", "recomputed", "diverged")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.FIELDS}

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction over all lookups (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def replay_rate(self) -> float:
        """Fraction of the leaf calls the replay wanted that cache answered."""
        total = self.replayed + self.recomputed
        return self.replayed / total if total else 0.0


def publish_cache_metrics(stats: CacheStats, cache: "ActivationCache | None" = None,
                          registry: MetricsRegistry | None = None,
                          prefix: str = "resume") -> dict:
    """Bridge :class:`CacheStats` into the metrics registry as live gauges.

    Exposes every raw counter plus the derived ``hit_rate`` / ``replay_rate``
    and — when ``cache`` is given — ``cache_bytes`` / ``cache_entries``.
    Returns the flat dict that was published (useful for CLI display and for
    round-trip tests).
    """
    registry = registry if registry is not None else get_registry()
    flat: dict[str, float] = dict(stats.as_dict())
    flat["hit_rate"] = stats.hit_rate
    flat["replay_rate"] = stats.replay_rate
    if cache is not None:
        flat["cache_bytes"] = cache.nbytes
        flat["cache_entries"] = len(cache)
    for key, value in flat.items():
        registry.gauge(f"{prefix}.{key}").set(float(value))
    return flat


class ActivationCache:
    """LRU cache of numpy arrays under an explicit byte budget.

    Keys are opaque (the session uses execution positions).  An array larger
    than the whole budget is never stored; inserting evicts least-recently
    used entries until the new array fits.  ``budget_bytes=None`` disables
    the limit (cache everything).
    """

    def __init__(self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0 or None, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._entries: OrderedDict[object, np.ndarray] = OrderedDict()
        self._bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def nbytes(self) -> int:
        """Total bytes currently held."""
        return self._bytes

    def put(self, key, array: np.ndarray) -> bool:
        """Store ``array``; return False if it exceeds the whole budget."""
        size = array.nbytes
        if self.budget_bytes is not None and size > self.budget_bytes:
            self.stats.skipped += 1
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        if self.budget_bytes is not None:
            while self._entries and self._bytes + size > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.stats.evictions += 1
        self._entries[key] = array
        self._bytes += size
        return True

    def get(self, key) -> np.ndarray | None:
        """Fetch ``key`` (refreshing its LRU position) or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def drop(self, key) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def entries(self):
        """Snapshot of ``(key, array)`` pairs in insertion (LRU) order.

        This is the export surface the shared-memory publisher
        (:func:`repro.exec.shmcache.SharedGoldenCache.publish`) packs into a
        segment; iteration order does not matter to consumers because every
        lookup goes through the keyed index.
        """
        return list(self._entries.items())


class SharedActivationCache:
    """Read-only :class:`ActivationCache` facade over a shared segment.

    Wraps any provider exposing ``array(key) -> ndarray | None``, ``keys()``,
    ``nbytes`` and ``__len__`` (in practice
    :class:`repro.exec.shmcache.SharedGoldenCache`).  Lookups hit the shared
    pages zero-copy; the :class:`CacheStats` are **per-process** so forked
    workers keep reporting clean deltas.  Every mutation path raises
    :class:`ReadOnlyCacheError` — a worker must never be able to silently
    diverge from the published golden state.
    """

    #: writes are structurally impossible; exposed for budget introspection
    budget_bytes = None

    def __init__(self, provider):
        self._provider = provider
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._provider)

    def __contains__(self, key) -> bool:
        return self._provider.array(key) is not None

    @property
    def nbytes(self) -> int:
        return int(self._provider.nbytes)

    def get(self, key) -> np.ndarray | None:
        entry = self._provider.array(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    # ------------------------------------------------------------------
    # write paths: refuse loudly instead of diverging silently
    # ------------------------------------------------------------------
    def _refuse(self, action: str):
        raise ReadOnlyCacheError(
            f"cannot {action} a shared read-only activation cache: the "
            "golden prefix is published once by the supervisor and mapped "
            "read-only into every worker; re-record in the owning process "
            "instead")

    def put(self, key, array) -> bool:
        self._refuse("put into")

    def drop(self, key) -> None:
        self._refuse("drop from")

    def clear(self) -> None:
        self._refuse("clear")


class ResumeSession:
    """One recorded golden pass over a model, replayable from any layer.

    Implements the replay-controller protocol consumed by
    :meth:`repro.nn.Module.forward_from` (``intercept`` / ``record``).  The
    session is keyed by *execution position*: the i-th leaf-module call of
    the recorded pass.  Position matching makes weight-shared modules (one
    module object executing several times) resume correctly — the start
    index of a layer is its module's **first** execution, so every execution
    of the victim recomputes.  A module that ran once may instead be served
    its own cached output through ``replaying``'s ``resume`` callback.

    The session is only valid for the exact inputs of the recorded pass;
    record a new pass (``recording()``) whenever the evaluation batch
    changes.
    """

    def __init__(self, model: Module,
                 budget_bytes: int | None = DEFAULT_CACHE_BUDGET):
        self.model = model
        self.cache = ActivationCache(budget_bytes)
        self._leaf_ids = {
            id(m) for _, m in model.named_modules()
            if not any(True for _ in m.children())
        }
        #: module ids in recorded execution order (one entry per leaf call)
        self.order: list[int] = []
        #: id(module) -> first execution position
        self._first_index: dict[int, int] = {}
        #: instrumented-layer name -> golden neuron metadata, kept by the
        #: platform after a recording (plain data, so forked workers inherit
        #: it; a shared-memory cache publishes activation arrays only)
        self.neuron_metadata: dict[str, object] = {}
        self._mode = "idle"  # "idle" | "record" | "replay"
        self._pos = 0
        self._start = 0
        self._lanes = 1
        self._resume = None
        self._pass_diverged = False
        #: pid of the process that recorded (or adopted) this session
        self.owner_pid = os.getpid()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def recorded(self) -> bool:
        return bool(self.order)

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def is_owner(self) -> bool:
        """True when the current process owns this session's cache."""
        return os.getpid() == self.owner_pid

    def adopt(self, reset_stats: bool = True) -> "ResumeSession":
        """Claim a fork-inherited session in a worker process.

        The recorded order and the (copy-on-write) activation cache stay
        valid after a fork, but ownership and counters do not: ``adopt``
        re-stamps :attr:`owner_pid` and — by default — resets the inherited
        :class:`CacheStats` so the worker reports a clean per-process delta
        (the parallel supervisor sums worker deltas into the campaign's
        ``resume_stats``).  Idempotent within the owning process.
        """
        already_owner = self.is_owner
        self.owner_pid = os.getpid()
        if reset_stats and not already_owner:
            self.cache.stats = CacheStats()
        return self

    def adopt_shared(self, provider) -> "ResumeSession":
        """Adopt this fork-inherited session against a shared golden cache.

        Replaces the inherited private :class:`ActivationCache` with a
        :class:`SharedActivationCache` over ``provider`` (a
        :class:`repro.exec.shmcache.SharedGoldenCache` or any object with
        the same read surface), re-stamps ownership and starts fresh
        per-process stats.  The recorded execution order stays valid — only
        the array storage moves to the shared segment.

        After adoption every write path raises :class:`ReadOnlyCacheError`:
        ``recording()`` (which must clear the cache) and any ``put`` fail
        loudly instead of silently diverging this worker's golden state
        from its siblings'.
        """
        self.owner_pid = os.getpid()
        if isinstance(provider, SharedActivationCache):
            self.cache = provider
        else:
            self.cache = SharedActivationCache(provider)
        return self

    def _require_owner(self, action: str) -> None:
        if not self.is_owner:
            raise RuntimeError(
                f"cannot {action} a ResumeSession owned by pid "
                f"{self.owner_pid} from pid {os.getpid()}; forked workers "
                "must call adopt() first")

    def start_index_for(self, module: Module) -> int | None:
        """First recorded execution position of ``module`` (None if absent)."""
        return self._first_index.get(id(module))

    def runs_once(self, module: Module) -> bool:
        """True when ``module`` executed exactly once in the recorded pass."""
        return self.order.count(id(module)) == 1

    def publish_metrics(self, registry: MetricsRegistry | None = None,
                        prefix: str = "resume") -> dict:
        """Publish this session's cache counters as registry gauges."""
        return publish_cache_metrics(self.stats, self.cache,
                                     registry=registry, prefix=prefix)

    # ------------------------------------------------------------------
    # replay-controller protocol (called from Module.__call__)
    # ------------------------------------------------------------------
    def intercept(self, module: Module, inputs):
        if self._mode != "replay" or self._pass_diverged:
            return COMPUTE
        if id(module) not in self._leaf_ids:
            return COMPUTE
        pos = self._pos
        self._pos += 1
        if pos > self._start or (pos == self._start and self._resume is None):
            return COMPUTE
        if pos >= len(self.order) or self.order[pos] != id(module):
            # model structure changed since the recording: stop trusting the
            # cache and finish this pass (and any until re-recorded) fully
            self._pass_diverged = True
            self.cache.stats.diverged += 1
            return COMPUTE
        cached = self.cache.get(pos)
        if cached is None:
            self.cache.stats.recomputed += 1
            return COMPUTE  # evicted / skipped: recompute with exact inputs
        self.cache.stats.replayed += 1
        if self._lanes > 1:
            cached = np.tile(cached, (self._lanes,) + (1,) * (cached.ndim - 1))
        if pos == self._start:
            return Tensor(self._resume(cached))
        return Tensor(cached)

    def record(self, module: Module, inputs, output) -> None:
        if self._mode != "record" or id(module) not in self._leaf_ids:
            return
        pos = self._pos
        self._pos += 1
        self.order.append(id(module))
        self._first_index.setdefault(id(module), pos)
        if isinstance(output, Tensor):
            self.cache.put(pos, output.data)

    # ------------------------------------------------------------------
    # pass scoping
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def recording(self):
        """Scope one golden forward pass; wipes any previous recording.

        Raises :class:`ReadOnlyCacheError` — before touching any session
        state — when the session was :meth:`adopt_shared`-ed against a
        shared read-only cache: workers replay, they never re-record.
        """
        self._require_owner("record into")
        self.cache.clear()  # shared read-only caches refuse here
        self.order.clear()
        self._first_index.clear()
        self.neuron_metadata.clear()
        self._mode, self._pos = "record", 0
        try:
            yield self
        finally:
            self._mode = "idle"

    @contextlib.contextmanager
    def replaying(self, start_index: int, lanes: int = 1, resume=None):
        """Scope one resumed pass: replay leaf calls before ``start_index``.

        ``lanes`` > 1 replays each cached entry as its ``lanes``-fold tile
        along axis 0, for a fault-axis batched pass over that many replicas
        of the recorded batch.  ``resume``, when given, serves the call at
        ``start_index`` too: it receives that call's cached (tiled) output
        and returns the array the call yields.  Every served call counts as
        a hit and as ``replayed``; a missing entry recomputes.
        """
        self._require_owner("replay from")
        if not self.recorded:
            raise RuntimeError("no golden pass recorded; use recording() first")
        self._mode, self._pos, self._start = "replay", 0, int(start_index)
        self._lanes, self._resume = int(lanes), resume
        self._pass_diverged = False
        try:
            yield self
        finally:
            self._mode, self._lanes, self._resume = "idle", 1, None
