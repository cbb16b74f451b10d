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

Cone-of-influence replay
------------------------
A fault reaches only its receptive field: downstream of it, most of each
convolution's output is still golden.  The recording therefore also keeps
every :class:`~repro.nn.Conv2d` call's golden *input* by reference, in
the byte budget the cached outputs leave (outside
:attr:`ActivationCache.nbytes`, which sizes fault lanes).  A K=1 replay may pass ``replaying`` a
``cone`` mapping of module ids to servers; such a conv past the start
returns ``server(x, golden_input, golden_output)`` instead of computing.
The server (the platform's, see :meth:`~repro.core.goldeneye.GoldenEye.
forward_from`) compares the input's bits with the golden input
(:func:`changed_box`), widens the change through the kernel
(:func:`conv_reach`) and recomputes only that region of the cached output.
An eval-mode, unhooked ``BatchNorm2d`` whose input is the output just
served is served the same way: its cached output with that region
recomputed.  A call whose golden input or output is missing computes in
full.  Served calls count as hits; served convs also count as
``cone_patched`` or ``cone_unchanged``, and the output positions they
recomputed add up in ``cone_positions``.

A fault-axis batched pass (:meth:`~repro.core.goldeneye.GoldenEye.
forward_from_batched`) runs the model once over K stacked replicas of the
evaluation batch.  The lanes are identical up to the start, so
``replaying(start, lanes=K)`` hands back each replayed entry as a
:class:`LazyTile`, whose K-fold tile along axis 0 is built only when
something reads it; only the entry ``resume`` receives is tiled up front,
as the K·B-row stack the lanes' corruptions are applied to.  A replayed
leaf never reads its input, so when the recording is a
:attr:`ResumeSession.chain` (every leaf call takes the previous one's
output) the lanes materialise nothing before the start but the start's
own input, and only when the start recomputes.  Every value that runs is
still tiled before it is computed on, so a K-lane pass computes on the
same K·B-row arrays as one that tiled everything.

Forked workers
--------------
The parallel campaign executor (:mod:`repro.exec`) forks worker processes
*after* the golden pass is recorded, so every worker inherits the cache
copy-on-write: the arrays are never written after the recording, so the
pool replays the parent's physical pages.  A session is **owned** by the
process that recorded (or adopted) it: a forked worker must call
:meth:`ResumeSession.adopt` before replaying, which claims the inherited
cache.  An adopted session replays only: ``recording()`` raises before it
touches any state, so a worker can never diverge from the golden pass its
siblings replay.

Cache counts
------------
The cache books its ten counts (:data:`COUNTS`) as the registry counters
``resume.<name>`` of the process registry, resolved once when the
session is created.  A worker books into its forked copy of those
counters, and its counts reach the parent in the per-shard
:meth:`~repro.obs.telemetry.RunScope.delta` the supervisor merges, like
every other worker-side metric.  :attr:`ResumeSession.stats` reads the
counts booked since the session was created, workers included.
"""

from __future__ import annotations

import contextlib
import os
from collections import OrderedDict

import numpy as np

from ..nn.layers import BatchNorm2d, Conv2d
from ..nn.module import COMPUTE, Module
from ..nn.tensor import Tensor
from ..obs.telemetry import Counter, get_registry

__all__ = ["ActivationCache", "ResumeSession", "LazyTile",
           "DEFAULT_CACHE_BUDGET", "COUNTS", "hit_rate", "changed_box",
           "conv_reach"]


#: default activation-cache memory budget (bytes)
DEFAULT_CACHE_BUDGET = 256 * 1024 * 1024


#: the cache's counts, each booked as the registry counter ``resume.<name>``
COUNTS = {
    "hits": "activation-cache lookups answered",
    "misses": "activation-cache lookups that found no entry",
    "evictions": "cached activations evicted to fit the byte budget",
    "skipped": "activations larger than the whole budget, never stored",
    "replayed": "leaf calls answered from the cache during replay",
    "recomputed": "leaf calls the replay wanted from the cache that re-ran",
    "diverged": "replay passes that fell back to full execution",
    "cone_patched": "conv calls that recomputed only the fault's cone",
    "cone_unchanged": "conv calls the fault did not reach, served whole",
    "cone_positions": "output positions (image, row, column) patched",
}


def hit_rate(hits: float, misses: float) -> float:
    """Fraction of lookups that hit, ``hits / (hits + misses)``; 0.0 when
    there were none."""
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def lane_tile(array: np.ndarray, lanes: int) -> np.ndarray:
    """``lanes`` copies of ``array`` stacked along axis 0 (``array`` itself
    for one lane)."""
    if lanes == 1:
        return array
    return np.tile(array, (lanes,) + (1,) * (array.ndim - 1))


#: the slot a :class:`Tensor` keeps its array in
_DATA = Tensor.data


class LazyTile(Tensor):
    """A tensor of ``lanes`` copies of ``base`` stacked along axis 0, built
    the first time something reads :attr:`data`.

    ``base`` is only read: it may be a golden array forked workers share
    copy-on-write.
    """

    __slots__ = ("_base", "_lanes")

    def __init__(self, base: np.ndarray, lanes: int):
        super().__init__(base)
        self._base, self._lanes = base, lanes

    @property
    def data(self) -> np.ndarray:
        if self._base is not None:
            _DATA.__set__(self, lane_tile(self._base, self._lanes))
            self._base = None
        return _DATA.__get__(self)

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._base = None
        _DATA.__set__(self, value)


def changed_box(x: np.ndarray, golden: np.ndarray):
    """Bounding box ``(row0, row1, col0, col1)`` of the spatial positions
    where NCHW ``x`` differs from ``golden`` in any bit, over every image
    and channel; None when the two are bit-identical."""
    diff = np.not_equal(x.view(np.uint32), golden.view(np.uint32))
    plane = np.logical_or.reduce(diff, axis=(0, 1))
    rows = np.flatnonzero(plane.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(plane.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def conv_reach(lo: int, hi: int, kernel: int, stride: int, padding: int,
               size: int) -> tuple[int, int]:
    """Output span ``[lo', hi')`` along one axis whose receptive fields
    touch the changed input span ``[lo, hi)`` (empty when ``lo' >= hi'``;
    a strided kernel can step over the change)."""
    return (max(0, (lo + padding - kernel) // stride + 1),
            min(size, -(-(hi + padding) // stride)))


def _serves_behind(module: Module, inputs, served: np.ndarray) -> bool:
    """True when ``module`` computes per element on exactly the output of
    the cone call just before it: an eval-mode, unhooked ``BatchNorm2d``."""
    return (type(module) is BatchNorm2d and not module.training
            and not module._forward_hooks and not module._forward_pre_hooks
            and isinstance(inputs[0], Tensor) and inputs[0].data is served)


def _patch_behind(module: Module, x: np.ndarray, golden: np.ndarray, region):
    """``module``'s golden output with ``region`` recomputed from ``x``:
    the cone call before it changed nothing else (None: nothing at all)."""
    if region is None:
        return golden, None
    rows, cols = (slice(*span) for span in region)
    output = golden.copy(order="K")
    output[:, :, rows, cols] = module.forward(Tensor(x[:, :, rows, cols])).data
    return output, region


class ActivationCache:
    """LRU cache of numpy arrays under an explicit byte budget.

    Keys are opaque (the session uses execution positions).  An array larger
    than the whole budget is never stored; inserting evicts least-recently
    used entries until the new array fits.  ``budget_bytes=None`` disables
    the limit (cache everything).  Hits, misses, evictions and skipped
    arrays are booked in the ``resume.*`` counters.
    """

    def __init__(self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0 or None, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._entries: OrderedDict[object, np.ndarray] = OrderedDict()
        self._bytes = 0
        #: the ``resume.*`` counters of the process registry, by count name
        registry = get_registry()
        self.counters: dict[str, Counter] = {
            name: registry.counter(f"resume.{name}", help=text)
            for name, text in COUNTS.items()}

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
            self.counters["skipped"].inc()
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        if self.budget_bytes is not None:
            while self._entries and self._bytes + size > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.counters["evictions"].inc()
        self._entries[key] = array
        self._bytes += size
        return True

    def get(self, key) -> np.ndarray | None:
        """Fetch ``key`` (refreshing its LRU position) or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.counters["misses"].inc()
            return None
        self._entries.move_to_end(key)
        self.counters["hits"].inc()
        return entry

    def drop(self, key) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


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
    record a new pass (:meth:`record_pass`) whenever the evaluation batch
    changes.
    """

    def __init__(self, model: Module,
                 budget_bytes: int | None = DEFAULT_CACHE_BUDGET):
        self.model = model
        self.cache = ActivationCache(budget_bytes)
        self.counters = self.cache.counters
        #: each counter's value when this session was created
        self.baseline = {name: c.value for name, c in self.counters.items()}
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
        #: it)
        self.neuron_metadata: dict[str, object] = {}
        #: execution position -> golden input of that Conv2d call, kept by
        #: reference in the budget the cached outputs leave (plain data, so
        #: forked workers inherit it)
        self.golden_inputs: dict[int, np.ndarray] = {}
        self._input_bytes = 0
        #: the recorded pass is a chain: each leaf call took the output of
        #: the one before (the model input, for the first) as its only
        #: input, and the pass returned the last one's output.  A value
        #: before a chain's start then reaches the logits only through
        #: leaf calls, which replay without reading their inputs.
        self.chain = False
        #: during :meth:`record_pass`, the tensor the next leaf call must
        #: take for the pass to stay a chain (None once it is not one)
        self._link = None
        self._mode = "idle"  # "idle" | "record" | "replay"
        self._pos = 0
        self._start = 0
        self._lanes = 1
        self._resume = None
        self._cone: dict = {}
        #: (output, region) of the cone call just served, for the leaf after
        self._served = None
        self._pass_diverged = False
        #: pid of the process that recorded (or adopted) this session
        self.owner_pid = os.getpid()
        #: claimed by a process that did not record it: replay only
        self._adopted = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def recorded(self) -> bool:
        return bool(self.order)

    @property
    def stats(self) -> dict[str, int]:
        """The ten counts (:data:`COUNTS`) booked since this session was
        created; in a campaign's parent they include the workers' merged
        shard deltas."""
        return {name: int(c.value - self.baseline[name])
                for name, c in self.counters.items()}

    @property
    def is_owner(self) -> bool:
        """True when the current process owns this session's cache."""
        return os.getpid() == self.owner_pid

    def adopt(self) -> "ResumeSession":
        """Claim a fork-inherited session in a worker process.

        The recorded order and the (copy-on-write) activation cache stay
        valid after a fork, but ownership does not: ``adopt`` re-stamps
        :attr:`owner_pid`.  The counters are left as they are: a worker's
        counts reach the parent as shard deltas, which are relative.  From
        then on the session replays only: ``recording()`` raises, since a
        worker that re-recorded would diverge from the golden pass its
        siblings replay.  Idempotent within the owning process.
        """
        if self.is_owner:
            return self
        self.owner_pid = os.getpid()
        self._adopted = True
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

    def bytes_from(self, position: int) -> int:
        """Bytes of the cached outputs recorded at ``position`` and after."""
        return sum(array.nbytes for pos, array in self.cache._entries.items()
                   if pos >= position)

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
        behind, self._served = self._served, None
        if pos > self._start:
            server = self._cone.get(id(module))
            if server is not None:
                if pos not in self.golden_inputs:
                    return COMPUTE
            elif behind is None or not _serves_behind(module, inputs,
                                                      behind[0]):
                return COMPUTE
        elif pos == self._start and self._resume is None:
            return COMPUTE
        if pos >= len(self.order) or self.order[pos] != id(module):
            # model structure changed since the recording: stop trusting the
            # cache and finish this pass (and any until re-recorded) fully
            self._pass_diverged = True
            self.counters["diverged"].inc()
            return COMPUTE
        cached = self.cache.get(pos)
        if cached is None:
            self.counters["recomputed"].inc()
            return COMPUTE  # evicted / skipped: recompute with exact inputs
        if pos > self._start:
            if server is None:
                output, region = _patch_behind(module, inputs[0].data,
                                               cached, behind[1])
            else:
                output, region = self._serve_conv(server, inputs[0].data,
                                                  pos, cached)
            self._served = output, region
            return Tensor(output)
        self.counters["replayed"].inc()
        if pos == self._start:
            return Tensor(self._resume(lane_tile(cached, self._lanes)))
        if self._lanes > 1:
            return LazyTile(cached, self._lanes)
        return Tensor(cached)

    def _serve_conv(self, server, x: np.ndarray, pos: int,
                    golden: np.ndarray):
        """Answer a conv call past the start from its golden output."""
        output, region = server(x, self.golden_inputs[pos], golden)
        if region is None:
            self.counters["cone_unchanged"].inc()
        else:
            (r0, r1), (c0, c1) = region
            self.counters["cone_patched"].inc()
            self.counters["cone_positions"].inc(
                output.shape[0] * (r1 - r0) * (c1 - c0))
        return output, region

    def record(self, module: Module, inputs, output) -> None:
        if self._mode != "record" or id(module) not in self._leaf_ids:
            return
        pos = self._pos
        self._pos += 1
        if self._link is not None:
            chained = len(inputs) == 1 and inputs[0] is self._link
            self._link = output if chained else None
        self.order.append(id(module))
        self._first_index.setdefault(id(module), pos)
        if isinstance(output, Tensor):
            self.cache.put(pos, output.data)
        if isinstance(module, Conv2d) and isinstance(inputs[0], Tensor):
            self.golden_inputs[pos] = inputs[0].data
            self._input_bytes += inputs[0].data.nbytes
        # inputs take only the room the outputs leave: newest out first
        budget = self.cache.budget_bytes
        while (budget is not None and self.golden_inputs
               and self.cache.nbytes + self._input_bytes > budget):
            self._input_bytes -= self.golden_inputs.popitem()[1].nbytes

    # ------------------------------------------------------------------
    # pass scoping
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def recording(self):
        """Scope one golden forward pass; wipes any previous recording.

        Raises :class:`RuntimeError` — before touching any session state —
        in a process that :meth:`adopt`-ed the session: workers replay the
        parent's recording, they never re-record.
        """
        self._require_owner("record into")
        if self._adopted:
            raise RuntimeError(
                "cannot record into an adopted ResumeSession: a forked "
                "worker replays the golden pass its parent recorded")
        self.cache.clear()
        self.order.clear()
        self._first_index.clear()
        self.neuron_metadata.clear()
        self.golden_inputs.clear()
        self._input_bytes = 0
        self.chain = False
        self._mode, self._pos = "record", 0
        try:
            yield self
        finally:
            self._mode, self._link = "idle", None

    def record_pass(self, x: Tensor) -> Tensor:
        """Record the model's forward pass on ``x`` (see :meth:`recording`)
        and return its output; marks the recording a :attr:`chain` when it
        is one."""
        with self.recording():
            self._link = x
            out = self.model.forward_from(self, x)
            self.chain = out is self._link
        return out

    @contextlib.contextmanager
    def replaying(self, start_index: int, lanes: int = 1, resume=None,
                  cone=None):
        """Scope one resumed pass: replay leaf calls before ``start_index``.

        ``lanes`` > 1 replays each cached entry as a :class:`LazyTile`, its
        ``lanes``-fold tile along axis 0 built when something reads it, for
        a fault-axis batched pass over that many replicas of the recorded
        batch.  ``resume``, when given, serves the call at ``start_index``
        too: it receives that call's cached output, tiled, and returns the
        array the call yields.  Every served call counts as
        a hit and as ``replayed``; a missing entry recomputes.

        ``cone`` (K=1 passes only) maps ``id(module)`` of convs to servers:
        such a conv past ``start_index`` returns the output of
        ``server(x, golden_input, golden_output)``, an ``(output, region)``
        pair where ``region`` holds the ``((row0, row1), (col0, col1))``
        span it recomputed, or None when it served the golden output whole.
        An eval-mode, unhooked ``BatchNorm2d`` that takes exactly that
        output is served too: its golden output, with the same region
        recomputed.
        """
        self._require_owner("replay from")
        if not self.recorded:
            raise RuntimeError("no golden pass recorded; use recording() first")
        if cone and lanes > 1:
            raise ValueError("cone-of-influence replay serves K=1 passes only")
        self._mode, self._pos, self._start = "replay", 0, int(start_index)
        self._lanes, self._resume = int(lanes), resume
        self._cone, self._served = cone or {}, None
        self._pass_diverged = False
        try:
            yield self
        finally:
            self._mode, self._lanes, self._resume = "idle", 1, None
            self._cone, self._served = {}, None
