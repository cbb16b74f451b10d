"""Injection-campaign runner: N unique single-bit flips per layer (§IV-C).

A campaign fixes a model + number format, runs one error-free (golden)
inference per evaluation batch, then performs ``injections_per_layer`` unique
bit flips at each instrumented layer — in data values or metadata — measuring
ΔLoss and mismatches for each against the golden outcome.  This reproduces
the experimental procedure behind Fig. 7 ("1000 unique single-bit flip
injections for each of data and metadata at a layer-granularity").

A campaign is described by two objects.  A frozen :class:`CampaignSpec`
says *what* to inject (kind, location, budget, seed, layers, bits, fault
model, protection) and is the identity the journal and the ledger pin; an
:class:`~repro.exec.ExecConfig` says *how* to run it and never changes its
results.  Every setting is documented once, on its field.

By default the campaign runs in **checkpoint-and-resume** mode
(``ExecConfig.resume``): the golden pass records every layer's output in an
:class:`~repro.core.resume.ActivationCache`, and each injection at layer *L*
restarts inference *from L* with the cached prefix replayed — O(suffix)
instead of O(network) per injection, bit-identical logits (the Gräfe et al.
2023 intermediate-state-checkpointing optimisation).

Pipeline
--------
The runner is a three-stage pipeline with a strict separation that makes
parallel execution, write-ahead journaling and crash recovery possible:

1. **Sampling** (:func:`sample_layer_plans`) — deterministically draws each
   layer's unique injection plans up front, consuming only the layer's child
   RNG.  Sampling never touches the model.
2. **Execution** (:func:`execute_chunks`, the one loop of the serial path
   and every worker) — yields plain-dict *records* (site, bits, ΔLoss,
   mismatch/SDC rates, duration), JSON- and pickle-friendly so they can
   cross process boundaries and be journaled.  Every record enters the
   campaign through one :meth:`RecordSink.accept` (journal, store,
   telemetry, progress).
3. **Aggregation** (:func:`fold_layer`) — folds the records of a layer
   *in plan order* (``seq``) into a :class:`LayerCampaignResult`.  Because
   the fold order is fixed by ``seq`` — not by execution order — serial,
   parallel and journal-resumed campaigns produce bit-identical statistics,
   and every surface reporting a layer (``/progress``, ``repro watch``,
   ``repro report``) calls the same fold.

Parallel execution & crash safety
---------------------------------
``ExecConfig.workers >= 2`` shards the sampled plans into per-layer
chunks and executes them on a supervised ``multiprocessing`` pool (see
:mod:`repro.exec`): per-shard timeout + bounded retry with exponential
backoff, quarantine of poison shards, dead-worker detection with shard
reassignment, and SIGINT/SIGTERM-safe shutdown returning a partial,
resumable result.  ``journal=PATH`` write-ahead-journals every completed
record (flushed before aggregation) so a crashed or killed campaign resumes
by skipping journaled work — reproducing the identical aggregate.

Determinism
-----------
Site sampling is **per-layer deterministic**: each layer draws from a child
generator ``np.random.default_rng([seed, layer_index])`` (``layer_index`` =
the layer's position in the platform's full instrumented-layer order), so
restricting ``layers=`` to a subset, reordering the subset, or a layer
exhausting its site space early never shifts the sites sampled at any
*other* layer.  ``seed`` alone reproduces an entire campaign — serial or
parallel, interrupted or not.

Telemetry
---------
The runner is fully instrumented (see :mod:`repro.obs`): a ``campaign.run``
span wraps the campaign, a ``campaign.layer`` span wraps each serially
executed layer, and — when tracing is enabled — one ``campaign.injection``
event is emitted per injection (layer, seq, site, bits, ΔLoss, wall-time),
making every campaign a replayable JSONL event stream.  Counters/histograms
land in the process registry (``campaign.injections_total``,
``campaign.injection_seconds``, ``campaign.sampling_retries_total``,
``campaign.injection_errors_total``, ``campaign.journal_skipped_total``;
parallel runs add the ``exec.*`` family) and the resume cache's counters
are bridged to ``resume.*`` gauges.  :attr:`CampaignResult.telemetry`
carries the run-level summary (wall-time, injections/sec, per-layer
timing).
"""

from __future__ import annotations

import hashlib
import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from ..obs.telemetry import get_registry
from ..obs.tracing import BroadcastTracer, get_tracer, set_tracer
from .ecc import parse_protection
from .faultmodels import (EXHAUSTIVE_SITE_CAP, FaultModel, SingleBit,
                          parse_fault_model)
from .goldeneye import GoldenEye
from .injection import InjectionError, ValueInjection, per_sample_numel
from .metrics import InferenceOutcome, check_labels, compare_outcomes
from .resume import hit_rate

# repro.exec (multiprocessing, shared memory) loads on a campaign's first
# use, which keeps it out of the cost of importing repro.core
if TYPE_CHECKING:
    from ..exec.supervisor import ExecConfig

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "campaign_settings",
    "LayerCampaignResult",
    "LayerPlan",
    "run_campaign",
    "golden_inference",
    "sample_layer_plans",
    "execute_injection_batch",
    "execute_chunks",
    "lane_count",
    "LANE_BYTES",
    "RecordSink",
    "aggregate_layer",
    "fold_layer",
    "fold_sdc",
    "normalized_record",
    "plan_site",
    "record_matches_plan",
]

logger = logging.getLogger("repro.campaign")

#: bytes the fault lanes of one automatic chunk may materialise (see
#: :func:`lane_count`); a lane costs the values it tiles: in a chain
#: recording its layer's recorded outputs on, else the evaluation batch
#: plus the whole golden recording
LANE_BYTES = 4 * 1024 * 1024


class CampaignError(RuntimeError):
    """A campaign could not start or continue (clear, user-facing cause).

    Raised instead of bare tracebacks for orchestration failures the user
    can act on — e.g. the live observability server's ``--serve`` address
    already being bound by another process.
    """


@dataclass(frozen=True)
class CampaignSpec:
    """What a campaign injects: the identity its journal and ledger pin.

    Runs of one spec on one format and evaluation batch give bit-identical
    results however they execute (serial, parallel, fault-batched,
    journal-resumed); how they execute is an :class:`~repro.exec.ExecConfig`.
    """

    #: ``"value"`` (data words) or ``"metadata"`` (shared scale/exponent
    #: registers)
    kind: str = "value"
    #: ``"neuron"`` (layer outputs) or ``"weight"`` (parameters)
    location: str = "neuron"
    #: unique (site, bits) injections sampled per layer, as the paper's
    #: "1000 unique single-bit flip injections"; exhaustive ignores it
    injections_per_layer: int = 100
    #: layer *i* samples from ``np.random.default_rng([seed, i])`` (*i* =
    #: its index among all instrumented layers), so results do not depend
    #: on which other layers are targeted or in what order
    seed: int = 0
    #: target layers, stored as a tuple (None = every instrumented layer;
    #: unknown names raise ``ValueError`` before any work runs)
    layers: tuple[str, ...] | None = None
    #: bits flipped in one word per injection by the single model
    num_bits: int = 1
    #: fault-model spec (:mod:`repro.core.faultmodels`), stored canonical:
    #: ``"single"`` (byte-identical to campaigns predating fault models),
    #: ``"burst2"``/``"burst4"`` (optionally ``:strideS:alignA``),
    #: ``"stuck0"``/``"stuck1"``, ``"exhaustive"`` (every single-bit site,
    #: refused above :data:`~repro.core.faultmodels.EXHAUSTIVE_SITE_CAP`
    #: sites per layer) or ``"temporalN"``; non-single models are
    #: value-only
    fault_model: str = "single"
    #: ECC protection spec (:mod:`repro.core.ecc`), stored canonical:
    #: ``"secded"`` over value words, ``"parity"`` over metadata registers,
    #: ``"secded+parity"`` or ``"none"``; corrected/detected faults skip
    #: the injected inference and record the golden outcome
    protect: str = "none"

    def __post_init__(self):
        if self.kind not in ("value", "metadata"):
            raise ValueError(
                f"kind must be 'value' or 'metadata', got {self.kind!r}")
        fault_model = parse_fault_model(self.fault_model).spec()
        if fault_model != "single" and self.kind != "value":
            raise ValueError(
                f"fault model {fault_model!r} applies to value injections "
                "only; metadata campaigns support only the 'single' model")
        object.__setattr__(self, "fault_model", fault_model)
        object.__setattr__(self, "protect",
                           parse_protection(self.protect).spec())
        if self.layers is not None:
            object.__setattr__(self, "layers", tuple(self.layers))

    def fingerprint(self, format_name: str, layers, images=None,
                    labels=None) -> dict:
        """The identity a journal header pins and a ledger row hashes.

        ``layers`` is the resolved target-layer list.  ``fault`` and
        ``protect`` enter only when non-default, so a default campaign keeps
        the fingerprint journals had before fault models existed; ``data``
        digests the evaluation batch when it is given.
        """
        fp = {
            "kind": self.kind,
            "location": self.location,
            "format": format_name,
            "seed": int(self.seed),
            "injections_per_layer": int(self.injections_per_layer),
            "num_bits": int(self.num_bits),
            "layers": list(layers),
        }
        if self.fault_model != "single":
            fp["fault"] = self.fault_model
        if self.protect != "none":
            fp["protect"] = self.protect
        if images is not None and labels is not None:
            fp["data"] = _data_digest(images, labels)
        return fp


def _data_digest(images, labels) -> str:
    """Short content digest of the evaluation batch (shape + bytes)."""
    h = hashlib.sha256()
    arr = np.ascontiguousarray(np.asarray(images, dtype=np.float32))
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    lab = np.ascontiguousarray(np.asarray(labels))
    h.update(str(lab.shape).encode())
    h.update(lab.tobytes())
    return h.hexdigest()[:16]


def campaign_settings(spec: CampaignSpec | None,
                      exec_config: ExecConfig | None,
                      fields: dict) -> tuple[CampaignSpec, ExecConfig]:
    """Apply keyword ``fields`` over ``spec`` and ``exec_config``.

    The keyword shim of :func:`run_campaign` and
    :func:`~repro.analysis.resilience.profile_resilience`: each keyword
    names a :class:`CampaignSpec` or :class:`~repro.exec.ExecConfig` field
    and overrides it; any other name raises :class:`TypeError`.
    """
    from ..exec.supervisor import ExecConfig

    spec = spec if spec is not None else CampaignSpec()
    exec_config = exec_config if exec_config is not None else ExecConfig()
    spec_names = CampaignSpec.__dataclass_fields__
    exec_names = ExecConfig.__dataclass_fields__
    unknown = [name for name in fields
               if name not in spec_names and name not in exec_names]
    if unknown:
        raise TypeError("unexpected keyword argument(s): "
                        + ", ".join(repr(name) for name in unknown))
    return (replace(spec, **{k: v for k, v in fields.items()
                             if k in spec_names}),
            replace(exec_config, **{k: v for k, v in fields.items()
                                    if k in exec_names}))


@dataclass
class LayerCampaignResult:
    """Aggregated resilience statistics for one layer."""

    layer: str
    injections: int
    mean_delta_loss: float
    max_delta_loss: float
    mismatch_rate: float
    sdc_rate: float
    delta_losses: list[float] = field(default_factory=list, repr=False)
    #: wall-clock spent on this layer's injected inferences (seconds)
    seconds: float = 0.0
    #: sampling attempts that drew an already-seen or invalid site
    retries: int = 0
    #: per-fault-pattern statistics: ``"len{L}"`` groups records by
    #: flipped-bit count, ``"start{S}"`` groups multi-bit (burst) faults by
    #: their start position — the per-burst-length / per-alignment breakdown
    by_pattern: dict = field(default_factory=dict, repr=False)
    #: ECC verdict counts at this layer (corrected / detected / silent)
    ecc: dict = field(default_factory=dict, repr=False)
    #: Wilson 95% interval of ``sdc_rate`` (see :func:`fold_sdc`)
    sdc_ci95: tuple[float, float] = field(default=(0.0, 1.0), repr=False)


@dataclass
class CampaignResult:
    """Outcome of a whole injection campaign."""

    kind: str  # "value" | "metadata"
    location: str  # "neuron" | "weight"
    format_name: str
    golden_accuracy: float
    per_layer: dict[str, LayerCampaignResult]
    #: the ``resume.*`` counts this campaign booked, workers included
    #: (:attr:`repro.core.resume.ResumeSession.stats`); None without resume
    resume_stats: dict | None = None
    #: run-level telemetry summary (wall-time, throughput, per-layer timing)
    telemetry: dict | None = None
    #: shards abandoned after exhausting their retry budget (parallel mode);
    #: each entry records shard id, layer, outstanding seqs, attempts, reason
    quarantined: list[dict] = field(default_factory=list)
    #: True when the campaign was stopped early (SIGINT/SIGTERM or a test
    #: abort); the result is partial but — with a journal — resumable
    interrupted: bool = False
    #: the write-ahead journal backing this run, if any
    journal_path: str | None = None
    #: the campaign fingerprint (identity of kind/location/format/seed/
    #: plans/data — see :meth:`CampaignSpec.fingerprint`)
    fingerprint: dict | None = None
    #: the run's row id in the campaign ledger, when one was configured
    #: (see :mod:`repro.obs.ledger`)
    ledger_run_id: int | None = None

    def mean_delta_loss(self) -> float:
        """Network-level resilience: ΔLoss averaged across layers (§V-A)."""
        if not self.per_layer:
            return 0.0
        return float(np.mean([r.mean_delta_loss for r in self.per_layer.values()]))

    def mean_mismatch_rate(self) -> float:
        if not self.per_layer:
            return 0.0
        return float(np.mean([r.mismatch_rate for r in self.per_layer.values()]))


@dataclass
class LayerPlan:
    """The deterministically sampled injection plans for one layer.

    Produced by :func:`sample_layer_plans` *before* any execution, so the
    same plan set can be executed serially, sharded across workers, or
    partially skipped when a journal already holds some records.
    """

    layer: str
    plans: list  # ValueInjection | MetadataInjection, in draw (seq) order
    #: sampling attempts that drew an already-seen or invalid site
    retries: int = 0
    #: InjectionError message when sampling stopped early (None = clean)
    sampling_error: str | None = None
    #: total unique (site, bits) space at this layer
    site_space: int = 0


def golden_inference(platform: GoldenEye, images: np.ndarray,
                     labels: np.ndarray) -> InferenceOutcome:
    """Run one clean (injection-free) inference under the platform's format."""
    platform.model.eval()
    with nn.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        # injected faults legitimately push activations to inf/NaN; the
        # metrics layer accounts for non-finite logits explicitly
        logits = platform.model(Tensor(np.asarray(images, dtype=np.float32)))
    return InferenceOutcome(logits=logits.data.copy(), labels=np.asarray(labels))


# ----------------------------------------------------------------------
# stage 1: deterministic plan sampling
# ----------------------------------------------------------------------
def _layer_value_geometry(platform: GoldenEye, layer: str,
                          location: str) -> tuple[int, int]:
    """(elements, word width) of a layer's value-injection space."""
    state = platform.layers[layer]
    if location == "neuron":
        shape = state.last_output_shape
        numel = per_sample_numel(shape) if shape is not None else 0
        width = state.neuron_format.bit_width if state.neuron_format else 32
    else:
        param = state.module._parameters.get("weight")
        numel = param.data.size if param is not None else 0
        width = state.weight_format.bit_width if state.weight_format else 32
    return numel, width


def _exhaustive_layer_plan(platform: GoldenEye, layer: str, kind: str,
                           location: str, model) -> LayerPlan:
    """Enumerate every (element, bit) site of ``layer`` in site-major order."""
    if kind != "value":
        raise ValueError(
            "the exhaustive fault model supports value injections only")
    numel, width = _layer_value_geometry(platform, layer, location)
    sites = numel * width
    if sites > EXHAUSTIVE_SITE_CAP:
        raise ValueError(
            f"exhaustive fault model: layer {layer!r} has {sites} single-bit "
            f"sites ({numel} elements x {width} bits), exceeding the cap of "
            f"{EXHAUSTIVE_SITE_CAP}; restrict layers= to smaller layers or "
            f"use the sampled estimator")
    plans = [ValueInjection(layer, location, index, bits,
                            op=model.op, persist=model.persist)
             for index in range(numel)
             for bits in model.enumerate_bits(width)]
    return LayerPlan(layer=layer, plans=plans, retries=0, site_space=sites)


def sample_layer_plans(
    platform: GoldenEye,
    layer: str,
    kind: str,
    location: str,
    budget: int,
    rng: np.random.Generator,
    num_bits: int = 1,
    fault_model: FaultModel = SingleBit(),
) -> LayerPlan:
    """Draw up to ``budget`` unique injection plans for ``layer``.

    Consumes only ``rng`` — never the model — so the plan sequence is a pure
    function of the layer's child generator and the platform's (static)
    site-space geometry.  A late :class:`InjectionError` keeps the plans
    already drawn (``sampling_error`` is set and the layer degrades to a
    partial result instead of being discarded wholesale).

    ``fault_model`` (a :class:`repro.core.faultmodels.FaultModel`) selects
    the bit-pattern sampler; the default :class:`SingleBit` is the classic
    single/multi-bit draw, byte-identical to campaigns that predate fault
    models.  Metadata plans always take the classic draw.  An exhaustive
    model ignores ``budget`` and ``rng`` entirely and enumerates every
    single-bit site deterministically (refusing layers over
    :data:`~repro.core.faultmodels.EXHAUSTIVE_SITE_CAP`).
    """
    if fault_model.exhaustive:
        return _exhaustive_layer_plan(platform, layer, kind, location,
                                      fault_model)
    engine = platform.injector
    registry = get_registry()
    seen: set[tuple] = set()
    plans: list = []
    attempts = 0
    max_attempts = budget * 20
    sampling_error: str | None = None
    site_space = _site_space(platform, layer, kind, location, fault_model)
    while len(plans) < budget and attempts < max_attempts:
        attempts += 1
        try:
            if kind == "value":
                plan = engine.sample_value_injection(rng, layer=layer,
                                                     location=location,
                                                     num_bits=num_bits,
                                                     fault_model=fault_model)
                key = (plan.flat_index, plan.bits)
            else:
                plan = engine.sample_metadata_injection(rng, layer=layer,
                                                        location=location,
                                                        num_bits=num_bits)
                key = (plan.register, plan.bits)
        except InjectionError as exc:
            # site inapplicable (e.g. metadata on a plain FP layer).  Keep
            # whatever was already drawn: a partial layer result is strictly
            # better than throwing the performed work away.
            sampling_error = str(exc)
            registry.counter(
                "campaign.injection_errors_total",
                help="layers skipped because sampling raised InjectionError",
                kind=kind, location=location).inc()
            break
        if key in seen:
            if len(seen) >= site_space:
                break  # exhausted every unique site at this layer
            continue
        seen.add(key)
        plans.append(plan)
    retries = attempts - len(plans)
    if retries:
        registry.counter("campaign.sampling_retries_total",
                         help="sampling attempts that hit a seen/invalid site",
                         kind=kind, location=location).inc(retries)
    return LayerPlan(layer=layer, plans=plans, retries=retries,
                     sampling_error=sampling_error, site_space=site_space)


# ----------------------------------------------------------------------
# stage 2: single-injection execution
# ----------------------------------------------------------------------
def plan_site(plan) -> int:
    """The journal/trace site id of a plan (flat index or register)."""
    return int(plan.flat_index if isinstance(plan, ValueInjection)
               else plan.register)


def _classify_ecc(protection, plan) -> str | None:
    """ECC verdict for ``plan`` (None = unprotected), counting telemetry."""
    if protection is None:
        return None
    verdict = protection.classify(plan)
    if verdict is not None:
        get_registry().counter(
            f"ecc.{verdict}_total",
            help="planned faults by ECC verdict (corrected faults and "
                 "detected-unrecoverable errors never reach the datapath; "
                 "silent ones alias past the code)").inc()
    return verdict


def _stamp_fault_fields(record: dict, plan, fault_spec, verdict) -> dict:
    """Add the non-default fault-model fields to a record.

    Every field is emitted *only* when it differs from the classic
    single-bit-XOR default, so records of a default campaign stay
    byte-identical to pre-fault-model journals.
    """
    if fault_spec not in (None, "single"):
        record["fault"] = str(fault_spec)
    if getattr(plan, "op", "xor") != "xor":
        record["op"] = plan.op
    if getattr(plan, "persist", 0) > 0:
        record["persist"] = int(plan.persist)
    if verdict is not None:
        record["ecc"] = verdict
    return record


def _compose_temporal(faulty_logits, golden_logits, persist: int):
    """Decay a temporal fault: samples past ``persist`` see golden logits.

    The campaign treats each evaluation-batch sample as one successive
    inference; a fault persisting ``persist`` batches corrupts samples
    ``[0, persist)`` and leaves the rest golden.  Composed post-hoc from
    one armed forward pass, so temporal campaigns stay bit-identical
    across serial / parallel / fault-batched / resumed execution.
    """
    if persist <= 0 or persist >= len(faulty_logits):
        return faulty_logits
    composed = np.array(faulty_logits, copy=True)
    composed[persist:] = golden_logits[persist:]
    return composed


def _lane_records(golden: InferenceOutcome, lanes, plans, verdicts,
                  fault_spec, t_start: float) -> list[dict]:
    """Score a ``(K, batch, ...)`` stack of faulty logits in one pass.

    Lane ``k`` ran ``plans[k]`` alone; its record is the one a solo run
    of that plan returns.  ``dur_s`` splits the time since ``t_start``
    evenly across the K plans.
    """
    for k, plan in enumerate(plans):
        if getattr(plan, "persist", 0):
            lanes[k] = _compose_temporal(lanes[k], golden.logits, plan.persist)
    metrics = compare_outcomes(golden, InferenceOutcome(logits=lanes,
                                                        labels=golden.labels))
    delta_loss = metrics["delta_loss"].tolist()
    mismatch_rate = metrics["mismatch_rate"].tolist()
    sdc_rate = metrics["sdc_rate"].tolist()
    dur = (time.perf_counter() - t_start) / len(plans)
    return [_stamp_fault_fields({
        "kind": plan_kind(plan),
        "site": plan_site(plan),
        "bits": list(plan.bits),
        "delta_loss": delta_loss[k],
        "mismatch_rate": mismatch_rate[k],
        "sdc_rate": sdc_rate[k],
        "dur_s": dur,
    }, plan, fault_spec, verdict)
        for k, (plan, verdict) in enumerate(zip(plans, verdicts))]


def _protected_record(plan, verdict: str, fault_spec, dur: float) -> dict:
    """Record for a fault the ECC corrected/detected: the golden outcome."""
    return _stamp_fault_fields({
        "kind": plan_kind(plan),
        "site": plan_site(plan),
        "bits": list(plan.bits),
        "delta_loss": 0.0,
        "mismatch_rate": 0.0,
        "sdc_rate": 0.0,
        "dur_s": dur,
    }, plan, fault_spec, verdict)


def plan_kind(plan) -> str:
    """The injection kind of a plan (``"value"`` or ``"metadata"``)."""
    return "value" if isinstance(plan, ValueInjection) else "metadata"


def plans_can_batch(plans) -> bool:
    """True when ``plans`` may share one fault-axis batched forward pass.

    Batching tiles the evaluation batch K times and corrupts one replica
    lane per plan, so it applies to same-layer neuron plans sharing one bit
    operation, value or metadata: a lane's metadata register is live during
    that lane's own quantize.  Weight corruptions perturb the parameters
    every lane shares and must execute one at a time.
    """
    if not plans:
        return False
    first = plans[0]
    return all(p.location == "neuron" and p.layer == first.layer
               and p.op == first.op for p in plans)


def lane_count(platform: GoldenEye, images, plans, config) -> int:
    """Faults one forward pass evaluates for one layer's ``plans``: K.

    An explicit ``config.fault_batch`` is returned as given.  Automatic
    (None) resolves K = ``LANE_BYTES //`` the bytes one lane materialises
    (:meth:`~repro.core.goldeneye.GoldenEye.lane_bytes`), capped at the
    plan count: in a chain recording, the recorded outputs from the layer
    on, plus the layer's input when it recomputes (a range detector makes
    it recompute); in any other, the images plus the whole recording.  K
    is 1 when the plans share no pass (:func:`plans_can_batch`: weight
    plans, mixed layers or ops) and when there is no golden recording
    (``resume=False``).  Observers (a profiler, a numerics monitor) do not
    change K.
    """
    if config.fault_batch is not None:
        return config.fault_batch
    session = platform.resume_session
    if (not config.resume or session is None or not session.recorded
            or not plans_can_batch(plans)):
        return 1
    lane = platform.lane_bytes(plans[0].layer, images)
    return max(1, min(len(plans), LANE_BYTES // lane))


def execute_injection_batch(
    platform: GoldenEye,
    golden: InferenceOutcome,
    images: np.ndarray,
    plans,
    use_resume: bool,
    fault_spec=None,
    protection=None,
) -> list[dict]:
    """Run one chunk of injections; return one record per plan, in order.

    A record is a plain dict (JSON/pickle friendly) holding everything
    aggregation needs: ``kind``, ``site``, ``bits``, ``delta_loss``,
    ``mismatch_rate``, ``sdc_rate`` and ``dur_s``; callers stamp ``layer``
    and ``seq``.  Every armed corruption is disarmed, so records are
    reproducible from the plans alone — the property the write-ahead
    journal relies on.  ``fault_spec`` (the campaign's fault-model spec)
    is stamped into the records when non-default.

    ``protection`` (a :class:`repro.core.ecc.ProtectionModel`) is consulted
    first: a corrected or detected fault never reaches the datapath and
    records the golden outcome with its ``ecc`` verdict.  The live plans
    share one lane-exact K-lane pass
    (:meth:`~repro.core.goldeneye.GoldenEye.forward_from_batched`) when
    there are several and :func:`plans_can_batch` accepts them; otherwise
    each runs its own K=1 pass (``forward_from``, or a full forward without
    ``use_resume``).  So record ``k`` is bit-identical to a one-plan chunk
    of ``plans[k]``, except ``dur_s``, which splits a pass across its plans.

    When tracing is enabled each call is wrapped in a ``campaign.batch``
    span (layer + chunk size) — the innermost level of the
    campaign → layer/shard → batch trace hierarchy rendered by
    ``repro timeline``.
    """
    plans = list(plans)
    if not plans:
        return []
    out: list = [None] * len(plans)
    with get_tracer().span("campaign.batch", layer=plans[0].layer,
                           size=len(plans)):
        live: list[tuple[int, object, str | None]] = []
        for i, plan in enumerate(plans):
            verdict = _classify_ecc(protection, plan)
            if verdict in ("corrected", "detected"):
                out[i] = _protected_record(plan, verdict, fault_spec, 0.0)
            else:
                live.append((i, plan, verdict))
        if len(live) > 1 and plans_can_batch([plan for _, plan, _ in live]):
            passes = [live]
        else:
            passes = [[entry] for entry in live]
        for group in passes:
            t_pass = time.perf_counter()
            group_plans = [plan for _, plan, _ in group]
            if len(group) > 1:
                lanes = platform.forward_from_batched(group_plans[0].layer,
                                                      group_plans, images)
            else:
                plan = group_plans[0]
                with platform.injector.armed(plan):
                    if use_resume:
                        logits = platform.forward_from(plan.layer, images)
                    else:
                        logits = golden_inference(platform, images,
                                                  golden.labels).logits
                lanes = logits[None]
            records = _lane_records(golden, lanes, group_plans,
                                    [verdict for _, _, verdict in group],
                                    fault_spec, t_pass)
            for (i, _, _), record in zip(group, records):
                out[i] = record
    return out


def execute_chunks(payload, layer: str, seqs):
    """Execute ``layer``'s plans at ``seqs``; yield each chunk's records.

    ``payload`` is the campaign's :class:`repro.exec.worker.WorkerPayload`.
    Chunks hold the layer's resolved lane count of plans
    (``payload.lanes``, see :func:`lane_count`; one batched forward
    each); records are stamped with ``layer`` and ``seq``, and the
    emulated device latency is slept once per chunk, after the caller
    took its records.
    """
    config = payload.config
    plans = payload.plans[layer]
    seqs = list(seqs)
    chunk = payload.lanes[layer]
    latency = float(config.injection_latency or 0.0)
    for i in range(0, len(seqs), chunk):
        group = seqs[i:i + chunk]
        records = execute_injection_batch(
            payload.platform, payload.golden, payload.images,
            [plans[seq] for seq in group], config.resume,
            fault_spec=payload.fault_spec, protection=payload.protection)
        for seq, record in zip(group, records):
            record["layer"] = layer
            record["seq"] = seq
        yield records
        if latency > 0.0:
            time.sleep(latency)


def record_matches_plan(record: dict, plan) -> bool:
    """True when a journaled record was produced by exactly this plan.

    ``layer`` and plan ``kind`` participate in the match: ``site`` + ``bits``
    alone can alias across layers (or across value/metadata campaigns that
    share a journal path), silently adopting a foreign record on resume.
    Records predating the ``kind`` field are matched on the remaining keys.
    """
    if "layer" in record and record["layer"] != plan.layer:
        return False
    if "kind" in record and record["kind"] != plan_kind(plan):
        return False
    if record.get("op", "xor") != getattr(plan, "op", "xor"):
        return False
    if int(record.get("persist", 0) or 0) != getattr(plan, "persist", 0):
        return False
    return (record.get("site") == plan_site(plan)
            and list(record.get("bits", ())) == list(plan.bits))


def emit_injection_telemetry(records, kind: str, location: str) -> None:
    """Publish executed records to the registry + tracer (parent side).

    One call per accepted chunk: the counter moves once and each layer's
    histogram is looked up once, then observes its records in order, so
    sums and buckets equal per-record publication.  Tracing emits one
    ``campaign.injection`` event per record.
    """
    registry = get_registry()
    registry.counter("campaign.injections_total",
                     help="injected inferences executed",
                     kind=kind, location=location).inc(len(records))
    histograms = {}
    for record in records:
        layer = record["layer"]
        histogram = histograms.get(layer)
        if histogram is None:
            histogram = histograms[layer] = registry.histogram(
                "campaign.injection_seconds",
                help="wall-clock per injected inference", layer=layer)
        histogram.observe(record["dur_s"])
    tracer = get_tracer()
    if tracer.enabled:
        for record in records:
            tracer.event("campaign.injection", layer=record["layer"],
                         kind=kind, location=location, seq=int(record["seq"]),
                         site=int(record["site"]),
                         bits=list(record["bits"]),
                         delta_loss=record["delta_loss"],
                         mismatch_rate=record["mismatch_rate"],
                         sdc_rate=record["sdc_rate"], dur_s=record["dur_s"])


class RecordSink:
    """The one accept path: the serial path accepts per chunk, the parallel
    supervisor per worker batch, journal resume through :meth:`prefill`.

    ``journal`` is the write-ahead
    :class:`~repro.exec.journal.CampaignJournal` and ``progress`` the live
    :class:`~repro.obs.live.CampaignProgress` (either may be None).
    """

    def __init__(self, kind: str, location: str, journal=None,
                 progress=None):
        self.kind = kind
        self.location = location
        self.journal = journal
        self.progress = progress
        #: every accepted record, keyed by ``(layer, seq)``
        self.records: dict[tuple[str, int], dict] = {}

    def accept(self, records, prefill: bool = False) -> None:
        """Journal the records not yet held, then store, publish, track them.

        Held records (a straggler batch from a killed worker that raced
        its retry) are skipped.  The journal append comes first, so nothing
        reaches the store, telemetry or progress unless it is on disk.
        ``prefill=True`` adopts records read back from the journal: stored
        and counted as prefilled progress, not re-journaled or re-published.
        """
        fresh = [record for record in records
                 if (record["layer"], record["seq"]) not in self.records]
        if not fresh:
            return
        if self.journal is not None and not prefill:
            self.journal.append_batch(fresh)
        for record in fresh:
            self.records[(record["layer"], record["seq"])] = record
        if not prefill:
            emit_injection_telemetry(fresh, self.kind, self.location)
        if self.progress is not None:
            for record in fresh:
                self.progress.record(record["layer"], record["seq"],
                                     record["sdc_rate"], prefill=prefill)
            if not prefill:
                self.progress.maybe_log()

    def prefill(self, records) -> None:
        """Adopt records a previous run already journaled."""
        self.accept(records, prefill=True)


# ----------------------------------------------------------------------
# stage 3: order-fixed aggregation
# ----------------------------------------------------------------------
def normalized_record(entry: dict) -> dict:
    """A journal or trace record with missing/null numeric fields as 0.0."""
    record = dict(entry)
    for key in ("delta_loss", "mismatch_rate", "sdc_rate", "dur_s"):
        record[key] = float(entry.get(key, 0.0) or 0.0)
    return record


def fold_sdc(rates) -> tuple[float, tuple[float, float]]:
    """Per-injection SDC rates, summed left to right: (rate, Wilson CI95).

    Passed in ``seq`` order, the rates give the same floats whatever order
    the records arrived in; no rates give ``(0.0, (0.0, 1.0))``.
    """
    from ..analysis.confidence import wilson_interval

    total = 0.0
    count = 0
    for rate in rates:
        total += rate
        count += 1
    return (total / count if count else 0.0), wilson_interval(total, count)


def aggregate_layer(layer_plan: LayerPlan,
                    records: dict[int, dict]) -> LayerCampaignResult | None:
    """Fold one layer's records (keyed by ``seq``); None when there are none."""
    return (fold_layer(layer_plan.layer, records, layer_plan.retries)
            if records else None)


def fold_layer(layer: str, records_by_seq: dict[int, dict],
               retries: int = 0) -> LayerCampaignResult:
    """Fold one layer's records (keyed by ``seq``) into its statistics.

    Records are folded in plan (``seq``) order regardless of the order in
    which they were executed, so a 4-worker campaign, a serial campaign and
    a journal-resumed campaign all aggregate bit-identically.  Missing seqs
    (quarantined shards, interrupted runs) are simply absent — the layer
    degrades to the statistics of the records that exist (zero counts when
    there are none).
    """
    ordered = [records_by_seq[seq] for seq in sorted(records_by_seq)]
    if not ordered:
        return LayerCampaignResult(layer=layer, injections=0,
                                   mean_delta_loss=0.0, max_delta_loss=0.0,
                                   mismatch_rate=0.0, sdc_rate=0.0,
                                   retries=retries)
    delta_losses = [r["delta_loss"] for r in ordered]
    sdc_rate, sdc_ci95 = fold_sdc(r["sdc_rate"] for r in ordered)
    mismatches = 0.0
    pattern_groups: dict[str, list[dict]] = {}
    ecc_counts: dict[str, int] = {}
    for r in ordered:
        mismatches += r["mismatch_rate"]
        verdict = r.get("ecc")
        if verdict:
            ecc_counts[verdict] = ecc_counts.get(verdict, 0) + 1
        bits = list(r.get("bits", ()))
        groups = [f"len{len(bits)}"]
        if len(bits) > 1:
            groups.append(f"start{min(bits)}")
        for g in groups:
            pattern_groups.setdefault(g, []).append(r)
    performed = len(ordered)
    by_pattern = {
        g: {
            "injections": len(rows),
            "sdc_rate": float(np.mean([r["sdc_rate"] for r in rows])),
            "mean_delta_loss": float(np.mean([r["delta_loss"] for r in rows])),
        }
        for g, rows in sorted(pattern_groups.items())
    }
    return LayerCampaignResult(
        layer=layer,
        injections=performed,
        mean_delta_loss=float(np.mean(delta_losses)),
        max_delta_loss=float(np.max(delta_losses)),
        mismatch_rate=mismatches / performed,
        sdc_rate=sdc_rate,
        delta_losses=delta_losses,
        seconds=float(sum(r["dur_s"] for r in ordered)),
        retries=retries,
        by_pattern=by_pattern,
        ecc=ecc_counts,
        sdc_ci95=sdc_ci95,
    )


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------
def run_campaign(
    platform: GoldenEye,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    spec: CampaignSpec | None = None,
    exec_config: ExecConfig | None = None,
    journal: str | None = None,
    serve=None,
    ledger=None,
    **fields,
) -> CampaignResult:
    """Run an injection campaign and aggregate ΔLoss / mismatch per layer.

    The platform must already be attached.  ``spec`` (a
    :class:`CampaignSpec`) says what to inject and ``exec_config`` (a
    :class:`~repro.exec.ExecConfig`) how to run it; every setting is
    documented on its field there.  Any field of either may also be passed
    as a keyword (``injections_per_layer=50, workers=4``), overriding the
    object's value; an unknown keyword raises :class:`TypeError`.

    Journal
    -------
    ``journal=PATH`` write-ahead-journals every completed injection;
    re-running the same campaign with the same journal skips the journaled
    work and reproduces the identical aggregate (crash/SIGKILL recovery).
    A journal written by a different campaign raises
    :class:`~repro.exec.journal.JournalMismatch`.

    Live observability
    ------------------
    ``serve="host:port"`` starts an embedded observability server
    (:class:`repro.obs.live.LiveServer`) for the duration of the campaign:
    ``/metrics`` (live Prometheus exposition), ``/progress`` (the
    ``progress/v1`` JSON contract with per-layer done/total, EWMA
    throughput, ETA and in-flight SDC±Wilson-CI), ``/healthz`` (worker
    liveness) and ``/events`` (SSE trace-event stream).  A port already in
    use raises :class:`CampaignError` naming the address; the server is
    always shut down when the campaign ends — a SIGINT mid-campaign still
    returns the partial resumable result with no dangling thread.  Passing
    an already-started :class:`~repro.obs.live.LiveServer` instance instead
    of an address attaches the campaign to it but leaves the lifecycle (and
    the final progress state, still being served) to the caller.  Progress
    is tracked identically for serial, parallel and fault-batched runs.

    Campaign ledger
    ---------------
    ``ledger`` points the run at a :mod:`campaign ledger <repro.obs.ledger>`
    — a sqlite path, an open :class:`~repro.obs.ledger.CampaignLedger`,
    or None to consult the ``REPRO_LEDGER`` environment variable (unset =
    no ledger).  When configured, the run's provenance and per-layer
    outcomes are recorded automatically at the end of the campaign —
    identically for serial, parallel, fault-batched and resumed
    execution; a resumed journal run *updates* its original row.  The
    write is failure-isolated (a broken ledger never fails the campaign)
    and timed into ``telemetry["ledger_seconds"]``; the row id lands in
    :attr:`CampaignResult.ledger_run_id`.
    """
    if not platform.attached:
        raise RuntimeError("attach() the GoldenEye platform before running a campaign")
    spec, cfg = campaign_settings(spec, exec_config, fields)
    all_layers = platform.layer_names()
    if spec.layers is not None:
        unknown = [name for name in spec.layers if name not in set(all_layers)]
        if unknown:
            raise ValueError(
                f"unknown layer(s) {unknown!r} in layers=; "
                f"instrumented layers: {', '.join(all_layers)}")
    check_labels(images, labels)

    from ..obs.live import LiveServer

    with (LiveServer.start(serve) if isinstance(serve, str)
          else nullcontext(serve)) as server:
        return _execute_campaign(platform, images, labels, spec, cfg,
                                 journal, server, ledger)


def _execute_campaign(platform: GoldenEye, images, labels,
                      spec: CampaignSpec, cfg: ExecConfig, journal, server,
                      ledger) -> CampaignResult:
    """Sample, execute and aggregate one validated campaign."""
    from ..obs.live import CampaignProgress

    kind, location = spec.kind, spec.location
    fault_model = parse_fault_model(spec.fault_model)
    protection = (None if spec.protect == "none"
                  else parse_protection(spec.protect))
    workers = max(1, int(cfg.workers or 1))
    registry = get_registry()
    progress = CampaignProgress(kind=kind, location=location,
                                format_name=platform.format_name())
    previous_tracer = None
    if server is not None:
        server.attach(progress, registry)
        logger.info("live observability serving on %s", server.url)
        # compose — never replace — whatever tracer is configured, so the
        # /events SSE stream adds a consumer next to the JSONL sink
        previous_tracer = set_tracer(
            BroadcastTracer(get_tracer(), server.publish))
    tracer = get_tracer()
    started_at = time.time()
    t_campaign = time.perf_counter()
    if cfg.resume:
        session = platform.enable_resume()
        # read live until progress.finish() seals the counts and drops this
        progress.resume_source = lambda: session.stats
    try:
        if cfg.resume:
            logits = platform.capture_golden(images)  # also warms output shapes
            golden = InferenceOutcome(logits=logits, labels=np.asarray(labels))
        else:
            golden = golden_inference(platform, images, labels)

        all_layers = platform.layer_names()
        layer_index = {name: i for i, name in enumerate(all_layers)}
        target_layers = (list(spec.layers) if spec.layers is not None
                         else all_layers)
        logger.info(
            "campaign start: kind=%s location=%s format=%s layers=%d "
            "injections/layer=%d resume=%s workers=%d journal=%s", kind,
            location, platform.format_name(), len(target_layers),
            spec.injections_per_layer, cfg.resume, workers, journal)

        quarantined: list[dict] = []
        interrupted = False
        with tracer.span("campaign.run", kind=kind, location=location,
                         format=platform.format_name(), seed=spec.seed,
                         injections_per_layer=spec.injections_per_layer,
                         layers=len(target_layers), resume=cfg.resume,
                         workers=workers) as run_span:
            # ---- stage 1: sample every layer's plans up front ------------
            sampling: dict[str, LayerPlan] = {}
            for layer in target_layers:
                rng = np.random.default_rng(
                    [spec.seed, layer_index.get(layer, len(layer_index))])
                sampling[layer] = sample_layer_plans(
                    platform, layer, kind, location,
                    spec.injections_per_layer, rng, spec.num_bits,
                    fault_model=fault_model)
            plan_sizes = {layer: len(sampling[layer].plans)
                          for layer in target_layers}
            progress.set_plan(plan_sizes)

            # ---- campaign identity (journal + ledger share it) -----------
            fingerprint = spec.fingerprint(platform.format_name(),
                                           target_layers, images, labels)

            # ---- write-ahead journal: load completed work ----------------
            sink = RecordSink(kind, location, progress=progress)
            try:
                if journal is not None:
                    from ..exec.journal import CampaignJournal
                    sink.journal, completed = CampaignJournal.open(
                        journal, fingerprint, plan=plan_sizes)
                    sink.prefill(
                        rec for (layer, seq), rec in completed.items()
                        if layer in sampling
                        and seq < len(sampling[layer].plans)
                        and record_matches_plan(rec,
                                                sampling[layer].plans[seq]))
                journal_skipped = len(sink.records)
                if journal_skipped:
                    registry.counter(
                        "campaign.journal_skipped_total",
                        help="injections satisfied from the write-ahead "
                             "journal instead of re-executing"
                    ).inc(journal_skipped)
                    logger.info("journal %s: resuming past %d completed "
                                "injections", journal, journal_skipped)

                # ---- stage 2: execute outstanding plans ------------------
                from ..exec.worker import WorkerPayload
                payload = WorkerPayload(
                    platform=platform, golden=golden, images=images,
                    plans={name: lp.plans for name, lp in sampling.items()},
                    config=cfg,
                    lanes={name: lane_count(platform, images, lp.plans, cfg)
                           for name, lp in sampling.items()},
                    fault_spec=spec.fault_model, protection=protection)
                if workers >= 2:
                    from ..exec.supervisor import run_parallel_campaign
                    outcome = run_parallel_campaign(payload, sampling, sink)
                    quarantined = outcome.quarantined
                    interrupted = outcome.interrupted
                else:
                    _run_serial(payload, sampling, sink)
            finally:
                # closing releases the journal's lock, whatever went wrong
                if sink.journal is not None:
                    sink.journal.close()

            # ---- stage 3: aggregate in plan order ------------------------
            per_layer: dict[str, LayerCampaignResult] = {}
            for layer in target_layers:
                layer_records = {seq: rec
                                 for (name, seq), rec in sink.records.items()
                                 if name == layer}
                stats = aggregate_layer(sampling[layer], layer_records)
                if stats is not None:
                    per_layer[layer] = stats
                    logger.debug("layer %s: %d injections in %.3fs "
                                 "(mean ΔLoss %.4f)", layer, stats.injections,
                                 stats.seconds, stats.mean_delta_loss)

            resume_stats = None
            if cfg.resume:
                resume_stats = session.stats
                registry.gauge("resume.hit_rate").set(
                    hit_rate(resume_stats["hits"], resume_stats["misses"]))
                # the replay rate is the hit rate of the calls replay wanted
                registry.gauge("resume.replay_rate").set(hit_rate(
                    resume_stats["replayed"], resume_stats["recomputed"]))
                registry.gauge("resume.cache_bytes").set(session.cache.nbytes)
                registry.gauge("resume.cache_entries").set(len(session.cache))

            wall = time.perf_counter() - t_campaign
            injections_total = sum(r.injections for r in per_layer.values())
            retries_total = sum(r.retries for r in per_layer.values())
            throughput = injections_total / wall if wall > 0 else 0.0
            run_span.set(injections=injections_total, wall_s=wall,
                         injections_per_sec=throughput,
                         workers=workers,
                         journal_skipped=journal_skipped,
                         quarantined=len(quarantined),
                         interrupted=interrupted)
        registry.gauge("campaign.injections_per_sec",
                       help="throughput of the most recent campaign").set(throughput)
        registry.gauge("campaign.wall_seconds").set(wall)
        logger.info("campaign done: %d injections in %.2fs (%.1f inj/s)%s%s",
                    injections_total, wall, throughput,
                    f" [{len(quarantined)} shard(s) quarantined]" if quarantined else "",
                    " [interrupted]" if interrupted else "")
        telemetry = {
            "wall_seconds": wall,
            "injections": injections_total,
            "injections_per_sec": throughput,
            "sampling_retries": retries_total,
            "workers": workers,
            "fault_batch": max(payload.lanes.values(), default=1),
            "journal_skipped": journal_skipped,
            "quarantined_shards": len(quarantined),
            "per_layer": {
                name: {"seconds": r.seconds, "injections": r.injections,
                       "retries": r.retries}
                for name, r in per_layer.items()
            },
        }
        progress.finish("interrupted" if interrupted else "done")
        result = CampaignResult(
            kind=kind,
            location=location,
            format_name=platform.format_name(),
            golden_accuracy=golden.accuracy,
            per_layer=per_layer,
            resume_stats=resume_stats,
            telemetry=telemetry,
            quarantined=quarantined,
            interrupted=interrupted,
            journal_path=str(journal) if journal is not None else None,
            fingerprint=fingerprint,
        )
        _record_to_ledger(result, ledger, started_at)
        return result
    finally:
        # finish() only transitions from "running", so a clean return (which
        # already sealed the state as done/interrupted) is not clobbered
        progress.finish("error")
        if previous_tracer is not None:
            set_tracer(previous_tracer)
        # always release the activation cache — an injection raising mid-run
        # must not leak the full golden-pass cache
        if cfg.resume:
            platform.clear_resume()


def _record_to_ledger(result: CampaignResult, ledger,
                      started_at: float) -> None:
    """Write ``result`` to the configured campaign ledger, if any.

    The ledger is observability, never a dependency: open/write failures
    are logged and swallowed, and the write is timed into
    ``telemetry["ledger_seconds"]`` so ``benchmarks/bench_ledger.py`` can
    hold it under 1% of campaign wall time.
    """
    from ..obs.ledger import resolve_ledger
    from ..obs.tracing import sink_path
    try:
        ledger_obj, owns = resolve_ledger(ledger)
    except Exception:  # noqa: BLE001 - a broken ledger never fails the run
        logger.warning("could not open campaign ledger", exc_info=True)
        return
    if ledger_obj is None:
        return
    t0 = time.perf_counter()
    try:
        result.ledger_run_id = ledger_obj.record_campaign(
            result, started_at=started_at,
            trace_path=sink_path(get_tracer()))
        logger.info("ledger %s: recorded run %s", ledger_obj.path,
                    result.ledger_run_id)
    except Exception:  # noqa: BLE001 - a broken ledger never fails the run
        logger.warning("campaign ledger write failed (run not recorded)",
                       exc_info=True)
    finally:
        if owns:
            try:
                ledger_obj.close()
            except Exception:  # noqa: BLE001
                pass
        if result.telemetry is not None:
            result.telemetry["ledger_seconds"] = time.perf_counter() - t0


def _run_serial(payload, sampling: dict[str, LayerPlan],
                sink: RecordSink) -> None:
    """Execute every plan ``sink`` does not hold yet, in-process.

    The same chunk loop the parallel workers run (:func:`execute_chunks`,
    including the emulated per-chunk device latency, so serial-vs-parallel
    comparisons measure orchestration, not an asymmetric handicap); each
    chunk's records are accepted as one batch.
    """
    tracer = get_tracer()
    for layer, layer_plan in sampling.items():
        if not layer_plan.plans:
            continue
        with tracer.span("campaign.layer", layer=layer,
                         kind=sink.kind) as layer_span:
            seqs = [seq for seq in range(len(layer_plan.plans))
                    if (layer, seq) not in sink.records]
            for records in execute_chunks(payload, layer, seqs):
                sink.accept(records)
            layer_span.set(performed=len(seqs), retries=layer_plan.retries)


def _site_space(platform: GoldenEye, layer: str, kind: str, location: str,
                fault_model: FaultModel = SingleBit()) -> int:
    """Total number of unique (index/register, pattern) sites at this layer.

    Neuron value sites count *per-sample* elements: the batch axis is never
    injectable (each batch sample receives the same flip), so a 1-D layer
    output of shape ``(batch,)`` contributes exactly one element — not
    ``batch`` of them (see :func:`repro.core.injection.per_sample_numel`).
    The fault model gives the per-word pattern count (e.g. a burst can
    start at fewer positions than there are bits).
    """
    state = platform.layers[layer]
    if kind == "value":
        numel, width = _layer_value_geometry(platform, layer, location)
        return numel * fault_model.patterns_per_word(width)
    fmt = state.neuron_format if location == "neuron" else state.weight_format
    if fmt is None or not fmt.has_metadata:
        return 0
    return fmt.num_metadata_registers() * fmt.metadata_register_width()
