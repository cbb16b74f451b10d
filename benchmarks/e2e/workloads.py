"""The four benchmark workloads, run inside one fresh benchmark subprocess.

Each workload is driven only through the platform's public API
(``get_pretrained``, ``GoldenEye``, ``run_campaign``, ``profile_resilience``,
``evaluate_format_accuracy``, ``binary_tree_search``) and timed from
outside.  A benchmark session (one fresh subprocess) runs a workload as
*set-up* → *warm-up* (untimed) → *timed repetitions*, each returning an
:class:`Outcome`.

The seed picks the evaluation batch from the validation split and the
campaign seed; the platform only ever sees those generated inputs.  Why
each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import profile_resilience
from repro.core import GoldenEye, run_campaign
from repro.core.dse import binary_tree_search, evaluate_format_accuracy
from repro.data import SyntheticImageNet, get_pretrained
from repro.obs.telemetry import get_registry
from repro.obs.tracing import get_tracer

#: the standard experiment dataset (the repository's ImageNet stand-in)
DATASET = dict(num_classes=10, num_samples=800, image_size=32, seed=0)
EPOCHS = 3
MODELS = ("simple_mlp", "simple_cnn", "resnet18")

#: W4's format sweep (Fig. 3/4 formats with distinct quantizer kernels)
SWEEP_FORMATS = ("fp16", "int8", "bfp_e5m5_b16", "afp_e5m2", "posit8")


@dataclass
class Outcome:
    """What one timed repetition produced."""

    #: completed work items (injections, or emulated images for W4)
    items: int
    #: wall seconds the items were completed in
    work_s: float
    #: planned work units (injections, or format/DSE evaluations) and how
    #: many of them completed
    planned: int
    completed: int
    #: SHA-256 over the science the repetition computed
    digest: str
    #: side facts the per-layer attribution needs
    facts: dict = field(default_factory=dict)


def digest_of(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def campaign_payload(result) -> list:
    """Per-layer (injections, ΔLoss list, SDC, mismatch) of one campaign."""
    return [[layer, r.injections, r.delta_losses, r.sdc_rate, r.mismatch_rate]
            for layer, r in result.per_layer.items()]


def eval_batch(val, size: int, seed: int):
    """``size`` validation images chosen by ``seed`` (sorted indices)."""
    images, labels = val
    idx = np.sort(np.random.default_rng(seed).choice(
        len(images), size=size, replace=False))
    return images[idx], labels[idx]


def load_model(name: str):
    """Synthesize the dataset and load ``name``'s cached weights."""
    tracer = get_tracer()
    with tracer.span("data.synth"):
        dataset = SyntheticImageNet(**DATASET)
    with tracer.span("data.load"):
        return get_pretrained(name, dataset, epochs=EPOCHS, seed=0)


def prepare() -> None:
    """Train every model whose weights are not cached yet (untimed)."""
    dataset = SyntheticImageNet(**DATASET)
    for name in MODELS:
        get_pretrained(name, dataset, epochs=EPOCHS, seed=0)


class PlanCounter:
    """Counts the injections a campaign planned (``sample_layer_plans``).

    Installed in every run, traced or not: it adds one call per layer,
    and ``planned - completed`` is how lost injections are detected.
    """

    def __init__(self):
        import repro.core.campaign as campaign
        self.planned = 0
        inner = campaign.sample_layer_plans

        def sample_layer_plans(*args, **kwargs):
            layer_plan = inner(*args, **kwargs)
            self.planned += len(layer_plan.plans)
            return layer_plan

        campaign.sample_layer_plans = sample_layer_plans

    def take(self) -> int:
        planned, self.planned = self.planned, 0
        return planned


def _retries() -> float:
    counter = get_registry().get("exec.shard_retries_total")
    return counter.value if counter is not None else 0.0


def _campaign_outcome(results, planned: int, wall: float, **facts) -> Outcome:
    completed = sum(sum(r.injections for r in res.per_layer.values())
                    for res in results)
    facts.update(
        quarantined=sum(len(res.quarantined) for res in results),
        ledger_s=sum((res.telemetry or {}).get("ledger_seconds", 0.0)
                     for res in results),
        resume={k: sum((res.resume_stats or {}).get(k, 0) for res in results)
                for k in ("hits", "misses")})
    return Outcome(items=completed, work_s=wall, planned=planned,
                   completed=completed,
                   digest=digest_of([campaign_payload(r) for r in results]),
                   facts=facts)


class Workload:
    """Base: subclasses set sizes in ``__init__`` and implement the phases."""

    name = ""
    #: campaign workers (the per-layer worker utilisation divides by it)
    workers = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.plans = PlanCounter()
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                             dir=_scratch_root()))

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, index: int) -> Outcome:
        """Timed repetition ``index`` (journals and ledgers are fresh)."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class ResnetBfpReplay(Workload):
    """W1: Fig. 7 value campaign on the deep CNN, serial, resume on."""

    name = "resnet-bfp-replay"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed)
        self.batch, self.per_layer = (8, 1) if quick else (16, 3)

    def setup(self) -> None:
        model, val = load_model("resnet18")
        self.images, self.labels = eval_batch(val, self.batch, self.seed)
        self.platform = GoldenEye(model, "bfp_e5m5_b16").attach()

    def warmup(self) -> None:
        run_campaign(self.platform, self.images, self.labels,
                     injections_per_layer=1, seed=self.seed)
        self.plans.take()

    def run(self, index: int) -> Outcome:
        t0 = time.perf_counter()
        result = run_campaign(self.platform, self.images, self.labels,
                              injections_per_layer=self.per_layer,
                              seed=self.seed)
        wall = time.perf_counter() - t0
        return _campaign_outcome([result], self.plans.take(), wall)


class MlpExhaustiveJournal(Workload):
    """W2: every neuron bit of simple_mlp, journaled and ledgered."""

    name = "mlp-exhaustive-journal"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed)
        self.batch, self.sweeps = (2, 1) if quick else (8, 2)

    def setup(self) -> None:
        model, val = load_model("simple_mlp")
        self.batches = [eval_batch(val, self.batch, self.seed + k)
                        for k in range(self.sweeps)]
        self.platform = GoldenEye(model, "fp32").attach()

    def warmup(self) -> None:
        images, labels = self.batches[0]
        run_campaign(self.platform, images, labels, injections_per_layer=1,
                     seed=self.seed)
        self.plans.take()

    def run(self, index: int) -> Outcome:
        results = []
        t0 = time.perf_counter()
        for k, (images, labels) in enumerate(self.batches):
            results.append(run_campaign(
                self.platform, images, labels, fault_model="exhaustive",
                seed=self.seed + k,
                journal=str(self.scratch / f"r{index}-{k}.jsonl"),
                ledger=str(self.scratch / f"r{index}.db")))
        wall = time.perf_counter() - t0
        return _campaign_outcome(results, self.plans.take(), wall)


class CnnParallelResilience(Workload):
    """W3: value + metadata resilience profile on a 2-worker fork pool."""

    name = "cnn-parallel-resilience"
    workers = 2

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed)
        self.batch, self.per_layer = (8, 10) if quick else (16, 60)

    def setup(self) -> None:
        self.model, val = load_model("simple_cnn")
        self.images, self.labels = eval_batch(val, self.batch, self.seed)

    def _profile(self, per_layer: int, tag: str):
        return profile_resilience(
            self.model, "simple_cnn", "bfp_e5m5_b16", self.images,
            self.labels, injections_per_layer=per_layer, seed=self.seed,
            workers=self.workers, fault_batch=4,
            journal=str(self.scratch / f"{tag}.jsonl"),
            ledger=str(self.scratch / f"{tag}.db"))

    def warmup(self) -> None:
        self._profile(1, "warmup")
        self.plans.take()

    def run(self, index: int) -> Outcome:
        retries = _retries()
        t0 = time.perf_counter()
        profile = self._profile(self.per_layer, f"r{index}")
        wall = time.perf_counter() - t0
        return _campaign_outcome(
            [profile.value_campaign, profile.metadata_campaign],
            self.plans.take(), wall, retries=_retries() - retries)


class ResnetFormatDse(Workload):
    """W4: format sweep + BFP design-space search, no injection at all."""

    name = "resnet-format-dse"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed)
        self.batch = 16 if quick else 32

    def setup(self) -> None:
        self.model, val = load_model("resnet18")
        self.images, self.labels = eval_batch(val, self.batch, self.seed)

    def warmup(self) -> None:
        evaluate_format_accuracy(self.model, self.images, self.labels, "fp32")

    def run(self, index: int) -> Outcome:
        tracer = get_tracer()
        accuracy = {}
        t0 = time.perf_counter()
        for spec in SWEEP_FORMATS:
            with tracer.span("bench.format_eval", format=spec):
                accuracy[spec] = evaluate_format_accuracy(
                    self.model, self.images, self.labels, spec)
        with tracer.span("bench.dse"):
            search = binary_tree_search(self.model, self.images, self.labels,
                                        family="bfp")
        wall = time.perf_counter() - t0
        nodes = [[n.format.name, n.accuracy] for n in search.nodes]
        best = search.best.format.name if search.best is not None else None
        valid = [a for a in accuracy.values() if 0.0 <= a <= 1.0]
        # the search visits a data-dependent number of nodes, so the work
        # is counted in images inferred: sweep, native baseline and nodes
        passes = len(SWEEP_FORMATS) + 1 + len(nodes)
        return Outcome(
            items=passes * len(self.images), work_s=wall,
            planned=len(SWEEP_FORMATS) + 1,
            completed=len(valid) + (1 if search.nodes else 0),
            digest=digest_of({"accuracy": accuracy, "dse": nodes,
                              "best": best}))


WORKLOADS = {cls.name: cls for cls in (
    ResnetBfpReplay, MlpExhaustiveJournal, CnnParallelResilience,
    ResnetFormatDse)}


def _scratch_root() -> Path:
    root = Path(__file__).resolve().parent / "out" / "tmp"
    root.mkdir(parents=True, exist_ok=True)
    return root
