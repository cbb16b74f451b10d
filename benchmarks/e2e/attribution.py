"""Per-layer attribution of one traced benchmark repetition.

:func:`install` turns on the platform's own tracer with an in-memory sink
and wraps public functions at their call sites (module attributes and
class methods) so that each call opens a span named after its layer.
Spans recorded in a campaign worker travel home over the executor's
existing telemetry channel, tagged with ``worker_id``, so worker time is
attributed exactly like parent time.  Nothing under ``src/`` changes.

:func:`per_layer` folds the spans into the metrics of :data:`PER_LAYER`.
A span's *self* time is its duration minus the durations of its children
in the same process; a worker's spans never subtract from the parent's.
"""

from __future__ import annotations

import functools
import statistics

import numpy as np

from repro.obs.tracing import Tracer, get_tracer, set_tracer

#: (metric, unit, what it measures); seconds are per timed repetition
PER_LAYER = [
    ("formats.quantize_s", "s", "real_to_format_tensor, every format class"),
    ("formats.quantize_calls", "count", "quantizer calls"),
    ("formats.quantize_ns_per_elem", "ns/elem", "quantizer cost per element"),
    ("formats.flip_s", "s", "flip_values and flip_values_batched"),
    ("formats.flip_calls", "count", "flip calls"),
    ("nn.conv2d_s", "s", "conv2d self time (GEMM and im2col excluded)"),
    ("nn.im2col_s", "s", "im2col patch lowering"),
    ("nn.batch_norm_s", "s", "batch_norm"),
    ("nn.linear_s", "s", "linear self time (GEMM excluded)"),
    ("nn.matmul_s", "s", "lane_matmul GEMMs of conv and linear"),
    ("goldeneye.attach_s", "s", "GoldenEye.attach, set-up and repetition"),
    ("goldeneye.capture_golden_s", "s", "golden pass recording"),
    ("goldeneye.forward_from_s", "s", "replayed forwards (K=1 and batched)"),
    ("goldeneye.forward_from_calls", "count", "replayed forwards"),
    ("resume.hit_rate", "frac", "activation-cache hits / lookups"),
    ("campaign.sample_s", "s", "sample_layer_plans"),
    ("campaign.execute_s", "s", "execute_injection_batch self time"),
    ("campaign.aggregate_s", "s", "aggregate_layer"),
    ("campaign.inj_ms_p50", "ms", "median campaign.injection dur_s"),
    ("campaign.inj_ms_p95", "ms", "95th percentile campaign.injection dur_s"),
    ("campaign.records", "count",
     "records returned by execute_injection_batch, parent and workers"),
    ("metrics.compare_s", "s", "compare_outcomes"),
    ("metrics.compare_calls", "count", "compare_outcomes calls"),
    ("exec.journal_append_s", "s", "CampaignJournal appends"),
    ("exec.shm_publish_s", "s", "SharedGoldenCache.publish"),
    ("exec.worker_busy_s", "s", "exec.worker_shard spans, all workers"),
    ("exec.worker_util", "frac", "worker busy / (workers x parallel wall)"),
    ("exec.parent_wait_s", "s", "CampaignSupervisor.run self time"),
    ("exec.retries", "count", "shard retries"),
    ("exec.quarantined", "count", "quarantined shards"),
    ("obs.ledger_s", "s", "ledger writes (telemetry ledger_seconds)"),
    ("obs.emit_s", "s", "emit_injection_telemetry"),
    ("dse.node_s", "s", "dse.node spans"),
    ("dse.nodes", "count", "DSE nodes evaluated"),
    ("data.synth_s", "s", "SyntheticImageNet and splits, set-up"),
    ("data.load_s", "s", "get_pretrained from the warm cache, set-up"),
    ("trace.coverage", "frac", "share of the repetition inside child spans"),
    ("trace.overhead_frac", "frac",
     "1 - traced / untraced work_per_s (filled in by the parent)"),
]

#: metric -> (span names, "self" or "total") over the timed repetition
_SPAN_TIMES = {
    "formats.quantize_s": (("formats.quantize",), "total"),
    "formats.flip_s": (("formats.flip",), "total"),
    "nn.conv2d_s": (("nn.conv2d",), "self"),
    "nn.im2col_s": (("nn.im2col",), "total"),
    "nn.batch_norm_s": (("nn.batch_norm",), "total"),
    "nn.linear_s": (("nn.linear",), "self"),
    "nn.matmul_s": (("nn.matmul",), "total"),
    "goldeneye.capture_golden_s": (("goldeneye.capture_golden",), "total"),
    "goldeneye.forward_from_s": (("goldeneye.forward_from",), "total"),
    "campaign.sample_s": (("campaign.sample",), "total"),
    "campaign.execute_s": (("campaign.execute", "campaign.batch"), "self"),
    "campaign.aggregate_s": (("campaign.aggregate",), "total"),
    "metrics.compare_s": (("metrics.compare",), "total"),
    "exec.journal_append_s": (("exec.journal_append",), "total"),
    "exec.shm_publish_s": (("exec.shm_publish",), "total"),
    "exec.worker_busy_s": (("exec.worker_shard",), "total"),
    "exec.parent_wait_s": (("exec.supervise",), "self"),
    "obs.emit_s": (("obs.emit",), "total"),
    "dse.node_s": (("dse.node",), "total"),
}

_CALLS = {
    "formats.quantize_calls": "formats.quantize",
    "formats.flip_calls": "formats.flip",
    "goldeneye.forward_from_calls": "goldeneye.forward_from",
    "metrics.compare_calls": "metrics.compare",
    "dse.nodes": "dse.node",
}


class MemorySink:
    """Tracer sink that keeps every event in memory until the run ends."""

    path = None

    def __init__(self):
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def _spanned(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with get_tracer().span(name):
            return fn(*args, **kwargs)
    return wrapper


def _quantize_spanned(fn):
    @functools.wraps(fn)
    def wrapper(self, tensor, *args, **kwargs):
        with get_tracer().span("formats.quantize", elems=int(np.size(tensor))):
            return fn(self, tensor, *args, **kwargs)
    return wrapper


def _execute_spanned(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with get_tracer().span("campaign.execute") as span:
            records = fn(*args, **kwargs)
            span.set(records=len(records))
            return records
    return wrapper


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> MemorySink:
    """Enable tracing into memory and wrap every attributed call site."""
    import repro.core.campaign as campaign
    import repro.core.injection as injection
    import repro.exec.supervisor as supervisor
    import repro.nn.functional as functional
    import repro.nn.lanes as lanes
    from repro.core.goldeneye import GoldenEye
    from repro.exec.journal import CampaignJournal
    from repro.exec.shmcache import SharedGoldenCache
    from repro.formats.base import NumberFormat

    sites = [
        (functional, "conv2d", "nn.conv2d"),
        (functional, "im2col", "nn.im2col"),
        (functional, "batch_norm", "nn.batch_norm"),
        (functional, "linear", "nn.linear"),
        (functional, "lane_matmul", "nn.matmul"),
        (lanes, "lane_matmul", "nn.matmul"),
        (injection, "flip_values", "formats.flip"),
        (injection, "flip_values_batched", "formats.flip"),
        (campaign, "sample_layer_plans", "campaign.sample"),
        (campaign, "aggregate_layer", "campaign.aggregate"),
        (campaign, "compare_outcomes", "metrics.compare"),
        (campaign, "emit_injection_telemetry", "obs.emit"),
        (supervisor, "run_parallel_campaign", "exec.parallel"),
        (supervisor.CampaignSupervisor, "run", "exec.supervise"),
        (CampaignJournal, "append_record", "exec.journal_append"),
        (CampaignJournal, "append_batch", "exec.journal_append"),
        (GoldenEye, "forward_from", "goldeneye.forward_from"),
        (GoldenEye, "forward_from_batched", "goldeneye.forward_from"),
    ]
    for owner, attr, name in sites:
        setattr(owner, attr, _spanned(name, getattr(owner, attr)))
    campaign.execute_injection_batch = _execute_spanned(
        campaign.execute_injection_batch)
    publish = SharedGoldenCache.__dict__["publish"].__func__
    SharedGoldenCache.publish = classmethod(
        _spanned("exec.shm_publish", publish))
    for cls in _subclasses(NumberFormat):
        if "real_to_format_tensor" in cls.__dict__:
            cls.real_to_format_tensor = _quantize_spanned(
                cls.real_to_format_tensor)
    sink = MemorySink()
    set_tracer(Tracer(sink))
    return sink


class _Spans:
    """Span events indexed by phase, with self times."""

    ROOTS = ("bench.setup", "bench.warmup", "bench.rep")

    def __init__(self, events: list[dict]):
        spans = [e for e in events if e.get("type") == "span"]
        self.by_id = {e["span_id"]: e for e in spans}
        self._phase: dict[str, str | None] = {}
        covered: dict[str, float] = {}
        for e in spans:
            parent = self.by_id.get(e.get("parent_id"))
            if parent is not None and \
                    parent.get("worker_id") == e.get("worker_id"):
                covered[parent["span_id"]] = (
                    covered.get(parent["span_id"], 0.0) + e["dur_s"])
        self.self_s = {sid: e["dur_s"] - covered.get(sid, 0.0)
                       for sid, e in self.by_id.items()}
        self.points = [e for e in events if e.get("type") == "event"]
        self.spans = spans

    def phase(self, event: dict) -> str | None:
        """The ``bench.*`` root an event descends from (None if none)."""
        chain = []
        sid = event.get("span_id") or event.get("parent_id")
        while sid is not None and sid not in self._phase:
            span = self.by_id.get(sid)
            if span is None:
                break
            if span["name"] in self.ROOTS:
                self._phase[sid] = span["name"]
                break
            chain.append(sid)
            sid = span.get("parent_id")
        found = self._phase.get(sid) if sid is not None else None
        for link in chain:
            self._phase[link] = found
        return found

    def select(self, names, phases=("bench.rep",)) -> list[dict]:
        return [e for e in self.spans
                if e["name"] in names and self.phase(e) in phases]

    def total(self, names, phases=("bench.rep",)) -> float:
        """Summed duration of the outermost spans among ``names``."""
        return sum(e["dur_s"] for e in self.select(names, phases)
                   if self.by_id.get(e.get("parent_id"), {}).get("name")
                   not in names)

    def self_time(self, names, phases=("bench.rep",)) -> float:
        return sum(self.self_s[e["span_id"]]
                   for e in self.select(names, phases))


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(events: list[dict], facts: dict, workers: int) -> dict:
    """Every :data:`PER_LAYER` metric of one traced repetition."""
    spans = _Spans(events)
    out = {}
    for metric, (names, kind) in _SPAN_TIMES.items():
        out[metric] = (spans.self_time(names) if kind == "self"
                       else spans.total(names))
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for e in spans.select((name,))
                          if spans.by_id.get(e.get("parent_id"), {})
                          .get("name") != name)
    elems = sum(e.get("elems", 0) for e in spans.select(("formats.quantize",))
                if spans.by_id.get(e.get("parent_id"), {}).get("name")
                != "formats.quantize")
    out["formats.quantize_ns_per_elem"] = (
        out["formats.quantize_s"] * 1e9 / elems if elems else 0.0)
    inj_ms = sorted(1e3 * e["dur_s"] for e in spans.points
                    if e["name"] == "campaign.injection"
                    and spans.phase(e) == "bench.rep")
    out["campaign.inj_ms_p50"] = _percentile(inj_ms, 50)
    out["campaign.inj_ms_p95"] = _percentile(inj_ms, 95)
    out["campaign.records"] = sum(
        e.get("records", 0) for e in spans.select(("campaign.execute",)))
    parallel = spans.total(("exec.parallel",))
    out["exec.worker_util"] = (out["exec.worker_busy_s"] / (workers * parallel)
                               if parallel else 0.0)
    resume = facts.get("resume", {})
    lookups = resume.get("hits", 0) + resume.get("misses", 0)
    out["resume.hit_rate"] = (resume.get("hits", 0) / lookups
                              if lookups else 0.0)
    out["exec.retries"] = facts.get("retries", 0)
    out["exec.quarantined"] = facts.get("quarantined", 0)
    out["obs.ledger_s"] = facts.get("ledger_s", 0.0)
    setup = ("bench.setup",)
    out["data.synth_s"] = spans.total(("data.synth",), setup)
    out["data.load_s"] = spans.total(("data.load",), setup)
    out["goldeneye.attach_s"] = spans.total(
        ("goldeneye.attach",), ("bench.setup", "bench.rep"))
    rep = spans.select(("bench.rep",))
    wall = sum(e["dur_s"] for e in rep)
    out["trace.coverage"] = (
        1.0 - sum(spans.self_s[e["span_id"]] for e in rep) / wall
        if wall else 0.0)
    out["trace.overhead_frac"] = 0.0
    return {name: out[name] for name, _, _ in PER_LAYER}
