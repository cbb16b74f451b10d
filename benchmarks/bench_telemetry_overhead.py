"""Disabled-telemetry overhead: the observability layer's cost contract.

The tracer and metric counters sit directly on the campaign hot path (one
trace event and one histogram observation per injected inference).  The
layer profiler is not on it: it wraps calls only while attached, and the
hook carries no profiler branch.  The contract is that with everything
**disabled** — the default — a campaign pays <2% wall-clock overhead versus
the same campaign on a build with no telemetry at all.

We cannot diff against a telemetry-free build, so the budget is measured
from the inside out:

1. *Micro*: the cost of one ``NULL_TRACER.span()`` / ``.event()`` pair and
   one guarded counter branch, multiplied by the number of hook + injection
   crossings a campaign actually performs, must stay under 2% of that
   campaign's measured wall-clock.  The hook crossings still count the
   profiler guard the hook no longer has, which only makes the bound
   stricter.
2. *Macro*: two identical campaigns, one under the null tracer and one with
   tracing to ``/dev/null``-equivalent sink, bound how much the *enabled*
   path costs (informational; the contract only covers disabled).

Emits ``BENCH_telemetry_overhead.json`` via the exporter so the overhead
trajectory is diffable per PR.
"""

from __future__ import annotations

import io
import time

import numpy as np

from repro.core import GoldenEye, run_campaign
from repro.obs import (
    JsonlSink,
    NULL_TRACER,
    Tracer,
    get_registry,
    set_tracer,
    write_bench_json,
)

from .conftest import print_block

INJECTIONS_PER_LAYER = 8
SPEC = "fp16"
MICRO_ITERS = 200_000


def _time_null_crossing() -> float:
    """Seconds for one disabled span + event + guarded-counter branch."""
    tracer = NULL_TRACER
    t0 = time.perf_counter()
    for _ in range(MICRO_ITERS):
        with tracer.span("campaign.layer", layer="x"):
            pass
        if tracer.enabled:  # the hot-path guard used by the campaign runner
            tracer.event("campaign.injection", layer="x")
    return (time.perf_counter() - t0) / MICRO_ITERS


def test_disabled_telemetry_overhead_under_2pct(resnet, batch):
    model, _ = resnet
    images, labels = batch
    model.eval()
    set_tracer(NULL_TRACER)

    # --- measure the campaign itself (telemetry disabled: the default)
    with GoldenEye(model, SPEC) as ge:
        layers = ge.layer_names()
        t0 = time.perf_counter()
        result = run_campaign(ge, images, labels,
                              injections_per_layer=INJECTIONS_PER_LAYER, seed=0)
        t_campaign = time.perf_counter() - t0

    injections = sum(r.injections for r in result.per_layer.values())
    # crossings: one span per layer + per campaign, one event + counter +
    # histogram guard per injection, four phase guards per instrumented
    # forward (hooks fire once per layer per inference).
    crossings = (len(layers) + 1) + injections * 2 + injections * len(layers) * 4

    per_crossing = _time_null_crossing()
    budget = crossings * per_crossing
    share = budget / t_campaign

    # --- informational: enabled tracing into an in-memory sink
    buffer = io.StringIO()
    set_tracer(Tracer(JsonlSink(buffer), registry=get_registry()))
    try:
        with GoldenEye(model, SPEC) as ge:
            t0 = time.perf_counter()
            run_campaign(ge, images, labels,
                         injections_per_layer=INJECTIONS_PER_LAYER, seed=0)
            t_traced = time.perf_counter() - t0
    finally:
        set_tracer(NULL_TRACER)

    lines = [
        "Telemetry overhead (disabled-path contract: < 2%)",
        f"  campaign wall-clock     {t_campaign * 1000:9.1f} ms "
        f"({injections} injections, {len(layers)} layers)",
        f"  null crossing cost      {per_crossing * 1e9:9.1f} ns",
        f"  hot-path crossings      {crossings:9d}",
        f"  disabled-path budget    {budget * 1000:9.3f} ms "
        f"({share * 100:.3f}% of campaign)",
        f"  enabled (JSONL sink)    {t_traced * 1000:9.1f} ms "
        f"({t_traced / t_campaign:.2f}x, informational)",
    ]
    print_block("\n".join(lines))

    write_bench_json("telemetry_overhead", {
        "campaign_wall_s": t_campaign,
        "injections": injections,
        "null_crossing_ns": per_crossing * 1e9,
        "hot_path_crossings": crossings,
        "disabled_overhead_share": share,
        "traced_wall_s": t_traced,
    })

    assert share < 0.02, (
        f"disabled telemetry costs {share * 100:.2f}% of campaign wall-clock "
        f"(budget: 2%)")
