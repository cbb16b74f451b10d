"""Numeric-health monitoring overhead: the stats-sink cost contract.

The numeric-health sinks (:mod:`repro.obs.numerics`) hang off every format's
``real_to_format_tensor`` — the hottest loop in the platform (one conversion
per instrumented layer per inference).  The contract mirrors the telemetry
one: with **no sink installed** — the default — a campaign pays <2%
wall-clock overhead, because the only cost is one ``is not None`` branch per
tensor conversion.

Measured from the inside out:

1. *Micro*: the cost of one ``fmt.stats_sink is not None`` branch (measured
   on a real conversion loop with/without the attribute check isolated),
   multiplied by the number of tensor conversions a campaign performs, must
   stay under 2% of that campaign's wall-clock.
2. *Macro*: the same campaign with a :class:`NumericHealthMonitor` attached
   bounds what the *enabled* path costs (informational; the contract only
   covers the disabled default).

Emits ``BENCH_numerics_overhead.json`` so the overhead trajectory is
diffable per PR.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import GoldenEye, run_campaign
from repro.formats import make_format
from repro.obs import NumericHealthMonitor, write_bench_json

from .conftest import print_block

INJECTIONS_PER_LAYER = 8
SPEC = "fp16"
MICRO_ITERS = 2_000_000


def _time_disabled_branch() -> float:
    """Seconds for one ``stats_sink is not None`` hot-path guard."""
    fmt = make_format(SPEC)
    sink = fmt.stats_sink  # None: the default
    t0 = time.perf_counter()
    acc = 0
    for _ in range(MICRO_ITERS):
        if sink is not None:  # the guard every conversion executes
            acc += 1
        if fmt.stats_sink is not None:  # attribute-load variant
            acc += 1
    per_pair = (time.perf_counter() - t0) / MICRO_ITERS
    assert acc == 0
    return per_pair / 2.0  # one guard


def test_disabled_numerics_overhead_under_2pct(resnet, batch):
    model, _ = resnet
    images, labels = batch
    model.eval()

    # --- the campaign with no monitor (the default)
    with GoldenEye(model, SPEC) as ge:
        layers = ge.layer_names()
        t0 = time.perf_counter()
        result = run_campaign(ge, images, labels,
                              injections_per_layer=INJECTIONS_PER_LAYER,
                              seed=0)
        t_plain = time.perf_counter() - t0

    injections = sum(r.injections for r in result.per_layer.values())
    # guarded crossings: one neuron conversion per instrumented layer per
    # inference (golden + every injection), plus one weight conversion per
    # layer at attach; double it for margin.
    conversions = (injections + 1) * len(layers) + len(layers)
    per_branch = _time_disabled_branch()
    budget = 2 * conversions * per_branch
    share = budget / t_plain

    # --- informational: the enabled path (sinks on every layer format)
    monitor = NumericHealthMonitor()
    with GoldenEye(model, SPEC, numerics=monitor) as ge:
        t0 = time.perf_counter()
        run_campaign(ge, images, labels,
                     injections_per_layer=INJECTIONS_PER_LAYER, seed=0)
        t_monitored = time.perf_counter() - t0
    elements = sum(
        s["neuron"]["elements"] + s.get("weight", {}).get("elements", 0)
        for s in monitor.as_dict().values())

    lines = [
        "Numeric-health overhead (disabled-path contract: < 2%)",
        f"  campaign wall-clock     {t_plain * 1000:9.1f} ms "
        f"({injections} injections, {len(layers)} layers)",
        f"  disabled branch cost    {per_branch * 1e9:9.2f} ns",
        f"  guarded conversions     {conversions:9d}",
        f"  disabled-path budget    {budget * 1000:9.4f} ms "
        f"({share * 100:.4f}% of campaign)",
        f"  monitored campaign      {t_monitored * 1000:9.1f} ms "
        f"({t_monitored / t_plain:.2f}x, {elements:.0f} elements recorded, "
        f"informational)",
    ]
    print_block("\n".join(lines))

    write_bench_json("numerics_overhead", {
        "campaign_wall_s": t_plain,
        "injections": injections,
        "disabled_branch_ns": per_branch * 1e9,
        "guarded_conversions": conversions,
        "disabled_overhead_share": share,
        "monitored_wall_s": t_monitored,
        "monitored_slowdown": t_monitored / t_plain,
        "elements_recorded": elements,
    })

    assert share < 0.02, (
        f"disabled numeric-health guard costs {share * 100:.3f}% of campaign "
        f"wall-clock (budget: 2%)")
