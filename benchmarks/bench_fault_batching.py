"""Fault-axis batching: K-lane throughput curve, kernel speedup and parity.

``run_campaign(..., fault_batch=K)`` evaluates K independent same-layer
neuron faults per forward pass: the evaluation batch is tiled K times, each
replica lane carries exactly one armed fault, and one fused
``flip_values_batched`` call corrupts all K victim columns (see
:meth:`repro.core.goldeneye.GoldenEye.forward_from_batched`).  Three things
are measured here:

* **campaign throughput** — injections/second for K in 1/4/8 under an
  *emulated device latency* (``ExecConfig.injection_latency``): one device
  round-trip services a whole K-chunk, so a latency-bound campaign speeds
  up ~K×.  This models the regime the ROADMAP targets (per-inference cost
  dominated by a fixed per-dispatch overhead) and is the gated surface
  (``speedup_at_8 >= 3.0``, ``speedup_at_4 >= 2.0`` and monotone in K);
* **raw kernel throughput** — the same sweep with zero emulated latency.
  The K-lane forward does K× the arithmetic of a K=1 forward, so raw
  gains come only from amortized per-dispatch Python/framework overhead;
  ``cpu_count`` is recorded and no gate is attached;
* **parity** — every K must aggregate **bit-identically** to the serial
  K=1 campaign (same per-layer ΔLoss vectors, mismatch and SDC rates).
  That *is* asserted: batching must never change the science.

Set ``BENCH_QUICK=1`` to shrink the sweep — the mode CI's ``bench-gates``
job runs.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.core import GoldenEye
from repro.exec import ExecConfig
from repro.models import simple_mlp
from repro.obs import write_bench_json

from .conftest import assert_bit_identical, print_block, timed_campaign

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

FAULT_BATCHES = (1, 4, 8)
SPEC = "bfp_e5m5_b16"

INJECTIONS_PER_LAYER = 16 if QUICK else 32
LATENCY_S = 0.04 if QUICK else 0.05


def _sweep(ge, images, labels, latency):
    """K in 1/4/8 sweep at one emulated latency; parity asserted vs K=1."""
    runs: dict[int, dict] = {}
    for k in FAULT_BATCHES:
        runs[k] = timed_campaign(
            ge, images, labels, injections_per_layer=INJECTIONS_PER_LAYER,
            seed=0, exec_config=ExecConfig(workers=1, fault_batch=k,
                                           injection_latency=latency))
    serial = runs[1]["result"]
    for k, run in runs.items():
        assert_bit_identical(serial, run, ("latency", latency, "K", k))
    return runs


def _k_payload(runs):
    serial_wall = runs[1]["wall_s"]
    return {
        str(k): {"wall_s": run["wall_s"],
                 "injections_per_sec": run["injections_per_sec"],
                 "speedup_vs_k1": serial_wall / run["wall_s"]}
        for k, run in runs.items()
    }


def _report_sweep(lines, runs):
    serial_wall = runs[1]["wall_s"]
    for k in FAULT_BATCHES:
        run = runs[k]
        lines.append(
            f"  fault_batch={k}          {run['wall_s'] * 1000:8.1f} ms"
            f"  {run['injections_per_sec']:8.1f} inj/s"
            f"  ({serial_wall / run['wall_s']:.2f}x)")


def test_fault_batching_throughput_and_parity():
    payload: dict = {"cpu_count": multiprocessing.cpu_count(),
                     "quick": QUICK}
    lines = ["Fault-axis batching: K-lane throughput + bit-identical parity",
             f"  cpu_count             {payload['cpu_count']}"]

    model = simple_mlp(num_classes=4)
    model.eval()
    import numpy as np
    rng = np.random.default_rng(7)
    images = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 4, size=8)

    # --- latency-dominated: one device round-trip per K-chunk -------------
    with GoldenEye(model, SPEC) as ge:
        latency_runs = _sweep(ge, images, labels, LATENCY_S)
    walls = [latency_runs[k]["wall_s"] for k in FAULT_BATCHES]
    payload["latency_dominated"] = {
        "model": "simple_mlp",
        "format": SPEC,
        "injection_latency_s": LATENCY_S,
        "injections_per_layer": INJECTIONS_PER_LAYER,
        "injections": latency_runs[1]["injections"],
        "batches": _k_payload(latency_runs),
        "speedup_at_4": latency_runs[1]["wall_s"] / latency_runs[4]["wall_s"],
        "speedup_at_8": latency_runs[1]["wall_s"] / latency_runs[8]["wall_s"],
        "monotone_to_8": all(a >= b for a, b in zip(walls, walls[1:])),
    }
    lines.append(f"  -- latency-dominated (emulated device latency "
                 f"{LATENCY_S * 1000:.0f} ms/round-trip, simple_mlp) --")
    _report_sweep(lines, latency_runs)

    # --- raw kernel sweep: amortized dispatch overhead only ---------------
    with GoldenEye(model, SPEC) as ge:
        raw_runs = _sweep(ge, images, labels, latency=0.0)
    payload["raw"] = {
        "model": "simple_mlp",
        "format": SPEC,
        "injections_per_layer": INJECTIONS_PER_LAYER,
        "batches": _k_payload(raw_runs),
    }
    lines.append("  -- raw kernels (no emulated latency) --")
    _report_sweep(lines, raw_runs)

    print_block("\n".join(lines))
    write_bench_json("fault_batching", payload)

    # the gated surface: a latency-bound campaign must clear 3x at K=8 (the ROADMAP's tens -> hundreds inj/s target
    # regime) and never slow down as K grows
    scaling = payload["latency_dominated"]
    assert scaling["speedup_at_8"] >= 3.0, scaling
    assert scaling["speedup_at_4"] >= 2.0, scaling
    assert scaling["monotone_to_8"], scaling
