"""Parallel campaign executor: scaling curve, shm cache effect and parity.

``run_campaign(..., workers=N)`` shards the deterministically pre-sampled
plans across a supervised fork-based worker pool (:mod:`repro.exec`), with
the golden activation prefix published once over POSIX shared memory and
records streamed back in batched frames.  Three things are measured here:

* **executor scaling** — wall-clock for 1/2/4/8 workers, with and without
  the shared-memory golden cache, under an *emulated device latency*
  (``ExecConfig.injection_latency``: the same per-injection sleep applied
  identically in the serial loop and in every worker).  On a many-core
  host the raw section below shows real CPU scaling; on a 1-core CI box
  only the latency-dominated regime can demonstrate executor scaling
  honestly, so this section is the gated one (``speedup_at_4 >= 1.5``
  and monotone through 8 workers).  Each gated pool size runs three
  times and the gates read its median wall, so one run slowed by the
  host cannot decide them;
* **raw throughput** — CPU-bound injections/second on the ResNet18
  analogue for the same sweep.  ``cpu_count`` is recorded alongside: the
  speedup is bounded by the cores, so it peaks near ``cpu_count`` workers
  and falls slowly as more workers share the same cores.  Below 1.0x it
  means either a single core (fork and IPC buy nothing there) or workers
  whose BLAS pools each span the machine and oversubscribe it (check the
  ``exec.blas_threads`` gauge).  Its size moves with host load, which is
  why no gate is attached to this section;
* **parity** — every run, whatever the pool size, cache mode or journal
  setting, must be **bit-identical** to serial execution.  That *is*
  asserted: parallelism must never change the science.

Set ``BENCH_QUICK=1`` to skip the CPU-bound ResNet sweep and shrink the
latency-emulated sweep — the mode CI's ``bench-gates`` job runs.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import GoldenEye
from repro.exec import ExecConfig
from repro.models import simple_mlp
from repro.obs import write_bench_json

from .conftest import assert_bit_identical, print_block, timed_campaign

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

POOL_SIZES = (1, 2, 4, 8)
SPEC = "bfp_e5m5_b16"

# raw (CPU-bound) section: the ResNet18 analogue, skipped under BENCH_QUICK
RAW_INJECTIONS_PER_LAYER = 4

# executor-scaling section: latency-dominated MLP campaign
EXEC_INJECTIONS_PER_LAYER = 8 if QUICK else 16
EXEC_LATENCY_S = 0.04 if QUICK else 0.05
#: timed runs per gated pool size; the gates read the median wall
GATE_REPEATS = 3


def _pool_payload(runs, serial_wall):
    return {
        str(w): {"wall_s": run["wall_s"],
                 "injections_per_sec": run["injections_per_sec"],
                 "speedup_vs_serial": serial_wall / run["wall_s"]}
        for w, run in runs.items()
    }


def _sweep(ge, images, labels, injections_per_layer, latency, repeats=1):
    """1/2/4/8-worker sweep with and without the shared golden cache.

    Every side pins ``fault_batch=1``: the emulated latency is slept once
    per chunk, so the sweep models the same per-injection sleep in the
    serial loop and in every worker only when a chunk is one injection.
    Each shared-cache pool size runs ``repeats`` times and reports its
    median-wall run; every run must match the serial one bit for bit.
    """
    checked = []

    def median_run(workers, repeats, **config):
        reps = [timed_campaign(
            ge, images, labels, injections_per_layer=injections_per_layer,
            seed=0, exec_config=ExecConfig(workers=workers,
                                           injection_latency=latency,
                                           fault_batch=1, **config))
            for _ in range(repeats)]
        checked.extend(((config, workers), run) for run in reps)
        return sorted(reps, key=lambda run: run["wall_s"])[repeats // 2]

    runs = {workers: median_run(workers, repeats) for workers in POOL_SIZES}
    runs_noshm = {workers: median_run(workers, 1, shared_cache=False)
                  for workers in POOL_SIZES[1:]}
    serial = runs[1]["result"]
    for context, run in checked:
        assert_bit_identical(serial, run, context)
    return runs, runs_noshm


def _report_sweep(lines, runs, runs_noshm):
    serial_wall = runs[1]["wall_s"]
    for workers in POOL_SIZES:
        run = runs[workers]
        noshm = runs_noshm.get(workers)
        extra = (f"   noshm {serial_wall / noshm['wall_s']:.2f}x"
                 if noshm else "")
        lines.append(
            f"  {workers} worker(s)           {run['wall_s'] * 1000:8.1f} ms"
            f"  {run['injections_per_sec']:8.1f} inj/s"
            f"  ({serial_wall / run['wall_s']:.2f}x){extra}")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel executor requires the fork start method")
def test_parallel_campaign_scaling_and_parity(request, tmp_path):
    payload: dict = {"cpu_count": multiprocessing.cpu_count(),
                     "quick": QUICK}
    lines = ["Parallel campaign executor: scaling + bit-identical parity",
             f"  cpu_count             {payload['cpu_count']}"]

    # --- executor scaling: emulated device latency dominates -------------
    model = simple_mlp(num_classes=4)
    model.eval()
    import numpy as np
    rng = np.random.default_rng(7)
    images = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 4, size=8)
    with GoldenEye(model, SPEC) as ge:
        exec_runs, exec_noshm = _sweep(ge, images, labels,
                                       EXEC_INJECTIONS_PER_LAYER,
                                       EXEC_LATENCY_S, GATE_REPEATS)
    serial_wall = exec_runs[1]["wall_s"]
    walls = [exec_runs[w]["wall_s"] for w in POOL_SIZES]
    payload["executor_scaling"] = {
        "model": "simple_mlp",
        "injection_latency_s": EXEC_LATENCY_S,
        "injections_per_layer": EXEC_INJECTIONS_PER_LAYER,
        "injections": exec_runs[1]["injections"],
        "repeats": GATE_REPEATS,
        "pools": _pool_payload(exec_runs, serial_wall),
        "pools_noshm": _pool_payload(exec_noshm, serial_wall),
        "speedup_at_4": serial_wall / exec_runs[4]["wall_s"],
        "speedup_at_8": serial_wall / exec_runs[8]["wall_s"],
        "monotone_to_8": all(a >= b for a, b in zip(walls, walls[1:])),
    }
    lines.append(f"  -- executor scaling (emulated device latency "
                 f"{EXEC_LATENCY_S * 1000:.0f} ms/injection, simple_mlp, "
                 f"median of {GATE_REPEATS}) --")
    _report_sweep(lines, exec_runs, exec_noshm)

    # --- raw CPU-bound sweep on the ResNet18 analogue ---------------------
    if not QUICK:
        resnet_model, _ = request.getfixturevalue("resnet")
        images, labels = request.getfixturevalue("batch")
        resnet_model.eval()
        with GoldenEye(resnet_model, SPEC) as ge:
            layers = ge.layer_names()
            raw_runs, raw_noshm = _sweep(ge, images, labels,
                                         RAW_INJECTIONS_PER_LAYER,
                                         latency=0.0)
            # journal overhead: the 2-worker campaign, write-ahead journaled
            journaled = timed_campaign(
                ge, images, labels,
                injections_per_layer=RAW_INJECTIONS_PER_LAYER, seed=0,
                workers=2, journal=str(tmp_path / "bench.jsonl"))
        assert_bit_identical(raw_runs[1]["result"], journaled,
                              ("journaled", 2))
        journal_overhead = journaled["wall_s"] / raw_runs[2]["wall_s"] - 1.0
        payload["raw"] = {
            "model": "resnet18",
            "layers": len(layers),
            "injections_per_layer": RAW_INJECTIONS_PER_LAYER,
            "pools": _pool_payload(raw_runs, raw_runs[1]["wall_s"]),
            "pools_noshm": _pool_payload(raw_noshm, raw_runs[1]["wall_s"]),
            "journal_wall_s": journaled["wall_s"],
            "journal_overhead_frac": journal_overhead,
        }
        lines.append(f"  -- raw CPU-bound (resnet18 analogue, "
                     f"{len(layers)} x {RAW_INJECTIONS_PER_LAYER} "
                     f"injections) --")
        _report_sweep(lines, raw_runs, raw_noshm)
        lines.append(
            f"  2 workers + journal   {journaled['wall_s'] * 1000:8.1f} ms"
            f"  (journal overhead {journal_overhead:+.1%})")

    print_block("\n".join(lines))
    write_bench_json("parallel_campaign", payload)

    # the gated surface: raw CPU scaling would flake on oversubscribed
    # machines, but the latency-dominated mode is robust even on one core
    scaling = payload["executor_scaling"]
    assert scaling["speedup_at_4"] >= 1.5, scaling
    assert scaling["monotone_to_8"], scaling
