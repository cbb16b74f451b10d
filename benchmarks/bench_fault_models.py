"""Fault-model diversity: cost and severity of the non-default injectors.

The campaign runner samples bit patterns through a
:class:`repro.core.faultmodels.FaultModel` (single / burst / stuck-at /
exhaustive / temporal) and can interpose an ECC protection model at
injection time (:mod:`repro.core.ecc`).  Three things are measured here:

* **model sweep** — wall time, injections/second and the aggregate SDC
  rate for each fault model on the same seeded campaign.  Burst faults
  corrupt adjacent bit pairs/quads, so their severity ordering vs the
  single-bit baseline is part of the science readout (EXPERIMENTS.md);
* **exhaustive sweep** — the complete single-bit site space of one small
  layer (``fc3``: 4 outputs x 16 bits = 64 sites), the ground truth the
  sampled estimator is checked against in the CI ``fault-models`` job;
* **protection overhead + gate** — the same campaign under SECDED: the
  classify-first short-circuit means corrected faults skip their forward
  pass entirely, so a fully-corrected campaign is *faster* than an
  unprotected one, and its SDC can never exceed it.  Both are asserted.

Set ``BENCH_QUICK=1`` to shrink the sweep.
"""

from __future__ import annotations

import os

from repro.core import GoldenEye
from repro.models import simple_mlp
from repro.obs import write_bench_json

from .conftest import print_block, timed_campaign

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

SPEC = "fp16"
SEED = 11
INJECTIONS_PER_LAYER = 8 if QUICK else 24

#: the sampled fault models of the sweep (exhaustive is swept separately —
#: it ignores the injection budget)
SAMPLED_MODELS = ("single", "burst2", "burst4", "stuck0", "stuck1",
                  "temporal2")


def test_fault_model_cost_and_severity():
    payload: dict = {"quick": QUICK, "model": "simple_mlp", "format": SPEC,
                     "injections_per_layer": INJECTIONS_PER_LAYER}
    lines = ["Fault-model sweep: cost + severity per injector",
             f"  format {SPEC}, {INJECTIONS_PER_LAYER} injections/layer"]

    model = simple_mlp(num_classes=4)
    model.eval()
    import numpy as np
    rng = np.random.default_rng(7)
    images = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 4, size=8)

    # --- sampled fault models, one seeded campaign each -------------------
    runs: dict[str, dict] = {}
    common = dict(injections_per_layer=INJECTIONS_PER_LAYER, seed=SEED)
    with GoldenEye(model, SPEC) as ge:
        for fault in SAMPLED_MODELS:
            runs[fault] = timed_campaign(ge, images, labels,
                                         fault_model=fault, **common)
        exhaustive = timed_campaign(ge, images, labels,
                                    fault_model="exhaustive",
                                    layers=["fc3"], **common)
        protected = timed_campaign(ge, images, labels, protect="secded",
                                   **common)

    payload["models"] = {
        fault: {"wall_s": run["wall_s"],
                "injections": run["injections"],
                "injections_per_sec": run["injections_per_sec"],
                "sdc_rate": run["sdc_rate"]}
        for fault, run in runs.items()
    }
    lines.append(f"  {'model':<12} {'wall ms':>9} {'inj/s':>8} {'SDC':>7}")
    for fault, run in runs.items():
        lines.append(f"  {fault:<12} {run['wall_s'] * 1000:9.1f}"
                     f" {run['injections_per_sec']:8.1f}"
                     f" {run['sdc_rate']:7.3f}")

    # --- exhaustive ground truth on fc3 -----------------------------------
    payload["exhaustive_fc3"] = {
        "sites": exhaustive["injections"],
        "wall_s": exhaustive["wall_s"],
        "sdc_rate": exhaustive["sdc_rate"],
    }
    lines.append(f"  exhaustive(fc3): {exhaustive['injections']} sites in "
                 f"{exhaustive['wall_s'] * 1000:.1f} ms, "
                 f"SDC {exhaustive['sdc_rate']:.3f}")

    # --- SECDED: protection gate + classify-first skip --------------------
    payload["secded"] = {
        "wall_s": protected["wall_s"],
        "sdc_rate": protected["sdc_rate"],
        "unprotected_sdc_rate": runs["single"]["sdc_rate"],
        "speedup_vs_unprotected":
            runs["single"]["wall_s"] / protected["wall_s"],
    }
    lines.append(f"  secded: SDC {protected['sdc_rate']:.3f} vs "
                 f"{runs['single']['sdc_rate']:.3f} unprotected, "
                 f"{payload['secded']['speedup_vs_unprotected']:.2f}x wall "
                 "(corrected faults skip their forward)")

    print_block("\n".join(lines))
    write_bench_json("fault_models", payload)

    # acceptance surface: the exhaustive sweep covers the whole site space,
    # the protection gate holds, and every sampled model filled its budget
    assert exhaustive["injections"] == 64, exhaustive
    assert protected["sdc_rate"] <= runs["single"]["sdc_rate"], payload
    for fault in SAMPLED_MODELS:
        assert runs[fault]["injections"] == INJECTIONS_PER_LAYER * len(
            runs[fault]["result"].per_layer), fault
