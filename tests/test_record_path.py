"""One record path: every record enters through one sink and leaves through
one fold.

* every surface that reports a campaign — CampaignResult, the final
  ``/progress``, ``repro watch`` on the journal, ``repro report`` on the
  trace and the ledger row — agrees bit for bit, under every executor,
  and ``resume_stats``, the registry's ``resume.*`` counters and the
  sealed ``/progress`` hold the same resume-cache counts;
* ``journal_progress`` takes its done/total denominators from the plan
  sizes in the journal header, like ``/progress`` does;
* :meth:`RecordSink.accept` is write-ahead: a journal that fails to
  append leaves the stored records, the telemetry and the progress
  tracker untouched.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import GoldenEye, run_campaign
from repro.core.campaign import RecordSink, fold_layer
from repro.models import simple_mlp
from repro.obs.live import CampaignProgress, LiveServer, fetch_progress, \
    journal_progress
from repro.obs.report import build_report
from tests.differential import run_mode, surface_rows

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method")

SEED = 13

#: the resume cache's counts, each the registry counter ``resume.<name>``
CACHE_COUNTS = ("hits", "misses", "evictions", "skipped", "replayed",
                "recomputed", "diverged", "cone_patched", "cone_unchanged",
                "cone_positions")


def _make_data(n: int = 10):
    rng = np.random.default_rng(77)
    return (rng.standard_normal((n, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 4, size=n))


@pytest.fixture(scope="module")
def model():
    mlp = simple_mlp(num_classes=4)
    mlp.eval()
    return mlp


# ----------------------------------------------------------------------
# cross-surface agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("format_spec", ["fp16", "bfp_e5m5_b16"])
@pytest.mark.parametrize("mode", [
    "serial",
    pytest.param("parallel2", marks=needs_fork),
    "serial-k4",
])
def test_every_surface_reports_the_campaign_fold(model, tmp_path,
                                                 format_spec, mode):
    ledger = str(tmp_path / "ledger.sqlite")
    outcome = run_mode(mode, model, format_spec, _make_data(), tmp_path,
                       injections_per_layer=40, seed=SEED, serve=True,
                       journal=True, ledger=ledger)
    surfaces = surface_rows(outcome, ledger)
    expected = surfaces.pop("result")
    for layer, entry in surfaces["progress"].items():
        expected[layer]["sdc_ci95"] = entry["sdc_ci95"]
    assert expected and all(row["injections"] for row in expected.values())
    differ = [f"{surface}/{layer}/{name}: {value!r} != "
              f"{expected[layer][name]!r}"
              for surface, layers in surfaces.items()
              for layer, row in layers.items()
              for name, value in row.items()
              if value != expected[layer][name]]
    assert not differ, "\n".join(differ)
    for surface, layers in surfaces.items():
        assert set(layers) == set(expected), surface

    counts = outcome.result.resume_stats
    assert set(counts) == set(CACHE_COUNTS) and counts["hits"] > 0
    booked = {name: outcome.metrics[f"resume.{name}"] for name in CACHE_COUNTS}
    assert all(entry["type"] == "counter" for [entry] in booked.values())
    cache = build_report(metrics=outcome.metrics)["cache"]
    sealed = outcome.progress["resume"] or {}
    assert {name: entry["value"] for name, [entry] in booked.items()} == counts
    assert {name: cache[name] for name in CACHE_COUNTS} == counts
    assert {name: sealed.get(name) for name in CACHE_COUNTS} == counts


def test_report_folds_trace_events_in_seq_order():
    # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 in floats: arrival order shows
    rates = [0.1, 0.2, 0.3]
    events = [{"type": "event", "name": "campaign.injection", "layer": "fc1",
               "seq": seq, "bits": [0], "delta_loss": rates[seq],
               "mismatch_rate": rates[seq], "sdc_rate": rates[seq],
               "dur_s": 0.0} for seq in (2, 1, 0)]
    legacy = [{k: v for k, v in e.items() if k != "seq"} for e in events]

    def row(stats):
        return (stats.injections, stats.mean_delta_loss,
                stats.max_delta_loss, stats.mismatch_rate, stats.sdc_rate)

    for trace, expected in (
            (events, fold_layer("fc1", {e["seq"]: e for e in events})),
            # events without seq (older traces) keep their arrival order
            (legacy, fold_layer("fc1", dict(enumerate(legacy))))):
        got = build_report(events=trace)["layers"][0]
        assert (got["injections"], got["mean_delta_loss"],
                got["max_delta_loss"], got["mismatch_rate"],
                got["sdc_rate"]) == row(expected)


# ----------------------------------------------------------------------
# journal totals come from the header's plan sizes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("format_spec,campaign", [
    ("fp16", dict(fault_model="exhaustive", layers=["fc3"])),
    ("bfp_e5m5_b16", dict(kind="metadata", injections_per_layer=300)),
], ids=["exhaustive", "metadata"])
def test_journal_totals_match_progress(model, tmp_path,
                                       fresh_global_registry, format_spec,
                                       campaign):
    journal = str(tmp_path / "plan.journal.jsonl")
    with LiveServer.start("127.0.0.1:0") as server:
        with GoldenEye(model, format_spec) as platform:
            run_campaign(platform, *_make_data(), seed=SEED,
                         journal=journal, serve=server, **campaign)
        live = fetch_progress(server.url)
    watched = journal_progress(journal)
    assert watched["total"] == live["total"] == live["done"]
    assert watched["done"] == live["done"]
    for layer, entry in live["layers"].items():
        assert watched["layers"][layer]["total"] == entry["total"]


def test_journal_without_plan_sizes_falls_back_to_budget(tmp_path):
    from repro.core.campaign import CampaignSpec
    from repro.exec.journal import CampaignJournal
    fingerprint = CampaignSpec(seed=SEED, injections_per_layer=5).fingerprint(
        "fp16", ["fc1", "fc2"])
    path = str(tmp_path / "old.journal.jsonl")
    journal, _ = CampaignJournal.open(path, fingerprint)
    journal.append_record({"layer": "fc1", "seq": 0, "site": 1, "bits": [2],
                           "delta_loss": 0.5, "mismatch_rate": 0.0,
                           "sdc_rate": 1.0, "dur_s": 0.1})
    journal.close()
    doc = journal_progress(path)
    assert doc["layers"]["fc1"]["total"] == 5
    assert doc["layers"]["fc2"] == {"done": 0, "total": 5, "sdc_rate": 0.0,
                                    "sdc_ci95": [0.0, 1.0]}


# ----------------------------------------------------------------------
# the accept path is write-ahead
# ----------------------------------------------------------------------
class _FailingJournal:
    def append_batch(self, records):
        raise OSError("disk full")


def test_accept_journals_before_anything_else(fresh_global_registry):
    progress = CampaignProgress()
    progress.set_plan({"fc1": 2})
    sink = RecordSink("value", "neuron", journal=_FailingJournal(),
                      progress=progress)
    records = [{"layer": "fc1", "seq": seq, "site": seq, "bits": [0],
                "delta_loss": 0.0, "mismatch_rate": 0.0, "sdc_rate": 1.0,
                "dur_s": 0.0} for seq in range(2)]
    with pytest.raises(OSError, match="disk full"):
        sink.accept(records)
    assert sink.records == {}
    assert fresh_global_registry.get("campaign.injections_total") is None
    assert progress.counts() == (0, 2)
