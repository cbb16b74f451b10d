"""Lockdown of the campaign ledger (``ledger/v1``) and its CLI surfaces.

The contract under test:

* every ``run_campaign`` with a ledger configured writes one row with the
  campaign's fingerprint, configuration and per-layer outcomes (SDC with
  Wilson CIs), and the write can never fail the campaign;
* serial, parallel, fault-batched and interrupt-resumed executions of the
  same campaign ledger **identically** — same ``fingerprint_sha``, same
  per-layer counts and CIs — and ``repro diff`` between any two of them
  finds zero significant deltas;
* a resumed run updates its original row in place (``resumes`` counts up,
  no duplicate history);
* ``diff_runs`` flags a genuinely regressed layer via the two-proportion
  z-test, and ``repro diff --gate`` turns that into a nonzero exit;
* ``repro timeline`` renders the hierarchical span trace as valid Chrome
  ``trace_event`` JSON with ≥3 nesting levels and per-worker lanes.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sqlite3

import numpy as np
import pytest

from repro.analysis.confidence import two_proportion_test, wilson_interval
from repro.core import GoldenEye, run_campaign
from repro.models import simple_mlp
from repro.obs import (
    CampaignLedger,
    LEDGER_SCHEMA,
    build_chrome_trace,
    chrome_trace_depth,
    diff_runs,
    fingerprint_sha,
    load_trace_events,
    render_diff,
    render_history,
    resolve_ledger,
    sparkline,
    validate_chrome_trace,
)
from tests.differential import run_mode

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method")

SEED = 13
INJECTIONS = 4


def _make_data():
    rng = np.random.default_rng(77)
    return (rng.standard_normal((4, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 4, size=4))


@pytest.fixture()
def model():
    m = simple_mlp(num_classes=4)
    m.eval()
    return m


# ----------------------------------------------------------------------
# the significance test behind `repro diff`
# ----------------------------------------------------------------------
class TestTwoProportionTest:
    def test_empty_samples_report_no_difference(self):
        assert two_proportion_test(0, 0, 3, 10) == (0.0, 1.0)
        assert two_proportion_test(3, 10, 0, 0) == (0.0, 1.0)

    def test_identical_rates_give_z_zero_p_one(self):
        z, p = two_proportion_test(5, 20, 5, 20)
        assert z == 0.0 and p == pytest.approx(1.0)

    def test_degenerate_pool_reports_no_difference(self):
        assert two_proportion_test(0, 50, 0, 50) == (0.0, 1.0)
        assert two_proportion_test(50, 50, 50, 50) == (0.0, 1.0)

    def test_known_value_against_closed_form(self):
        # p_a=0.1 (10/100), p_b=0.3 (30/100): pooled=0.2,
        # se=sqrt(0.2*0.8*(2/100)), z=(0.3-0.1)/se
        z, p = two_proportion_test(10, 100, 30, 100)
        se = math.sqrt(0.2 * 0.8 * 0.02)
        assert z == pytest.approx(0.2 / se)
        assert p == pytest.approx(math.erfc(abs(z) / math.sqrt(2.0)))
        assert p < 0.001  # a real difference

    def test_sign_convention_and_symmetry(self):
        z_up, p_up = two_proportion_test(10, 100, 30, 100)
        z_down, p_down = two_proportion_test(30, 100, 10, 100)
        assert z_up > 0 > z_down  # positive = sample b higher
        assert z_up == pytest.approx(-z_down)
        assert p_up == pytest.approx(p_down)  # two-sided

    def test_fractional_successes_accepted(self):
        z, p = two_proportion_test(2.5, 10, 7.5, 10)
        assert z > 0 and 0.0 < p < 1.0

    def test_small_samples_are_insignificant(self):
        _, p = two_proportion_test(1, 4, 2, 4)
        assert p > 0.05


# ----------------------------------------------------------------------
# recording: one campaign -> one row
# ----------------------------------------------------------------------
class TestRecording:
    @pytest.fixture()
    def recorded(self, model, tmp_path):
        db = tmp_path / "ledger.sqlite"
        out = run_mode("serial", model, "fp16", _make_data(), tmp_path,
                       injections_per_layer=INJECTIONS, seed=SEED,
                       ledger=str(db))
        return db, out.result

    def test_schema_and_single_row(self, recorded):
        db, result = recorded
        with CampaignLedger(str(db)) as ledger:
            assert ledger.schema_version() == LEDGER_SCHEMA
            rows = ledger.runs()
        assert len(rows) == 1
        assert result.ledger_run_id == rows[0]["run_id"]

    def test_row_carries_full_provenance(self, recorded):
        db, result = recorded
        with CampaignLedger(str(db)) as ledger:
            run = ledger.get_run(result.ledger_run_id)
        assert run["fingerprint_sha"] == fingerprint_sha(result.fingerprint)
        assert json.loads(run["fingerprint"])["seed"] == SEED
        assert run["kind"] == "value" and run["location"] == "neuron"
        assert run["format"] == result.format_name
        assert run["fault_model"] == "single" and run["protect"] == "none"
        assert run["seed"] == SEED
        assert run["injections_per_layer"] == INJECTIONS
        assert run["workers"] == 1 and run["fault_batch"] == 1
        assert run["injections"] == sum(
            r.injections for r in result.per_layer.values())
        assert run["started_at"] <= run["updated_at"]
        assert run["interrupted"] == 0 and run["resumes"] == 0
        # trace artifact linked automatically (the harness traces every run)
        assert run["trace_path"] and run["trace_path"].endswith(".jsonl")

    def test_layer_rows_match_result_and_wilson_ci(self, recorded):
        db, result = recorded
        with CampaignLedger(str(db)) as ledger:
            run = ledger.get_run(result.ledger_run_id)
        by_layer = {r["layer"]: r for r in run["layers_detail"]}
        assert set(by_layer) == set(result.per_layer)
        for name, stats in result.per_layer.items():
            row = by_layer[name]
            assert row["injections"] == stats.injections
            assert row["sdc_rate"] == pytest.approx(stats.sdc_rate)
            successes = stats.sdc_rate * stats.injections
            lo, hi = wilson_interval(successes, stats.injections)
            assert row["sdc_lo"] == pytest.approx(lo)
            assert row["sdc_hi"] == pytest.approx(hi)
            assert row["mean_delta_loss"] == pytest.approx(
                stats.mean_delta_loss)

    def test_ledger_write_is_timed_into_telemetry(self, recorded):
        _, result = recorded
        assert result.telemetry["ledger_seconds"] >= 0.0

    def test_default_config_row_stores_the_resolved_lane_count(
            self, model, tmp_path, monkeypatch):
        """A row written under ``ExecConfig()`` as shipped stores the lane
        count each layer resolved, not the automatic setting."""
        import repro.core.campaign as campaign_mod

        images, labels = _make_data()
        db = str(tmp_path / "ledger.sqlite")
        # the budget of three lanes of the last layer, whose lane (its
        # recorded output: simple_mlp records a chain) is the smallest;
        # every other layer resolves fewer
        with GoldenEye(model, "fp16") as ge:
            session = ge.enable_resume()
            ge.capture_golden(images)
            lanes = [session.bytes_from(session.start_index_for(state.module))
                     for state in ge.layers.values()]
            ge.clear_resume()
            monkeypatch.setattr(campaign_mod, "LANE_BYTES", 3 * lanes[-1])
            result = run_campaign(ge, images, labels,
                                  injections_per_layer=INJECTIONS, seed=SEED,
                                  ledger=db)
        with CampaignLedger(db) as ledger:
            run = ledger.get_run(result.ledger_run_id)
        assert lanes[-1] == min(lanes) and 3 < INJECTIONS
        assert result.telemetry["fault_batch"] == 3
        assert run["fault_batch"] == 3

    def test_journal_less_reruns_insert_fresh_rows(self, model, tmp_path):
        db = str(tmp_path / "ledger.sqlite")
        data = _make_data()
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            run_mode("serial", model, "fp16", data, d,
                     injections_per_layer=INJECTIONS, seed=SEED, ledger=db)
        with CampaignLedger(db) as ledger:
            rows = ledger.runs()
        assert len(rows) == 2
        assert rows[0]["fingerprint_sha"] == rows[1]["fingerprint_sha"]

    def test_env_var_configures_ledger(self, model, tmp_path, monkeypatch):
        db = tmp_path / "env.sqlite"
        monkeypatch.setenv("REPRO_LEDGER", str(db))
        out = run_mode("serial", model, "fp16", _make_data(), tmp_path,
                       injections_per_layer=INJECTIONS, seed=SEED)
        assert out.result.ledger_run_id is not None
        with CampaignLedger(str(db)) as ledger:
            assert len(ledger.runs()) == 1

    def test_ledger_failure_never_fails_the_campaign(self, model, tmp_path):
        # /dev/null/... can never become a directory: CampaignLedger blows
        # up on open, and the campaign must shrug it off
        images, labels = _make_data()
        with GoldenEye(model, "fp16") as ge:
            result = run_campaign(ge, images, labels,
                                  injections_per_layer=2, seed=SEED,
                                  ledger="/dev/null/nope/ledger.sqlite")
        assert result.ledger_run_id is None
        assert sum(r.injections for r in result.per_layer.values()) > 0

    def test_resolve_ledger_ownership(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert resolve_ledger(None) == (None, False)
        opened = CampaignLedger(str(tmp_path / "own.sqlite"))
        try:
            assert resolve_ledger(opened) == (opened, False)
        finally:
            opened.close()
        ledger, owns = resolve_ledger(str(tmp_path / "path.sqlite"))
        try:
            assert owns and isinstance(ledger, CampaignLedger)
        finally:
            ledger.close()


# ----------------------------------------------------------------------
# executor-mode parity: every mode ledgers the same outcome
# ----------------------------------------------------------------------
@needs_fork
class TestModeParity:
    #: serial, 4 workers, fault-batch 4 and interrupt+journal-resume —
    #: the acceptance matrix from the executor's bit-identity contract
    PARITY_MODES = ("serial", "parallel4", "serial-k4", "resumed")

    @pytest.fixture(scope="class")
    def parity_ledger(self, tmp_path_factory):
        db = str(tmp_path_factory.mktemp("ledger") / "parity.sqlite")
        model = simple_mlp(num_classes=4)
        model.eval()
        data = _make_data()
        run_ids = {}
        for mode in self.PARITY_MODES:
            out = run_mode(mode, model, "fp16", data,
                           tmp_path_factory.mktemp(mode),
                           injections_per_layer=INJECTIONS, seed=SEED,
                           ledger=db)
            run_ids[mode] = out.result.ledger_run_id
        return db, run_ids

    def test_every_mode_recorded(self, parity_ledger):
        db, run_ids = parity_ledger
        assert all(rid is not None for rid in run_ids.values())
        with CampaignLedger(db) as ledger:
            rows = ledger.runs()
        # resumed = interrupted run + resume -> ONE row, updated in place
        assert len(rows) == len(self.PARITY_MODES)

    def test_identical_fingerprint_across_modes(self, parity_ledger):
        db, run_ids = parity_ledger
        with CampaignLedger(db) as ledger:
            shas = {mode: ledger.get_run(rid)["fingerprint_sha"]
                    for mode, rid in run_ids.items()}
        assert len(set(shas.values())) == 1, shas

    def test_identical_per_layer_counts_and_cis(self, parity_ledger):
        db, run_ids = parity_ledger

        def surface(run):
            return [(r["layer"], r["injections"], r["sdc_count"],
                     r["sdc_rate"], r["sdc_lo"], r["sdc_hi"],
                     r["mismatch_rate"], r["mean_delta_loss"],
                     r["max_delta_loss"])
                    for r in run["layers_detail"]]

        with CampaignLedger(db) as ledger:
            surfaces = {mode: surface(ledger.get_run(rid))
                        for mode, rid in run_ids.items()}
        baseline = surfaces["serial"]
        assert baseline  # the campaign did record layers
        for mode, got in surfaces.items():
            assert got == baseline, f"{mode} ledgered a different outcome"

    def test_diff_between_any_two_modes_is_clean(self, parity_ledger):
        db, run_ids = parity_ledger
        ids = list(run_ids.values())
        with CampaignLedger(db) as ledger:
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    diff = diff_runs(ledger, a, b)
                    assert diff["fingerprint_match"]
                    assert diff["significant"] == []
                    assert diff["regressions"] == []
                    for row in diff["layers"]:
                        assert row["delta"] == 0.0

    def test_resumed_run_updated_in_place(self, parity_ledger):
        db, run_ids = parity_ledger
        with CampaignLedger(db) as ledger:
            run = ledger.get_run(run_ids["resumed"])
        assert run["journal_path"] is not None
        assert run["resumes"] >= 1
        assert run["interrupted"] == 0  # the resume completed the campaign
        assert run["journal_skipped"] >= 1


# ----------------------------------------------------------------------
# diff: regression detection and rendering
# ----------------------------------------------------------------------
class _FakeLayer:
    def __init__(self, injections, sdc_rate):
        self.injections = injections
        self.sdc_rate = sdc_rate
        self.mismatch_rate = sdc_rate
        self.mean_delta_loss = 0.1
        self.max_delta_loss = 0.5
        self.seconds = 0.2
        self.retries = 0
        self.sdc_ci95 = wilson_interval(sdc_rate * injections, injections)


class _FakeResult:
    """The slice of CampaignResult that record_campaign consumes."""

    kind = "value"
    location = "neuron"
    format_name = "fp16"
    golden_accuracy = 0.9
    resume_stats = None
    quarantined = ()
    interrupted = False
    journal_path = None
    telemetry = {"wall_seconds": 1.0, "injections_per_sec": 100.0}

    def __init__(self, per_layer):
        self.per_layer = per_layer

    def mean_delta_loss(self):
        return 0.1

    def mean_mismatch_rate(self):
        return 0.1


def _record_fake(ledger, per_layer, **overrides):
    result = _FakeResult(per_layer)
    for key, value in overrides.items():
        setattr(result, key, value)
    result.fingerprint = {"kind": result.kind, "format": result.format_name,
                          "seed": 0, "injections_per_layer": 400,
                          "num_bits": 1, "layers": list(per_layer)}
    return ledger.record_campaign(result)


class TestDiff:
    def test_seeded_regression_is_flagged(self, tmp_path):
        with CampaignLedger(str(tmp_path / "d.sqlite")) as ledger:
            a = _record_fake(ledger, {"fc": _FakeLayer(400, 0.10),
                                      "conv": _FakeLayer(400, 0.05)})
            b = _record_fake(ledger, {"fc": _FakeLayer(400, 0.30),
                                      "conv": _FakeLayer(400, 0.05)})
            diff = diff_runs(ledger, a, b)
        assert diff["regressions"] == ["fc"]
        assert diff["improvements"] == []
        row = next(r for r in diff["layers"] if r["layer"] == "fc")
        assert row["significant"] and row["z"] > 0 and row["p"] < 0.05
        assert "REGRESSION" in render_diff(diff)

    def test_improvement_is_not_a_regression(self, tmp_path):
        with CampaignLedger(str(tmp_path / "d.sqlite")) as ledger:
            a = _record_fake(ledger, {"fc": _FakeLayer(400, 0.30)})
            b = _record_fake(ledger, {"fc": _FakeLayer(400, 0.10)})
            diff = diff_runs(ledger, a, b)
        assert diff["regressions"] == []
        assert diff["improvements"] == ["fc"]
        assert "improved" in render_diff(diff)

    def test_layer_present_in_only_one_run_is_never_significant(self,
                                                                tmp_path):
        with CampaignLedger(str(tmp_path / "d.sqlite")) as ledger:
            a = _record_fake(ledger, {"fc": _FakeLayer(400, 0.1)})
            b = _record_fake(ledger, {"fc": _FakeLayer(400, 0.1),
                                      "extra": _FakeLayer(400, 0.9)})
            diff = diff_runs(ledger, a, b)
        row = next(r for r in diff["layers"] if r["layer"] == "extra")
        assert row["injections_a"] == 0 and not row["significant"]

    def test_missing_run_raises_keyerror(self, tmp_path):
        with CampaignLedger(str(tmp_path / "d.sqlite")) as ledger:
            a = _record_fake(ledger, {"fc": _FakeLayer(10, 0.1)})
            with pytest.raises(KeyError, match="99"):
                diff_runs(ledger, a, 99)

    def test_alpha_controls_significance(self, tmp_path):
        with CampaignLedger(str(tmp_path / "d.sqlite")) as ledger:
            a = _record_fake(ledger, {"fc": _FakeLayer(100, 0.10)})
            b = _record_fake(ledger, {"fc": _FakeLayer(100, 0.22)})
            loose = diff_runs(ledger, a, b, alpha=0.05)
            strict = diff_runs(ledger, a, b, alpha=1e-6)
        assert loose["regressions"] == ["fc"]
        assert strict["regressions"] == []


# ----------------------------------------------------------------------
# history rendering
# ----------------------------------------------------------------------
class TestHistory:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▄▄▄"  # constant -> mid block
        rising = sparkline([0.0, 0.5, 1.0])
        assert rising[0] == "▁" and rising[-1] == "█"
        assert len(sparkline([float("nan"), 1.0])) == 2  # never crashes

    def test_empty_ledger_message(self, tmp_path):
        with CampaignLedger(str(tmp_path / "h.sqlite")) as ledger:
            assert "empty" in render_history(ledger)

    def test_history_lists_runs_and_trend(self, tmp_path):
        with CampaignLedger(str(tmp_path / "h.sqlite")) as ledger:
            run_ids = [_record_fake(ledger, {"fc": _FakeLayer(100, rate)})
                       for rate in (0.1, 0.2, 0.4)]
            text = render_history(ledger)
        leading = {line.split()[0] for line in text.splitlines()
                   if line.strip()}
        assert {str(run_id) for run_id in run_ids} <= leading
        assert "fp16" in text and "SDC trend per format" in text
        assert "▁" in text and "█" in text  # a real rising sparkline
        assert "0.1000 → 0.4000" in text

    def test_history_filters(self, tmp_path):
        with CampaignLedger(str(tmp_path / "h.sqlite")) as ledger:
            _record_fake(ledger, {"fc": _FakeLayer(10, 0.1)})
            assert ledger.runs(format="no_such_format") == []
            assert ledger.runs(kind="metadata") == []
            assert len(ledger.runs(format="fp16", kind="value")) == 1
            assert "no matching runs" in render_history(ledger,
                                                        format="nope")

    def test_interrupt_and_resume_flags_rendered(self, tmp_path):
        with CampaignLedger(str(tmp_path / "h.sqlite")) as ledger:
            run_id = _record_fake(ledger, {"fc": _FakeLayer(10, 0.1)},
                                  interrupted=True)
            with ledger._lock, ledger._conn:
                ledger._conn.execute(
                    "UPDATE runs SET resumes = 2 WHERE run_id = ?", (run_id,))
            text = render_history(ledger)
        assert "interrupted" in text and "resumed x2" in text


# ----------------------------------------------------------------------
# timeline: hierarchical spans -> Chrome trace_event
# ----------------------------------------------------------------------
class TestTimeline:
    def _trace_for(self, mode, tmp_path, model):
        run_mode(mode, model, "fp16", _make_data(), tmp_path,
                 injections_per_layer=INJECTIONS, seed=SEED)
        return load_trace_events(str(tmp_path / f"{mode}.trace.jsonl"))

    def test_serial_trace_nests_three_levels(self, model, tmp_path):
        events = self._trace_for("serial", tmp_path, model)
        trace = build_chrome_trace(events)
        validate_chrome_trace(trace)
        # campaign.run -> campaign.layer -> campaign.batch
        assert chrome_trace_depth(trace) >= 3
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"campaign.run", "campaign.layer",
                "campaign.batch"} <= names

    @needs_fork
    def test_parallel_trace_has_worker_lanes(self, model, tmp_path):
        events = self._trace_for("parallel2", tmp_path, model)
        trace = build_chrome_trace(events)
        validate_chrome_trace(trace)
        assert chrome_trace_depth(trace) >= 3
        lanes = trace["otherData"]["lanes"]
        assert len(lanes) >= 3  # main lane + both worker lanes
        # every worker span is attributed to a non-main lane
        worker_tids = {e["tid"] for e in trace["traceEvents"]
                       if e["ph"] == "X"
                       and e["name"] == "exec.worker_shard"}
        assert worker_tids and 0 not in worker_tids
        # lane names are declared via metadata events
        thread_names = {e["args"]["name"]
                        for e in trace["traceEvents"] if e["ph"] == "M"
                        and e["name"] == "thread_name"}
        assert any("worker" in n for n in thread_names)

    def test_critical_path_starts_at_campaign_root(self, model, tmp_path):
        events = self._trace_for("serial", tmp_path, model)
        trace = build_chrome_trace(events)
        path = trace["otherData"]["critical_path"]
        assert path and path[0]["name"] == "campaign.run"
        # the critical path walks downward: child durations shrink
        durs = [step["dur_s"] for step in path]
        assert durs == sorted(durs, reverse=True)

    def test_critical_path_prefers_span_tree_over_long_setup_leaf(self):
        # a warm-cache campaign.run can be *shorter* than the parentless
        # goldeneye.attach setup span; the critical path must still start
        # at the span tree's root, not the stray leaf
        events = [
            {"type": "span", "name": "goldeneye.attach", "ts": 10.0,
             "ts_mono": 10.0, "dur_s": 5.0, "span_id": "aa", "parent_id": None},
            {"type": "span", "name": "campaign.run", "ts": 11.0,
             "ts_mono": 11.0, "dur_s": 0.5, "span_id": "bb", "parent_id": None},
            {"type": "span", "name": "campaign.layer", "ts": 11.4,
             "ts_mono": 11.4, "dur_s": 0.4, "span_id": "cc", "parent_id": "bb"},
            {"type": "span", "name": "campaign.batch", "ts": 11.3,
             "ts_mono": 11.3, "dur_s": 0.3, "span_id": "dd", "parent_id": "cc"},
        ]
        trace = build_chrome_trace(events)
        path = trace["otherData"]["critical_path"]
        assert [step["name"] for step in path] == [
            "campaign.run", "campaign.layer", "campaign.batch"]

    def test_critical_path_survives_malformed_parent_cycle(self):
        # parent ids forming a cycle (corrupt trace) must terminate, not hang
        events = [
            {"type": "span", "name": "campaign.run", "ts": 1.0,
             "ts_mono": 1.0, "dur_s": 1.0, "span_id": "aa", "parent_id": None},
            {"type": "span", "name": "loop.b", "ts": 1.5, "ts_mono": 1.5,
             "dur_s": 0.5, "span_id": "bb", "parent_id": "aa"},
            {"type": "span", "name": "loop.c", "ts": 1.4, "ts_mono": 1.4,
             "dur_s": 0.4, "span_id": "aa", "parent_id": "bb"},
        ]
        trace = build_chrome_trace(events)
        names = [step["name"] for step in trace["otherData"]["critical_path"]]
        assert names[:2] == ["campaign.run", "loop.b"]
        assert len(names) <= 3

    def test_injection_events_become_instants(self, model, tmp_path):
        events = self._trace_for("serial", tmp_path, model)
        trace = build_chrome_trace(events)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "campaign.injection" for e in instants)

    def test_validate_rejects_malformed_traces(self):
        with pytest.raises(ValueError, match="dict"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"otherData": {}})
        with pytest.raises(ValueError, match="ph"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "?", "pid": 1,
                                  "tid": 0, "ts": 0}]})


# ----------------------------------------------------------------------
# CLI: history / diff / timeline / report --ledger
# ----------------------------------------------------------------------
class TestLedgerCLI:
    @pytest.fixture()
    def seeded_db(self, tmp_path):
        db = str(tmp_path / "cli.sqlite")
        with CampaignLedger(db) as ledger:
            a = _record_fake(ledger, {"fc": _FakeLayer(400, 0.10)})
            b = _record_fake(ledger, {"fc": _FakeLayer(400, 0.10)})
            c = _record_fake(ledger, {"fc": _FakeLayer(400, 0.45)})
        return db, (a, b, c)

    def test_history_command(self, seeded_db, capsys):
        from repro.cli import main
        db, _ = seeded_db
        assert main(["history", "--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "fp16" in out and "SDC trend" in out

    def test_history_without_ledger_is_usage_error(self, capsys,
                                                   monkeypatch):
        from repro.cli import main
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["history"]) == 2
        assert "no campaign ledger" in capsys.readouterr().err

    def test_diff_gate_passes_on_identical_runs(self, seeded_db, capsys):
        from repro.cli import main
        db, (a, b, _) = seeded_db
        assert main(["diff", str(a), str(b), "--ledger", db,
                     "--gate"]) == 0

    def test_diff_gate_fails_on_regression(self, seeded_db, capsys):
        from repro.cli import main
        db, (a, _, c) = seeded_db
        assert main(["diff", str(a), str(c), "--ledger", db,
                     "--gate"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "gate FAILED" in captured.err

    def test_diff_json_output(self, seeded_db, capsys):
        from repro.cli import main
        db, (a, _, c) = seeded_db
        assert main(["diff", str(a), str(c), "--ledger", db,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == LEDGER_SCHEMA
        assert payload["regressions"] == ["fc"]

    def test_diff_missing_run_exits_2(self, seeded_db, capsys):
        from repro.cli import main
        db, (a, _, _) = seeded_db
        assert main(["diff", str(a), "99", "--ledger", db]) == 2
        assert "no run 99" in capsys.readouterr().err

    def test_env_var_supplies_ledger_db(self, seeded_db, capsys,
                                        monkeypatch):
        from repro.cli import main
        db, _ = seeded_db
        monkeypatch.setenv("REPRO_LEDGER", db)
        assert main(["history"]) == 0
        assert "fp16" in capsys.readouterr().out

    def test_timeline_from_ledgered_run(self, model, tmp_path, capsys):
        from repro.cli import main
        db = str(tmp_path / "tl.sqlite")
        out = run_mode("serial", model, "fp16", _make_data(), tmp_path,
                       injections_per_layer=INJECTIONS, seed=SEED,
                       ledger=db)
        target = str(tmp_path / "trace.chrome.json")
        assert main(["timeline", str(out.result.ledger_run_id),
                     "--ledger", db, "--out", target]) == 0
        payload = json.loads(open(target, encoding="utf-8").read())
        validate_chrome_trace(payload)
        assert chrome_trace_depth(payload) >= 3

    def test_timeline_missing_trace_artifact(self, seeded_db, capsys):
        from repro.cli import main
        db, (a, _, _) = seeded_db  # fake runs have no trace artifact
        assert main(["timeline", str(a), "--ledger", db]) == 1
        assert "no trace artifact" in capsys.readouterr().err

    def test_timeline_from_trace_file_directly(self, model, tmp_path,
                                               capsys):
        from repro.cli import main
        run_mode("serial", model, "fp16", _make_data(), tmp_path,
                 injections_per_layer=INJECTIONS, seed=SEED)
        trace = str(tmp_path / "serial.trace.jsonl")
        assert main(["timeline", "--from-trace", trace]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_chrome_trace(payload)

    def test_report_from_ledger_aggregates(self, seeded_db, capsys):
        from repro.cli import main
        db, (a, _, _) = seeded_db
        assert main(["report", "--ledger", str(a), "--ledger-db", db,
                     "--render", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sources"]["ledger"]["run_id"] == a
        layer = next(r for r in report["layers"] if r["layer"] == "fc")
        assert layer["injections"] == 400
        assert layer["sdc_rate"] == pytest.approx(0.10)

    def test_report_from_ledger_prefers_linked_artifacts(self, model,
                                                         tmp_path, capsys):
        from repro.cli import main
        db = str(tmp_path / "rep.sqlite")
        out = run_mode("serial", model, "fp16", _make_data(), tmp_path,
                       injections_per_layer=INJECTIONS, seed=SEED,
                       ledger=db)
        assert main(["report", "--ledger", str(out.result.ledger_run_id),
                     "--ledger-db", db, "--render", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sources"]["trace"]  # the linked trace was loaded
        assert report["campaign"]["injections"] == sum(
            r.injections for r in out.result.per_layer.values())

    def test_report_rows_are_each_runs_own(self, tmp_path, capsys,
                                           monkeypatch):
        """`repro campaign` on int8 ledgers a value and a metadata run that
        share one trace: each run's report is its own ``run_layers``, and
        the trace's report splits its rows by kind with the same numbers."""
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        db, trace = str(tmp_path / "l.db"), str(tmp_path / "t.jsonl")
        assert main(["campaign", "--model", "simple_cnn", "--classes", "4",
                     "--samples", "80", "--eval-samples", "32",
                     "--epochs", "1", "--data-seed", "3", "--format", "int8",
                     "--injections", "3", "--batch", "8", "--trace", trace,
                     "--ledger", db]) == 0
        fields = ("injections", "mean_delta_loss", "max_delta_loss",
                  "mismatch_rate", "sdc_rate")

        def report(*argv):
            capsys.readouterr()
            assert main(["report", *argv, "--render", "json"]) == 0
            return json.loads(capsys.readouterr().out)

        def rows(layers):
            return {row["layer"]: tuple(row[f] for f in fields)
                    for row in layers}

        traced = report("--from-trace", trace)["layers"]
        with CampaignLedger(db) as ledger:
            runs = [ledger.get_run(run_id) for run_id in (1, 2)]
        assert [run["kind"] for run in runs] == ["value", "metadata"]
        assert len(traced) == sum(len(run["layers_detail"]) for run in runs)
        for run in runs:
            own = rows(run["layers_detail"])
            assert own and all(n == 3 for n, *_ in own.values())
            ledgered = report("--ledger", str(run["run_id"]),
                              "--ledger-db", db)
            assert rows(ledgered["layers"]) == own
            assert {row["kind"] for row in ledgered["layers"]} == \
                {run["kind"]}
            assert ledgered["campaign"]["injections"] == run["injections"]
            assert rows(r for r in traced if r["kind"] == run["kind"]) == own

    def test_report_missing_ledger_run_exits_2(self, seeded_db, capsys):
        from repro.cli import main
        db, _ = seeded_db
        assert main(["report", "--ledger", "123", "--ledger-db", db]) == 2

    def test_sqlite_file_is_a_real_database(self, seeded_db):
        db, _ = seeded_db
        conn = sqlite3.connect(db)
        try:
            tables = {r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'")}
        finally:
            conn.close()
        assert {"runs", "run_layers", "meta"} <= tables
