"""Tests for the command-line interface (python -m repro ...)."""

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import build_parser, main
from repro.obs import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


CHEAP = ["--model", "simple_cnn", "--classes", "4", "--samples", "80",
         "--eval-samples", "32", "--epochs", "1", "--data-seed", "3"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["accuracy", "--model", "alexnet"])

    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ["accuracy", "sweep", "dse", "campaign", "ranges",
                        "sites", "profile"]:
            args = parser.parse_args([command] if command in ("ranges", "sites")
                                     else [command, "--model", "simple_cnn"])
            assert args.command == command

    def test_obs_flags_on_every_subcommand(self):
        parser = build_parser()
        for argv in (["sites"], ["campaign", "--model", "simple_cnn"],
                     ["profile", "--model", "simple_cnn"]):
            args = parser.parse_args(
                argv + ["--trace", "t.jsonl", "--metrics-json", "m.json", "-vv"])
            assert args.trace == "t.jsonl"
            assert args.metrics_json == "m.json"
            assert args.verbose == 2


class TestCommands:
    def test_sites(self, capsys):
        assert main(["sites"]) == 0
        out = capsys.readouterr().out
        assert "bfp-metadata" in out
        assert out.count("value") >= 5

    def test_sites_kind_filter(self, capsys):
        assert main(["sites", "--kind", "metadata"]) == 0
        out = capsys.readouterr().out
        assert "fp-value" not in out

    def test_ranges_default(self, capsys):
        assert main(["ranges"]) == 0
        out = capsys.readouterr().out
        assert "fp(e5m10)" in out and "dB" in out

    def test_ranges_specific_formats(self, capsys):
        assert main(["ranges", "--format", "fp8", "int8"]) == 0
        out = capsys.readouterr().out
        assert "240" in out and "127" in out

    def test_ranges_rejects_a_posit_past_float64(self, capsys):
        assert main(["ranges", "--format", "posit_16_7"]) == 2
        assert "past float64" in capsys.readouterr().err

    def test_accuracy(self, capsys):
        code = main(["accuracy", *CHEAP, "--format", "fp32", "int8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fp32" in out and "int8" in out

    def test_sweep(self, capsys):
        code = main(["sweep", *CHEAP, "--families", "fp,int", "--bits", "16,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "16b" in out and "8b" in out

    def test_sweep_unknown_family(self, capsys):
        code = main(["sweep", *CHEAP, "--families", "posit", "--bits", "8"])
        assert code == 2

    def test_dse(self, capsys):
        code = main(["dse", *CHEAP, "--family", "int", "--threshold", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suggested format" in out

    def test_campaign(self, capsys):
        code = main(["campaign", *CHEAP, "--format", "int8",
                     "--kind", "metadata", "--injections", "3", "--batch", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ΔLoss" in out and "network mean" in out


class TestExtendedCommands:
    def test_cost(self, capsys):
        code = main(["cost", "--model", "simple_cnn", "--classes", "4",
                     "--samples", "80", "--format", "int8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "MACs" in out

    def test_attack(self, capsys):
        code = main(["attack", *CHEAP, "--epsilon", "0.2",
                     "--format", "native", "fp8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FGSM" in out and "attack success" in out

    def test_mixed(self, capsys):
        code = main(["mixed", *CHEAP, "--threshold", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mixed-precision" in out


class TestObservabilityCLI:
    @pytest.mark.parametrize("extra", [[], ["--workers", "2", "--numerics"]],
                             ids=["serial", "workers2-numerics"])
    def test_campaign_writes_trace_and_metrics(self, tmp_path, capsys, extra):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(["campaign", *CHEAP, "--format", "int8",
                     "--injections", "3", "--batch", "8", *extra,
                     "--trace", str(trace), "--metrics-json", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "resume cache" in out

        events = [json.loads(line) for line in
                  trace.read_text().splitlines() if line.strip()]
        assert events, "trace file must not be empty"
        injections = [e for e in events if e["name"] == "campaign.injection"]
        # int8 carries metadata, so the CLI runs value + metadata campaigns:
        # 2 campaigns x 3 layers x 3 injections
        assert len(injections) == 18
        assert len([e for e in injections if e["kind"] == "value"]) == 9
        assert len([e for e in injections if e["kind"] == "metadata"]) == 9
        for e in injections:
            for key in ("layer", "seq", "site", "bits", "delta_loss", "dur_s"):
                assert key in e, f"missing {key} in injection event"
        assert any(e["name"] == "campaign.run" for e in events)

        payload = json.loads(metrics.read_text())
        names = set(payload["metrics"])
        assert "campaign.injections_total" in names
        assert "campaign.injections_per_sec" in names
        assert "resume.hit_rate" in names
        assert "profile.phase_seconds" in names
        if extra:  # worker spans and numeric-health deltas reach the parent
            shards = [e for e in events if e["name"] == "exec.worker_shard"]
            assert shards and all("worker_id" in e for e in shards)
            assert any(name.startswith("numerics.") for name in names)
        else:
            assert any(e["name"] == "campaign.layer" for e in events)

    def test_profiled_campaign_batches_and_resumes(self, tmp_path):
        """`repro campaign` always attaches a profiler, and its bookings
        show the campaign kept fault batching (K > 1) and served each
        injected layer from its cached output, with `--numerics` too."""
        injections = 30
        for extra in ([], ["--numerics"]):
            metrics = tmp_path / f"metrics{len(extra)}.json"
            previous = set_registry(MetricsRegistry())  # this run's only
            try:
                code = main(["campaign", "--model", "simple_mlp", *CHEAP[2:],
                             "--format", "fp16", "--injections",
                             str(injections), "--batch", "8", *extra,
                             "--metrics-json", str(metrics)])
            finally:
                set_registry(previous)
            assert code == 0
            snapshot = json.loads(metrics.read_text())["metrics"]
            calls = {(e["labels"]["layer"], e["labels"]["phase"]): e["value"]
                     for e in snapshot["profile.phase_calls"]}
            # fc1 computes in the golden pass only: every fault injected at
            # it is applied to its cached output
            assert calls["fc1", "compute"] == calls["fc1", "quantize"] == 1
            # fc1's faults took fewer forward passes than there are faults
            assert calls["fc2", "compute"] - 1 < injections
            if extra:
                # a served call books no conversion (a monitored lane pass
                # injects lane by lane, so inject calls count lanes)
                tensors = {e["labels"]["layer"]: e["value"]
                           for e in snapshot["numerics.tensors_total"]
                           if e["labels"]["role"] == "neuron"}
                assert tensors["fc1"] == 1
            else:
                assert 1 <= calls["fc1", "inject"] - calls["fc1", "compute"] \
                    < injections

    def test_profiled_campaign_takes_the_fault_cone(self, capsys):
        """The profiler `repro campaign` attaches does not stop the cone: in
        K=1 passes conv2 is patched behind conv1's faults, and the resume
        summary reports it."""
        code = main(["campaign", *CHEAP, "--format", "bfp_e5m5_b16",
                     "--injections", "4", "--batch", "8",
                     "--fault-batch", "1"])
        assert code == 0
        patched = [int(n) for n in re.findall(
            r"fault cone: (\d+) conv call\(s\) patched",
            capsys.readouterr().out)]
        assert patched and max(patched) > 0

    def test_campaign_metrics_prom_export(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        code = main(["campaign", *CHEAP, "--format", "int8",
                     "--injections", "2", "--batch", "8",
                     "--metrics-prom", str(prom)])
        assert code == 0
        text = prom.read_text()
        assert "# TYPE campaign_injections_total counter" in text
        assert "resume_hit_rate" in text

    def test_profile_subcommand(self, capsys):
        code = main(["profile", *CHEAP, "--format", "bfp_e5m5_b16",
                     "--passes", "2", "--injections", "2", "--batch", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compute" in out and "quantize" in out
        assert "ns/elem" in out
        assert "phase share" in out

    def test_verbose_prints_per_layer_table(self, capsys):
        code = main(["campaign", *CHEAP, "--format", "int8",
                     "--injections", "2", "--batch", "8", "-v"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out  # profiler table shown at -v


class TestFaultModelCLI:
    """--fault-model / --burst / --stuck-at / --exhaustive / --protect and
    the `repro harden` subcommand (validation fails fast, before training)."""

    def test_burst_flag_rejects_invalid_length(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--model", "simple_cnn", "--burst", "3"])
        assert "[2, 4]" in capsys.readouterr().err

    def test_stuck_at_flag_rejects_invalid_value(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--model", "simple_cnn", "--stuck-at", "2"])
        assert "0 or 1" in capsys.readouterr().err

    def test_stride_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--model", "simple_cnn", "--stride", "0"])

    def test_conflicting_fault_flags_fail_fast(self, capsys):
        code = main(["campaign", *CHEAP, "--burst", "2", "--stuck-at", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "conflicting fault-model flags" in err
        assert "--burst 2" in err and "--stuck-at 0" in err

    def test_stride_without_burst_fails_fast(self, capsys):
        code = main(["campaign", *CHEAP, "--stride", "2"])
        assert code == 2
        assert "burst" in capsys.readouterr().err

    def test_unknown_fault_model_names_the_valid_specs(self, capsys):
        code = main(["campaign", *CHEAP, "--fault-model", "rowhammer"])
        assert code == 2
        err = capsys.readouterr().err
        assert "single, burst2" in err and "temporalN" in err

    def test_unknown_protection_names_the_valid_models(self, capsys):
        code = main(["campaign", *CHEAP, "--protect", "hamming"])
        assert code == 2
        assert "secded" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        (["--format", "fp16"], "fp16 has none"),
        (["--format", "bfp_e5m5_b16", "--fault-model", "burst2"],
         "only the single fault model"),
    ])
    def test_metadata_kind_without_a_metadata_campaign_fails_fast(
            self, capsys, argv, reason):
        """No metadata campaign would run, so the value campaign's numbers
        must not be printed under a metadata label."""
        code = main(["campaign", *CHEAP, "--kind", "metadata", *argv])
        assert code == 2
        assert reason in capsys.readouterr().err

    def test_campaign_burst_with_secded(self, capsys):
        code = main(["campaign", *CHEAP, "--format", "fp16",
                     "--injections", "3", "--batch", "8",
                     "--burst", "2", "--protect", "secded"])
        assert code == 0
        out = capsys.readouterr().out
        # per-pattern breakdown + ECC verdict totals are printed
        assert "len2" in out
        assert "ECC verdicts" in out and "detected=" in out

    def test_harden_end_to_end(self, capsys, tmp_path):
        import json as _json
        from repro.core import validate_hardening_report
        out_path = tmp_path / "harden.json"
        code = main(["harden", *CHEAP, "--format", "fp16",
                     "--injections", "6", "--batch", "8",
                     "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "harden-first ranking under secded" in out
        assert "reduction/bit" in out
        report = _json.loads(out_path.read_text())
        assert validate_hardening_report(report) == report
        assert report["protection"] == "secded"


def _repro(*argv):
    """The argv of a ``python -m repro`` child process."""
    return [sys.executable, "-m", "repro", *argv]


def _env():
    """A child's environment: this process's, with its import path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def _run(argv, timeout=600, **kwargs):
    return subprocess.run(argv, timeout=timeout, env=_env(), **kwargs)


def _group_members(pgid: int) -> list[int]:
    """Pids of the processes of group ``pgid`` that are not zombies.

    Without ``/proc`` a signal-0 probe stands in, zombies included.
    """
    if not os.path.isdir("/proc"):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                # "pid (comm) state ppid pgrp ...": comm may hold spaces
                state, _ppid, pgrp = fh.read().rpartition(")")[2].split()[:3]
        except (OSError, ValueError):
            continue  # exited while the table was read
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


class TestCampaignProcess:
    """`repro campaign` driven as a child process: interrupted by SIGINT,
    resumed from its journal, and served live while it runs."""

    ARGS = ["campaign", "--model", "simple_cnn", "--classes", "4",
            "--samples", "80", "--eval-samples", "16", "--epochs", "1",
            "--data-seed", "3", "--format", "fp16"]

    def test_sigint_then_resume_matches_an_uninterrupted_run(self, tmp_path):
        from repro.exec.journal import load_journal
        from repro.exec.shmcache import live_segments

        args = _repro(*self.ARGS, "--injections", "400", "--batch", "8",
                      "--workers", "2", "-v")
        run, fresh = tmp_path / "run.jsonl", tmp_path / "fresh.jsonl"

        def records(path):
            """(layer, seq) -> comparable record tuple, as the code reads
            the journal (injection and batch lines, torn tail skipped)."""
            if not path.exists():
                return {}
            return {key: (r["site"], tuple(r["bits"]), r["delta_loss"],
                          r["mismatch_rate"], r["sdc_rate"])
                    for key, r in load_journal(path)[1].items()}

        # 1. warm the model cache so later invocations are cheap/identical
        _run(args + ["--injections", "1", "--workers", "1"], check=True)

        # 2. start the campaign, SIGINT it once the journal shows progress
        proc = subprocess.Popen(args + ["--journal", str(run)], env=_env())
        try:
            deadline = time.time() + 540
            while len(records(run)) < 10:
                assert proc.poll() is None, (
                    "campaign finished before it could be interrupted; "
                    "raise --injections")
                assert time.time() < deadline, \
                    "campaign never made journaled progress"
                time.sleep(0.2)
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        partial = records(run)
        assert partial, "no records survived the interrupt"
        assert live_segments() == []

        # 3. resume with the identical command + journal
        _run(args + ["--journal", str(run)], check=True)
        resumed = records(run)
        assert len(resumed) > len(partial), "resume executed no new work"
        for key in partial:
            assert resumed[key] == partial[key], f"resume rewrote {key}"
        assert live_segments() == []

        # 4. uninterrupted reference run into a fresh journal
        _run(args + ["--journal", str(fresh)], check=True)
        assert resumed == records(fresh), (
            "resumed aggregate differs from uninterrupted run")

    def test_resumes_after_its_supervisor_is_killed(self, tmp_path):
        """A SIGKILLed supervisor cannot reap its workers.  They must not
        keep the journal locked against the resume, and they exit on their
        own, so the killed run's shared-memory segment goes with them."""
        from repro.exec.journal import load_journal
        from repro.exec.shmcache import SEGMENT_PREFIX, live_segments

        run = tmp_path / "run.jsonl"
        args = _repro(*self.ARGS, "--injections", "400", "--batch", "8",
                      "--workers", "2", "--journal", str(run))

        def records():
            return load_journal(run)[1] if run.exists() else {}

        # its own process group, so its orphaned workers can be killed too
        proc = subprocess.Popen(args, env=_env(), start_new_session=True)
        try:
            deadline = time.time() + 540
            while not records():
                assert proc.poll() is None, \
                    "campaign finished before it could be killed"
                assert time.time() < deadline, \
                    "campaign never made journaled progress"
                time.sleep(0.2)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            partial = records()

            # the orphaned workers (and the resource tracker, which unlinks
            # the segment they held) leave without being killed
            deadline = time.time() + 60
            while _group_members(proc.pid) or any(
                    name.startswith(f"{SEGMENT_PREFIX}{proc.pid}-")
                    for name in live_segments()):
                assert time.time() < deadline, (
                    f"left behind: processes {_group_members(proc.pid)}, "
                    f"segments {live_segments()}")
                time.sleep(0.2)

            resumed = _run(args, capture_output=True, text=True)
            assert resumed.returncode == 0, resumed.stderr[-2000:]
            assert len(records()) > len(partial), "resume executed no new work"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
            # a fallback: the run above asserts neither is needed
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            for name in live_segments():
                if name.startswith(f"{SEGMENT_PREFIX}{proc.pid}-"):
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(os.path.join("/dev/shm", name))

    def test_served_campaign_answers_live_endpoints(self, tmp_path):
        from repro.obs.live import validate_progress

        with socket.socket() as probe:  # a free port for the server
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        addr = f"{host}:{port}"
        url = f"http://{addr}"
        journal = str(tmp_path / "live.jsonl")
        # warm the model cache so the served run reaches injections fast
        _run(_repro(*self.ARGS, "--injections", "1", "--workers", "1"),
             check=True)

        # a budget the checks can never outrun: the SIGINT step ends the
        # campaign, not injection exhaustion
        proc = subprocess.Popen(
            _repro(*self.ARGS, "--injections", "5000", "--batch", "8",
                   "--workers", "2", "--journal", journal, "--serve", addr,
                   "-v"), env=_env())
        try:
            # 1. wait for a running /progress document
            deadline = time.time() + 540
            while True:
                assert proc.poll() is None, \
                    "campaign exited before serving progress"
                assert time.time() < deadline, \
                    "no /progress with done >= 5 before deadline"
                try:
                    with urllib.request.urlopen(url + "/progress",
                                                timeout=5) as resp:
                        doc = json.load(resp)
                    if doc["done"] >= 5:
                        break
                except OSError:
                    pass
                time.sleep(0.2)

            # 2. schema-validate the live document
            validate_progress(doc)
            assert doc["state"] == "running", doc["state"]
            assert doc["total"] > 0 and doc["layers"], "empty plan served"
            for layer, entry in doc["layers"].items():
                lo, hi = entry["sdc_ci95"]
                assert 0.0 <= lo <= hi <= 1.0, (layer, entry)

            # 3. /metrics and /healthz answer while records flow
            with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
                metrics = resp.read().decode()
            assert "campaign_injections_total" in metrics, metrics[:400]
            with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
                health = json.load(resp)
            assert health["status"] == "ok", health

            # 4. the SSE stream delivers at least one campaign event
            events = 0
            with urllib.request.urlopen(url + "/events",
                                        timeout=30) as stream:
                deadline = time.time() + 60
                while time.time() < deadline and events < 1:
                    if stream.readline().startswith(b"event: campaign."):
                        events += 1
            assert events >= 1, "no campaign.* SSE event observed"

            # 5. the terminal dashboard renders one frame from the URL
            watch = _run(_repro("watch", addr, "--once"), timeout=60,
                         capture_output=True, text=True)
            assert watch.returncode == 0, watch.stderr
            assert "SDC" in watch.stdout, watch.stdout

            # 6. SIGINT: campaign seals, server shuts down cleanly
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

        for _ in range(50):
            try:
                socket.create_connection((host, port), timeout=1).close()
                time.sleep(0.2)
            except OSError:
                break
        else:
            pytest.fail("live server port still accepting after shutdown")

        # 7. the journal survives and the offline dashboard reads it
        assert os.path.exists(journal), "journal missing"
        watch = _run(_repro("watch", journal, "--once"), timeout=60,
                     capture_output=True, text=True)
        assert watch.returncode == 0, watch.stderr
        assert "journal" in watch.stdout, watch.stdout
