"""Tests for the command-line interface (python -m repro ...)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


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
    def test_campaign_writes_trace_and_metrics(self, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(["campaign", *CHEAP, "--format", "int8",
                     "--injections", "3", "--batch", "8",
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
            for key in ("layer", "site", "bits", "delta_loss", "dur_s"):
                assert key in e, f"missing {key} in injection event"
        assert any(e["name"] == "campaign.run" for e in events)
        assert any(e["name"] == "campaign.layer" for e in events)

        payload = json.loads(metrics.read_text())
        names = set(payload["metrics"])
        assert "campaign.injections_total" in names
        assert "campaign.injections_per_sec" in names
        assert "resume.hit_rate" in names
        assert "profile.phase_seconds" in names

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
