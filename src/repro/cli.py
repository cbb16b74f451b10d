"""Command-line interface for GoldenEye experiments.

The paper exposes "a set of command line arguments for hyperparameter tuning"
(§IV-B) that its DSE wrapper scripts drive.  This module provides the same
surface over the reproduction:

    python -m repro accuracy --model resnet18 --format fp_e4m3
    python -m repro sweep    --model deit_tiny --families fp,afp --bits 16,8,4
    python -m repro dse      --model resnet18 --family bfp --threshold 0.01
    python -m repro campaign --model resnet18 --format bfp_e5m5_b16 \
                             --kind metadata --injections 100 \
                             --workers 4 --journal camp.jsonl --numerics
    python -m repro profile  --model resnet18 --format bfp_e5m5_b16
    python -m repro report   --from-metrics metrics.json --from-trace t.jsonl
    python -m repro watch    127.0.0.1:9200        # dashboard for --serve
    python -m repro history  --ledger runs.sqlite  # persistent run history
    python -m repro diff 1 2 --ledger runs.sqlite --gate   # regression gate
    python -m repro timeline 2 --ledger runs.sqlite --out trace.json
    python -m repro ranges
    python -m repro sites

Every command trains (or loads from cache) the requested model on the
deterministic synthetic dataset, so runs are reproducible end to end.

Observability flags (every subcommand):

* ``--trace FILE`` — JSONL event stream (one event per injection, spans for
  campaigns / layers / DSE nodes — see ``docs/API.md`` for the schema);
* ``--metrics-json FILE`` / ``--metrics-prom FILE`` — dump the process
  metrics registry (cache hit-rate, injections/sec, per-layer phase timing)
  as JSON or Prometheus text exposition on exit;
* ``-v`` / ``-vv`` — INFO / DEBUG logging to stderr (``-v`` on a campaign
  also prints periodic progress lines: layer, done/total, inj/s, ETA);
* ``campaign --serve HOST:PORT`` — live observability while the campaign
  runs (``/metrics``, ``/progress``, ``/healthz``, ``/events`` SSE), paired
  with the ``watch`` subcommand's terminal dashboard.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .analysis import layer_vulnerability_table, profile_resilience, render_table
from .core import (
    BURST_LENGTHS,
    CampaignError,
    VALID_PROTECTIONS,
    binary_tree_search,
    injection_sites,
    parse_fault_model,
    parse_protection,
    run_campaign,
)
from .core.dse import FAMILY_BUILDERS, evaluate_format_accuracy
from .data import SyntheticImageNet, get_pretrained
from .formats import available_formats, dynamic_range, make_format
from .models import available_models
from .obs import (
    CampaignLedger,
    LayerProfiler,
    NULL_TRACER,
    NumericHealthMonitor,
    atomic_write_text,
    build_chrome_trace,
    build_report,
    build_report_from_ledger,
    configure_tracing,
    diff_runs,
    export_prometheus,
    get_registry,
    load_metrics,
    load_trace_events,
    render_diff,
    render_history,
    render_report,
    set_tracer,
    validate_chrome_trace,
    validate_report,
    write_json,
)

__all__ = ["main", "build_parser"]


def _load(args) -> tuple:
    dataset = SyntheticImageNet(num_classes=args.classes,
                                num_samples=args.samples, seed=args.data_seed)
    epochs = args.epochs if args.epochs is not None else (
        8 if args.model.startswith("deit") else 3)
    model, (images, labels) = get_pretrained(args.model, dataset, epochs=epochs,
                                             seed=args.seed)
    if args.eval_samples:
        images, labels = images[: args.eval_samples], labels[: args.eval_samples]
    return model, images, labels


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", metavar="FILE", default=None,
                       help="write a JSONL trace (spans + one event per "
                            "injection) to FILE")
    group.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="dump the metrics registry as JSON on exit")
    group.add_argument("--metrics-prom", metavar="FILE", default=None,
                       help="dump the metrics registry as Prometheus text "
                            "exposition on exit")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="-v: INFO logging, -vv: DEBUG logging (stderr)")


def _configure_logging(verbosity: int) -> None:
    level = (logging.WARNING if verbosity <= 0
             else logging.INFO if verbosity == 1 else logging.DEBUG)
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s"))
        logger.addHandler(handler)


def _burst_arg(text: str) -> int:
    """``--burst`` validator: one of the supported burst lengths."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--burst must be an integer, got {text!r}") from None
    if value not in BURST_LENGTHS:
        raise argparse.ArgumentTypeError(
            f"--burst must be one of {sorted(BURST_LENGTHS)}, got {value}")
    return value


def _stuck_arg(text: str) -> int:
    """``--stuck-at`` validator: 0 or 1."""
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(
            f"--stuck-at must be 0 or 1, got {text!r}")
    return int(text)


def _positive_int(flag: str):
    """Validator factory for flags that must be an integer >= 1."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} must be an integer >= 1, got {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= 1, got {value}")
        return value
    return parse


def _layers_arg(text: str) -> list[str]:
    layers = [name.strip() for name in text.split(",") if name.strip()]
    if not layers:
        raise argparse.ArgumentTypeError(
            "--layers needs at least one layer name (comma-separated)")
    return layers


def _add_fault_args(parser: argparse.ArgumentParser,
                    default_protect: str = "none") -> None:
    group = parser.add_argument_group("fault model & protection")
    group.add_argument("--fault-model", default="single", metavar="SPEC",
                       help="fault-model spec: single (default), "
                            "burst2/burst4 (optionally :strideS:alignA), "
                            "stuck0/stuck1, exhaustive, temporalN")
    group.add_argument("--burst", type=_burst_arg, default=None, metavar="LEN",
                       help=f"burst fault of LEN adjacent bits "
                            f"(one of {sorted(BURST_LENGTHS)}); shorthand "
                            f"for --fault-model burstLEN")
    group.add_argument("--stride", type=_positive_int("--stride"), default=1,
                       metavar="S",
                       help="bit distance between burst positions (>= 1; "
                            "burst models only)")
    group.add_argument("--align", type=_positive_int("--align"), default=1,
                       metavar="A",
                       help="burst start positions are multiples of A "
                            "(>= 1; burst models only)")
    group.add_argument("--stuck-at", type=_stuck_arg, default=None,
                       metavar="V",
                       help="stuck-at fault forcing the sampled bit to V "
                            "(0 or 1); shorthand for --fault-model stuckV")
    group.add_argument("--exhaustive", action="store_true",
                       help="enumerate every single-bit site of every target "
                            "layer instead of sampling (refused when a "
                            "layer's site space exceeds the cap — restrict "
                            "--layers)")
    group.add_argument("--protect", default=default_protect, metavar="MODEL",
                       help="ECC protection model applied at injection time: "
                            + ", ".join(VALID_PROTECTIONS)
                            + f" (default {default_protect})")
    group.add_argument("--layers", type=_layers_arg, default=None,
                       metavar="L1,L2,...",
                       help="restrict the campaign to these instrumented "
                            "layers (required for --exhaustive on all but "
                            "tiny models)")


def _resolve_fault_args(args) -> str:
    """Combine the fault flags into one validated spec string.

    Mirrors the ``layers=`` contract: every invalid combination raises
    ``ValueError`` naming the valid values *before* any model is trained
    or campaign started.
    """
    chosen = []
    if args.fault_model != "single":
        chosen.append(f"--fault-model {args.fault_model}")
    if args.burst is not None:
        chosen.append(f"--burst {args.burst}")
    if args.stuck_at is not None:
        chosen.append(f"--stuck-at {args.stuck_at}")
    if args.exhaustive:
        chosen.append("--exhaustive")
    if len(chosen) > 1:
        raise ValueError(
            "conflicting fault-model flags: " + " and ".join(chosen)
            + "; pick one")
    if args.burst is not None:
        spec = f"burst{args.burst}"
    elif args.stuck_at is not None:
        spec = f"stuck{args.stuck_at}"
    elif args.exhaustive:
        spec = "exhaustive"
    else:
        spec = args.fault_model
    if args.stride != 1 or args.align != 1:
        if not spec.startswith("burst"):
            raise ValueError(
                "--stride/--align apply only to burst fault models "
                f"(--burst {sorted(BURST_LENGTHS)}), not {spec!r}")
        if ":" not in spec:
            if args.stride != 1:
                spec += f":stride{args.stride}"
            if args.align != 1:
                spec += f":align{args.align}"
    parse_fault_model(spec)  # raises ValueError naming the valid specs
    parse_protection(args.protect)  # raises ValueError naming valid models
    if getattr(args, "kind", "value") == "metadata":
        # profile_resilience runs no metadata campaign in these cases, so
        # the value campaign's numbers would print under a metadata label
        if parse_fault_model(spec).spec() != "single":
            raise ValueError(
                f"--kind metadata supports only the single fault model, "
                f"not {spec!r}")
        if not make_format(args.format).has_metadata:
            raise ValueError(
                f"--kind metadata needs a format with metadata (shared "
                f"scales or exponents); {args.format} has none")
    return spec


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="resnet18", choices=available_models(),
                        help="model to evaluate (trained on the synthetic dataset)")
    parser.add_argument("--classes", type=int, default=10, help="dataset classes")
    parser.add_argument("--samples", type=int, default=800, help="dataset size")
    parser.add_argument("--eval-samples", type=int, default=128,
                        help="validation samples used for evaluation (0 = all)")
    parser.add_argument("--data-seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--seed", type=int, default=0, help="model/train seed")
    parser.add_argument("--epochs", type=int, default=None,
                        help="training epochs (default: per-architecture)")


def cmd_accuracy(args) -> int:
    model, images, labels = _load(args)
    rows = []
    for spec in args.format:
        accuracy = evaluate_format_accuracy(model, images, labels, spec,
                                            targets=tuple(args.targets.split(",")))
        rows.append((spec, f"{accuracy:.4f}"))
    print(render_table(["format", "top-1 accuracy"], rows,
                       title=f"{args.model} accuracy under emulation"))
    return 0


def cmd_sweep(args) -> int:
    model, images, labels = _load(args)
    families = args.families.split(",")
    bits = [int(b) for b in args.bits.split(",")]
    rows = []
    for family in families:
        if family not in FAMILY_BUILDERS:
            print(f"unknown family {family!r}; known: {', '.join(FAMILY_BUILDERS)}",
                  file=sys.stderr)
            return 2
        accs = []
        for b in bits:
            fmt = FAMILY_BUILDERS[family](b, None)
            accs.append(evaluate_format_accuracy(model, images, labels, fmt))
        rows.append((family, *(f"{a:.4f}" for a in accs)))
    print(render_table(["family", *(f"{b}b" for b in bits)], rows,
                       title=f"{args.model} accuracy vs bitwidth"))
    return 0


def cmd_dse(args) -> int:
    model, images, labels = _load(args)
    result = binary_tree_search(model, images, labels, family=args.family,
                                threshold=args.threshold)
    print(render_table(
        ["node", "phase", "format", "accuracy", "acceptable"],
        [(n.index, n.phase, n.format.name, f"{n.accuracy:.4f}",
          "yes" if n.acceptable else "no") for n in result.nodes],
        title=(f"DSE for {args.model} / {args.family} "
               f"(baseline {result.baseline_accuracy:.4f}, "
               f"threshold -{result.threshold:.0%})")))
    best = result.best
    if best is None:
        print("no acceptable design point found")
        return 1
    print(f"suggested format: {best.format.name} (accuracy {best.accuracy:.4f})")
    return 0


def _campaign_summary(campaign) -> str:
    """Human-readable resume-cache + throughput summary for one campaign."""
    lines = []
    tel = campaign.telemetry
    if tel:
        lines.append(
            f"throughput: {tel['injections_per_sec']:.1f} injections/s "
            f"({tel['injections']} injections in {tel['wall_seconds']:.2f}s, "
            f"{tel['sampling_retries']} sampling retries)")
        if tel.get("workers", 1) > 1 or tel.get("journal_skipped"):
            lines.append(
                f"execution: {tel.get('workers', 1)} worker(s) | "
                f"journal-skipped {tel.get('journal_skipped', 0)} | "
                f"quarantined shards {tel.get('quarantined_shards', 0)}")
    if campaign.quarantined:
        abandoned = sum(len(q.get("seqs", ())) for q in campaign.quarantined)
        lines.append(
            f"WARNING: {len(campaign.quarantined)} shard(s) quarantined "
            f"({abandoned} injection(s) abandoned) — see the journal/trace "
            "for details")
    if campaign.interrupted:
        lines.append("WARNING: campaign interrupted — partial result; "
                     "re-run with the same --journal to resume")
    stats = campaign.resume_stats
    if stats:
        lookups = stats["hits"] + stats["misses"]
        hit_rate = stats["hits"] / lookups if lookups else 0.0
        lines.append(
            f"resume cache: hit-rate {hit_rate:.1%} | "
            f"replayed {stats['replayed']} | recomputed {stats['recomputed']} | "
            f"evictions {stats['evictions']} | diverged {stats['diverged']}")
        lines.append(
            f"fault cone: {stats['cone_patched']} conv call(s) patched "
            f"({stats['cone_positions']} output positions) | "
            f"{stats['cone_unchanged']} unchanged")
    return "\n".join(lines)


def cmd_campaign(args) -> int:
    fault_spec = _resolve_fault_args(args)  # fail fast, before training
    model, images, labels = _load(args)
    fmt = make_format(args.format)
    profiler = LayerProfiler()
    numerics = NumericHealthMonitor() if args.numerics else None
    profile = profile_resilience(
        model, args.model, fmt, images[: args.batch], labels[: args.batch],
        injections_per_layer=args.injections, location=args.location,
        seed=args.seed, profiler=profiler, numerics=numerics,
        workers=args.workers, journal=args.journal,
        shard_timeout=args.shard_timeout,
        fault_batch=args.fault_batch,
        fault_model=fault_spec, protect=args.protect,
        layers=args.layers,
        serve=args.serve, ledger=args.ledger)
    if args.kind == "value" or profile.metadata_campaign is None:
        campaign = profile.value_campaign
    else:
        campaign = profile.metadata_campaign
    # remember the ledger rows so main() can link the --metrics-json
    # artifact once it has actually been written (at exit)
    args._ledger_run_ids = [
        c.ledger_run_id for c in (profile.value_campaign,
                                  profile.metadata_campaign)
        if c is not None and c.ledger_run_id is not None]
    print(layer_vulnerability_table(profile))
    print(f"\nnetwork mean ΔLoss ({args.kind}): "
          f"{np.mean([r.mean_delta_loss for r in campaign.per_layer.values()]):.4f}")
    summary = _campaign_summary(campaign)
    if summary:
        print(summary)
    if args._ledger_run_ids:
        print("ledger: recorded run "
              + ", ".join(f"#{r}" for r in args._ledger_run_ids)
              + " — inspect with `repro history` / `repro diff` / "
                "`repro timeline`")
    if fault_spec != "single":
        from .analysis import fault_pattern_table
        print("\n" + fault_pattern_table(campaign, group="len"))
    if args.protect != "none":
        ecc_totals: dict[str, int] = {}
        for r in campaign.per_layer.values():
            for verdict, n in r.ecc.items():
                ecc_totals[verdict] = ecc_totals.get(verdict, 0) + n
        print("\nECC verdicts under --protect "
              f"{args.protect}: " + (", ".join(
                  f"{k}={v}" for k, v in sorted(ecc_totals.items()))
                  or "none recorded"))
    if numerics is not None:
        print("\n" + numerics.table())
    if args.verbose:
        print("\n" + profiler.table())
    return 0


def cmd_harden(args) -> int:
    from .core import (GoldenEye, build_hardening_report, layer_geometry,
                       render_hardening_report)

    fault_spec = _resolve_fault_args(args)  # fail fast, before training
    protect = args.protect
    model, images, labels = _load(args)
    fmt = make_format(args.format)
    platform = GoldenEye(model, fmt)
    with platform:
        # the ranking campaign runs UNPROTECTED — the engine estimates the
        # protected SDC from the per-pattern statistics, so one campaign
        # yields the whole cost/benefit frontier
        campaign = run_campaign(
            platform, images[: args.batch], labels[: args.batch],
            kind="value", location=args.location,
            injections_per_layer=args.injections, seed=args.seed,
            layers=args.layers, workers=args.workers,
            fault_model=fault_spec, ledger=args.ledger)
        geometry = layer_geometry(platform, args.location)
    if campaign.ledger_run_id is not None:
        args._ledger_run_ids = [campaign.ledger_run_id]
    report = build_hardening_report(campaign, geometry, protection=protect,
                                    budget_bits=args.budget_bits)
    print(render_hardening_report(report))
    if report["selected"]:
        print(f"\nharden first: {', '.join(report['selected'])} "
              f"({report['selected_cost_bits']} protection bits)")
    else:
        print("\nno layer showed a positive SDC reduction under "
              f"{report['protection']}")
    if args.out:
        atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_profile(args) -> int:
    from .core import GoldenEye
    from .core.campaign import golden_inference

    model, images, labels = _load(args)
    images, labels = images[: args.batch], labels[: args.batch]
    profiler = LayerProfiler()
    with GoldenEye(model, args.format, profiler=profiler) as ge:
        for _ in range(max(args.passes, 1)):
            golden_inference(ge, images, labels)
        if args.injections > 0:
            run_campaign(ge, images, labels,
                         injections_per_layer=args.injections, seed=args.seed)
    print(profiler.table())
    total = profiler.total_seconds()
    if total > 0:
        shares = " | ".join(
            f"{phase} {profiler.total_seconds(phase) / total:.1%}"
            for phase in ("compute", "quantize", "inject", "detect"))
        print(f"\nphase share of instrumented time: {shares}")
    return 0


def cmd_attack(args) -> int:
    from .analysis import attack_success_by_format, attack_table

    model, images, labels = _load(args)
    results = attack_success_by_format(
        model, images, labels, epsilon=args.epsilon, attack=args.attack,
        formats=tuple(args.format))
    print(attack_table(results, args.attack, args.epsilon))
    return 0


def cmd_cost(args) -> int:
    from .analysis import cost_table, model_cost

    dataset = SyntheticImageNet(num_classes=args.classes,
                                num_samples=args.samples, seed=args.data_seed)
    from .models import create_model
    import inspect as _inspect
    from .models.registry import MODEL_REGISTRY
    kwargs = dict(num_classes=dataset.num_classes, seed=args.seed)
    if "image_size" in _inspect.signature(MODEL_REGISTRY[args.model]).parameters:
        kwargs["image_size"] = dataset.image_size
    model = create_model(args.model, **kwargs)
    shape = (dataset.channels, dataset.image_size, dataset.image_size)
    costs = model_cost(model, shape, args.format)
    print(cost_table(costs, title=f"{args.model} relative MAC cost under {args.format}"))
    return 0


def cmd_mixed(args) -> int:
    from .analysis import assign_mixed_precision

    model, images, labels = _load(args)
    result = assign_mixed_precision(model, images, labels, cheap=args.cheap,
                                    expensive=args.expensive,
                                    threshold=args.threshold)
    print(result.table())
    return 0


def cmd_report(args) -> int:
    """Assemble a campaign health report from metrics/trace artifacts.

    ``--ledger RUN_ID`` regenerates the report for a ledgered run instead:
    its per-layer rows and totals are the ledger's own, and the run's
    linked artifacts, when they still exist, add the other sections.
    """
    if args.ledger is not None:
        with _open_ledger(args, path_attr="ledger_db") as ledger:
            try:
                report = build_report_from_ledger(ledger, args.ledger)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
    else:
        if not args.from_metrics and not args.from_trace:
            print("report: at least one of --from-metrics / --from-trace / "
                  "--ledger is required", file=sys.stderr)
            return 2
        metrics = load_metrics(args.from_metrics) if args.from_metrics else None
        events = load_trace_events(args.from_trace) if args.from_trace else None
        report = build_report(metrics=metrics, events=events,
                              metrics_path=args.from_metrics,
                              trace_path=args.from_trace)
    validate_report(report)
    text = render_report(report, args.render)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.render} report to {args.out}")
    else:
        print(text)
    return 0


def _open_ledger(args, path_attr: str = "ledger") -> CampaignLedger:
    """Open the campaign ledger named by ``--ledger`` / ``$REPRO_LEDGER``.

    Raises ``ValueError`` (exit code 2 via ``main``) when no ledger is
    configured or the file does not exist — the history/diff/timeline
    commands read an existing ledger, they never create one.
    """
    path = getattr(args, path_attr, None) or os.environ.get("REPRO_LEDGER")
    if not path:
        raise ValueError(
            "no campaign ledger: pass --ledger PATH (or set REPRO_LEDGER); "
            "campaigns record into it via `repro campaign --ledger PATH`")
    if not os.path.exists(path):
        raise ValueError(f"campaign ledger {path!r} does not exist")
    return CampaignLedger(path)


def cmd_history(args) -> int:
    """List ledgered campaign runs with per-format SDC trend sparklines."""
    with _open_ledger(args) as ledger:
        print(render_history(ledger, format=args.format,
                             fault_model=args.fault_model, kind=args.kind,
                             limit=args.limit))
    return 0


def cmd_diff(args) -> int:
    """Compare two ledgered runs layer by layer (``--gate`` for CI)."""
    with _open_ledger(args) as ledger:
        try:
            diff = diff_runs(ledger, args.run_a, args.run_b, alpha=args.alpha)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff))
    if args.gate and diff["regressions"]:
        print(f"diff: gate FAILED — {len(diff['regressions'])} layer(s) "
              f"with a statistically significant SDC regression at "
              f"alpha={args.alpha:g}: {', '.join(diff['regressions'])}",
              file=sys.stderr)
        return 1
    return 0


def cmd_timeline(args) -> int:
    """Export a ledgered run's span trace as Chrome ``trace_event`` JSON."""
    if args.from_trace:
        events = load_trace_events(args.from_trace)
        label = args.from_trace
    elif args.run is not None:
        with _open_ledger(args) as ledger:
            run = ledger.get_run(args.run)
            if run is None:
                print(f"error: ledger has no run {args.run}", file=sys.stderr)
                return 2
            trace_path = run.get("trace_path")
            if not trace_path or not os.path.exists(trace_path):
                print(f"error: run {args.run} has no trace artifact on disk "
                      f"({trace_path or 'none recorded'}); re-run the "
                      "campaign with --trace FILE", file=sys.stderr)
                return 1
            events = load_trace_events(trace_path)
            label = (f"run {run['run_id']}: {run['kind']} campaign, "
                     f"{run['format']}, fault {run['fault_model']}")
    else:
        print("timeline: a RUN id (with --ledger) or --from-trace FILE is "
              "required", file=sys.stderr)
        return 2
    trace = build_chrome_trace(events, label=label)
    validate_chrome_trace(trace)
    text = json.dumps(trace) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        meta = trace["otherData"]
        print(f"wrote Chrome trace to {args.out} ({meta['spans']} spans, "
              f"{len(meta['lanes'])} lane(s), critical path "
              f"{len(meta['critical_path'])} span(s)) — open in "
              "chrome://tracing or https://ui.perfetto.dev")
    else:
        print(text, end="")
    return 0


def cmd_watch(args) -> int:
    """Terminal dashboard for a live ``--serve`` campaign or a WAL journal."""
    import time as _time

    from .obs import fetch_progress, journal_progress, render_dashboard

    target = args.target
    if target.startswith(("http://", "https://")):
        mode = "url"
    elif os.path.exists(target):
        mode = "journal"
    elif ":" in target:
        mode, target = "url", f"http://{target}"
    else:
        print(f"watch: {target!r} is neither a reachable URL nor an "
              "existing journal file", file=sys.stderr)
        return 2

    fetched_once = False
    while True:
        try:
            payload = (fetch_progress(target) if mode == "url"
                       else journal_progress(target))
        except (OSError, ValueError) as exc:
            if fetched_once:
                # the server went away after we saw it: the campaign ended
                # and an address-owned server shut down with it
                print("watch: endpoint gone (campaign ended)")
                return 0
            print(f"watch: cannot read {target}: {exc}", file=sys.stderr)
            return 1
        fetched_once = True
        frame = render_dashboard(payload)
        if args.once:
            print(frame)
            return 0
        # ANSI clear + home: a curses-free full-screen refresh
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        if payload["state"] in ("done", "interrupted", "error"):
            return 0
        _time.sleep(max(0.1, args.interval))


def cmd_ranges(args) -> int:
    rows = []
    for name in args.format or available_formats():
        r = dynamic_range(make_format(name))
        rows.append(r.row())
    print(render_table(
        ["format", "abs max", "abs min (positive)", "range (dB)"], rows,
        title="Dynamic range of data types (Table I)"))
    return 0


def cmd_sites(args) -> int:
    rows = [(s.name, s.kind, s.format_spec, s.description)
            for s in injection_sites(args.kind)]
    print(render_table(["site", "kind", "example format", "what one flipped bit means"],
                       rows, title="Single-bit injection sites"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="GoldenEye reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("accuracy", help="accuracy under one or more formats")
    _add_model_args(p)
    p.add_argument("--format", nargs="+", default=["fp32", "fp16", "int8"],
                   help="format specs to evaluate")
    p.add_argument("--targets", default="conv,linear",
                   help="comma-separated layer kinds to emulate")
    p.set_defaults(func=cmd_accuracy)

    p = sub.add_parser("sweep", help="accuracy vs bitwidth sweep (Fig. 4)")
    _add_model_args(p)
    p.add_argument("--families", default="fp,fxp,int,bfp,afp")
    p.add_argument("--bits", default="32,16,12,8,4")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dse", help="binary-tree format search (Fig. 5/6)")
    _add_model_args(p)
    p.add_argument("--family", default="fp", choices=sorted(FAMILY_BUILDERS))
    p.add_argument("--threshold", type=float, default=0.01,
                   help="acceptable accuracy loss vs baseline (fraction)")
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser("campaign", help="per-layer injection campaign (Fig. 7)")
    _add_model_args(p)
    p.add_argument("--format", default="bfp_e5m5_b16")
    p.add_argument("--kind", default="value", choices=["value", "metadata"])
    p.add_argument("--location", default="neuron", choices=["neuron", "weight"])
    p.add_argument("--injections", type=int, default=50,
                   help="unique single-bit flips per layer")
    p.add_argument("--batch", type=int, default=16,
                   help="validation samples per injected inference")
    group = p.add_argument_group("robust execution")
    group.add_argument("--workers", type=int, default=1,
                       help="worker processes (>= 2 enables the supervised "
                            "parallel executor; results are bit-identical "
                            "to serial)")
    group.add_argument("--journal", metavar="FILE", default=None,
                       help="write-ahead JSONL journal; re-running with the "
                            "same journal resumes past completed injections "
                            "(metadata campaigns use FILE.metadata)")
    group.add_argument("--shard-timeout", type=float, default=None,
                       help="seconds before a stuck shard attempt is killed "
                            "and retried (then quarantined)")
    group.add_argument("--fault-batch", type=_positive_int("--fault-batch"),
                       default=None,
                       help="independent neuron faults evaluated per "
                            "forward pass (fault-axis batching); records "
                            "stay bit-identical to --fault-batch 1 "
                            "(default: automatic, sized from the golden "
                            "recording; 1 for weight faults)")
    group.add_argument("--serve", metavar="HOST:PORT", default=None,
                       help="serve live observability while the campaign "
                            "runs: /metrics (Prometheus), /progress "
                            "(progress/v1 JSON: done/total, throughput, "
                            "ETA, in-flight SDC with Wilson CI), /healthz "
                            "and /events (SSE); watch it with "
                            "`repro watch HOST:PORT`")
    group.add_argument("--ledger", metavar="DB", default=None,
                       help="record this run (provenance + per-layer "
                            "outcomes) in the sqlite campaign ledger at DB "
                            "(default: $REPRO_LEDGER); browse with "
                            "`repro history`, compare with `repro diff`")
    _add_fault_args(p)
    p.add_argument("--numerics", action="store_true",
                   help="attach the numeric-health monitor (per-layer "
                        "quantization error, saturation / flush-to-zero / "
                        "NaN-remap counters, dynamic-range coverage); the "
                        "stats feed the metrics exporters and the summary "
                        "table printed after the campaign")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("harden", help="selective-hardening policy: rank "
                                      "layers by SDC reduction per "
                                      "protection bit")
    _add_model_args(p)
    p.add_argument("--format", default="bfp_e5m5_b16")
    p.add_argument("--location", default="neuron", choices=["neuron", "weight"])
    p.add_argument("--injections", type=int, default=50,
                   help="injections per layer for the ranking campaign")
    p.add_argument("--batch", type=int, default=16,
                   help="validation samples per injected inference")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the ranking campaign")
    _add_fault_args(p, default_protect="secded")
    p.add_argument("--budget-bits", type=_positive_int("--budget-bits"),
                   default=None, metavar="N",
                   help="total protection-storage budget; ranked layers are "
                        "selected greedily while they fit (default: "
                        "unbounded)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the harden/v1 JSON report to FILE")
    p.add_argument("--ledger", metavar="DB", default=None,
                   help="record the ranking campaign in the sqlite campaign "
                        "ledger at DB (default: $REPRO_LEDGER)")
    p.set_defaults(func=cmd_harden)

    p = sub.add_parser("attack", help="adversarial attack efficacy vs format (§V-D)")
    _add_model_args(p)
    p.add_argument("--attack", default="fgsm", choices=["fgsm", "pgd"])
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--format", nargs="+",
                   default=["native", "fp16", "fp8", "int8", "afp_e4m3"])
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("cost", help="MAC-count / bitwidth hardware cost proxy")
    _add_model_args(p)
    p.add_argument("--format", default="fp32", help="format spec to cost")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("mixed", help="greedy per-layer mixed-precision assignment")
    _add_model_args(p)
    p.add_argument("--cheap", default="fp_e4m3")
    p.add_argument("--expensive", default="fp16")
    p.add_argument("--threshold", type=float, default=0.01)
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("profile", help="per-layer phase profile "
                                       "(compute / quantize / inject / detect)")
    _add_model_args(p)
    p.add_argument("--format", default="bfp_e5m5_b16", help="format spec to profile")
    p.add_argument("--passes", type=int, default=3,
                   help="clean forward passes to profile")
    p.add_argument("--injections", type=int, default=8,
                   help="injections/layer exercising the inject phase (0 = skip)")
    p.add_argument("--batch", type=int, default=16,
                   help="samples per profiled forward pass")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("watch", help="terminal dashboard for a live --serve "
                                     "campaign (or a WAL journal file)")
    p.add_argument("target",
                   help="a /progress endpoint (HOST:PORT or http://...) or "
                        "a write-ahead journal file for crashed/remote runs")
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll interval in seconds (default 1.0)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no screen refresh)")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("ranges", help="dynamic range table (Table I)")
    p.add_argument("--format", nargs="*", help="format specs (default: all named)")
    p.set_defaults(func=cmd_ranges)

    p = sub.add_parser("sites", help="list the single-bit injection sites")
    p.add_argument("--kind", choices=["value", "metadata"], default=None)
    p.set_defaults(func=cmd_sites)

    p = sub.add_parser("report", help="render a campaign health report from "
                                      "metrics/trace artifacts")
    p.add_argument("--from-metrics", metavar="FILE", default=None,
                   help="metrics JSON written by --metrics-json")
    p.add_argument("--from-trace", metavar="FILE", default=None,
                   help="JSONL trace written by --trace")
    p.add_argument("--render", choices=["markdown", "html", "json"],
                   default="markdown", help="output format (default markdown)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the report to FILE instead of stdout")
    p.add_argument("--ledger", metavar="RUN_ID", type=int, default=None,
                   help="regenerate the report for a ledgered run (rows "
                        "from the ledger; numerics, cache and execution "
                        "from its linked artifacts when present)")
    p.add_argument("--ledger-db", metavar="DB", default=None,
                   help="campaign ledger to read for --ledger "
                        "(default: $REPRO_LEDGER)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("history", help="list ledgered campaign runs with "
                                       "per-format SDC trend sparklines")
    p.add_argument("--ledger", metavar="DB", default=None,
                   help="campaign ledger to read (default: $REPRO_LEDGER)")
    p.add_argument("--format", default=None,
                   help="only runs of this numeric format")
    p.add_argument("--fault-model", default=None,
                   help="only runs of this fault-model spec")
    p.add_argument("--kind", choices=["value", "metadata"], default=None,
                   help="only value / metadata campaigns")
    p.add_argument("--limit", type=_positive_int("--limit"), default=None,
                   metavar="N", help="show at most the N most recent runs")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("diff", help="compare two ledgered runs layer by "
                                    "layer (two-proportion significance "
                                    "test on the SDC rates)")
    p.add_argument("run_a", type=int, help="baseline run id (repro history)")
    p.add_argument("run_b", type=int, help="candidate run id")
    p.add_argument("--ledger", metavar="DB", default=None,
                   help="campaign ledger to read (default: $REPRO_LEDGER)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="significance level for the per-layer two-proportion "
                        "test (default 0.05)")
    p.add_argument("--gate", action="store_true",
                   help="exit non-zero when any layer shows a statistically "
                        "significant SDC regression (CI regression gate)")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable diff dict instead of "
                        "the table")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("timeline", help="export a run's hierarchical span "
                                        "trace as Chrome/Perfetto "
                                        "trace_event JSON")
    p.add_argument("run", type=int, nargs="?", default=None,
                   help="ledger run id whose linked --trace artifact to "
                        "convert (see repro history)")
    p.add_argument("--ledger", metavar="DB", default=None,
                   help="campaign ledger to read (default: $REPRO_LEDGER)")
    p.add_argument("--from-trace", metavar="FILE", default=None,
                   help="convert this JSONL trace file directly (no ledger "
                        "needed)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the trace_event JSON to FILE instead of "
                        "stdout")
    p.set_defaults(func=cmd_timeline)

    # every subcommand gets the observability surface
    for command_parser in sub.choices.values():
        _add_obs_args(command_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    registry = get_registry()
    tracer = configure_tracing(getattr(args, "trace", None), registry=registry)
    try:
        return args.func(args)
    except CampaignError as exc:
        # orchestration failures with a user-actionable cause (e.g. the
        # --serve address already bound) get a one-line error, not a trace
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # invalid flag combinations (fault model / protection / layers)
        # raise ValueError naming the valid values; present them like
        # argparse does instead of a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        metrics_json = getattr(args, "metrics_json", None)
        if metrics_json:
            write_json(metrics_json, registry)
        metrics_prom = getattr(args, "metrics_prom", None)
        if metrics_prom:
            atomic_write_text(metrics_prom, export_prometheus(registry))
        if tracer.enabled:
            tracer.close()
            set_tracer(NULL_TRACER)
        # the metrics artifact exists only now — point the ledger rows the
        # command recorded at it (best-effort; the run row already exists)
        run_ids = getattr(args, "_ledger_run_ids", None)
        ledger_path = (getattr(args, "ledger", None)
                       or os.environ.get("REPRO_LEDGER"))
        if run_ids and metrics_json and isinstance(ledger_path, str):
            try:
                with CampaignLedger(ledger_path) as ledger:
                    for run_id in run_ids:
                        ledger.link_artifacts(run_id,
                                              metrics_path=metrics_json)
            except Exception as exc:  # pragma: no cover - defensive
                logging.getLogger("repro.cli").warning(
                    "could not link metrics artifact in ledger: %s", exc)


if __name__ == "__main__":
    raise SystemExit(main())
