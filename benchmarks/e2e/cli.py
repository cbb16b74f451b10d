"""Command line of the end-to-end benchmark (see ``README.md``).

``run`` drives one workload (or all) as a closed loop with one client:
each timed repetition starts only after the previous one returned.  A run
is :data:`SESSIONS` fresh subprocesses in turn; each sets up (timed as
``setup_s``), warms up untimed, then repeats the workload for its share
of ``--seconds``.  Before each session a set-up probe (a fresh subprocess
that only sets up) adds :data:`PROBES_PER_SESSION` more ``setup_s``
samples.  Every end-to-end metric is reported as median / min / max over
its samples.  ``--trace`` adds one traced session with a single
repetition for the per-layer table.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BASELINE = HERE / "baseline.json"

#: fresh subprocesses per run; they share its seconds
SESSIONS = 5
#: set-up-only subprocesses before each session: set-up varies more from
#: process to process than the work does, so it gets more samples
PROBES_PER_SESSION = 1
#: runs of every workload in each of the baseline's two sets: one run's
#: median moves with the machine's slow periods more than the bounds allow
BASELINE_RUNS = 3
#: a run ends within 180 s: a session still running RUN_LIMIT_S after the
#: workload started is killed (and counted as failed)
RUN_LIMIT_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    # the weight cache and every artifact stay inside the checkout
    env["REPRO_CACHE_DIR"] = str(OUT / "weights")
    env.pop("REPRO_LEDGER", None)
    # the ledger's `git describe` must not search above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _spawn(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run ``run.py <args>`` in its own process group; (result, error).

    The result is the JSON object on the child's last stdout line; a
    session's ``setup_s`` runs from the spawn to its ``ready_mono`` (the
    monotonic clock is system-wide on Linux).  The whole group (the child
    and any campaign workers) is killed on timeout, and again after a
    clean exit in case a worker outlived its parent; shared-memory
    segments the child published and did not release are then removed.
    """
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    error = ""
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _unlink_segments_of(proc.pid)
    if error:
        proc.communicate()
        return None, error
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return None, f"exit {proc.returncode}: {tail}"
    result = json.loads(lines[-1])
    if "ready_mono" in result:
        result["setup_s"] = result.pop("ready_mono") - t0
    return result, ""


def _unlink_segments_of(pid: int) -> None:
    """Remove the golden-cache segments process ``pid`` left in /dev/shm.

    The platform names a segment after the pid that published it; a
    session killed on timeout (or one that leaked, which its result
    reports) would otherwise leave them behind for good.
    """
    from repro.exec.shmcache import SEGMENT_PREFIX
    shm = Path("/dev/shm")
    for path in shm.glob(f"{SEGMENT_PREFIX}{pid}-*") if shm.is_dir() else ():
        try:
            path.unlink()
        except OSError:
            pass


def prepare() -> dict:
    """Train missing weights (untimed); returns the children's environment."""
    result, error = _spawn(["prepare"], timeout=900.0)
    if result is None:
        raise SystemExit(f"prepare failed: {error}")
    return result


def _median(values):
    return statistics.median(values) if values else float("nan")


def spread(values) -> float:
    """Inter-quartile range as a share of the median (0 below 2 samples).

    Quartiles interpolate between samples ("inclusive"): with a handful
    of samples the default method returns values close to min and max.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def measure(name: str, seed: int, seconds: float, quick: bool,
            trace: bool) -> dict:
    """The probes and sessions of one workload, then (``trace``) one traced
    session.  Probes are spread over the run, one before each session, so
    the ``setup_s`` median sees the same machine as the work does."""
    deadline = time.monotonic() + RUN_LIMIT_S
    flags = ["--workload", name, "--seed", str(seed)]
    flags += ["--quick"] if quick else []
    count, probes = (1, 0) if quick else (SESSIONS, PROBES_PER_SESSION)
    run = {"sessions": [], "probes": [], "traced": None, "errors": []}

    def spawn(kind: str, args: list[str]) -> dict | None:
        left = deadline - time.monotonic()
        result, error = (_spawn(["session", *flags, *args], left) if left > 0
                         else (None, "not started: run time limit reached"))
        if result is None:
            run["errors"].append(f"{kind}: {error}")
        return result

    share = 0 if quick else seconds / count
    for _ in range(count):
        for _ in range(probes):
            probe = spawn("set-up probe", ["--seconds", "0", "--setup-only"])
            if probe is not None:
                run["probes"].append(probe)
        session = spawn("session", ["--seconds", str(share)])
        if session is not None:
            run["sessions"].append(session)
    if trace:
        run["traced"] = spawn("traced session", ["--seconds", "0", "--trace"])
    return run


def judge(run: dict, reference: str | None) -> dict:
    """Correctness gate and failure accounting for one workload's run.

    Every repetition must produce the same digest (the reference one when
    ``reference.json`` knows this seed), complete every planned unit and
    leave no shared-memory segment behind; a repetition that does not
    counts all its planned units as failed, a crashed session or probe
    one repetition's worth.
    """
    sessions = run["sessions"] + ([run["traced"]] if run["traced"] else [])
    reps = [rep for session in sessions for rep in session["reps"]]
    digests = Counter(rep["digest"] for rep in reps)
    expected = reference or (digests.most_common(1)[0][0] if digests else "")
    per_crash = max((rep["planned"] for rep in reps), default=1)
    checks = list(run["errors"])
    attempted = failed = per_crash * len(run["errors"])
    for probe in run["probes"]:
        if probe["shm_leaks"]:
            checks.append(f"set-up probe left shared memory: "
                          f"{probe['shm_leaks']}")
    for session in sessions:
        label = "traced session" if session is run["traced"] else "session"
        if session["shm_leaks"]:
            checks.append(f"{label} left shared memory: "
                          f"{session['shm_leaks']}")
        for rep in session["reps"]:
            attempted += rep["planned"]
            lost = rep["planned"] - rep["completed"]
            if rep["digest"] != expected:
                checks.append(f"{label} digest {rep['digest'][:12]} != "
                              f"{'reference' if reference else 'majority'} "
                              f"{expected[:12]}")
                lost = rep["planned"]
            elif session["shm_leaks"]:
                lost = rep["planned"]
            elif lost:
                checks.append(f"{label} completed {rep['completed']} of "
                              f"{rep['planned']}")
            failed += lost
    return {"correct": not checks and bool(run["sessions"]), "checks": checks,
            "attempted": max(attempted, 1), "failed": failed,
            "digest": expected}


def _work_per_s(session: dict) -> list[float]:
    return [rep["items"] / rep["work_s"] for rep in session["reps"]]


def summarize(run: dict, verdict: dict, spec: dict) -> dict:
    sessions = run["sessions"]
    samples = {
        "work_per_s": [v for s in sessions for v in _work_per_s(s)],
        "setup_s": [s["setup_s"] for s in sessions + run["probes"]],
        "peak_rss_mb": [s["peak_rss_mb"] for s in sessions],
    }
    metrics = {}
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        metrics[m["name"]] = {
            "unit": m["unit"], "median": _median(values),
            "min": min(values, default=float("nan")),
            "max": max(values, default=float("nan")),
            "n": len(values), "samples": values}
    out = {"metrics": metrics, **verdict,
           "fail_frac": verdict["failed"] / verdict["attempted"],
           "sessions": sessions, "probes": run["probes"]}
    traced = run["traced"]
    if traced is not None:
        layer = dict(traced["per_layer"])
        out["traced"] = {k: v for k, v in traced.items() if k != "per_layer"}
        untraced = metrics["work_per_s"]["median"]
        layer["trace.overhead_frac"] = (
            1.0 - _work_per_s(traced)[0] / untraced if sessions else 0.0)
        out["per_layer"] = layer
    return out


def _table(rows: list[tuple]) -> str:
    widths = [max(len(str(row[i])) for row in rows)
              for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                     for row in rows)


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_workload(name: str, result: dict) -> None:
    from .attribution import PER_LAYER
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"\n== {name}: {status}, failed {result['failed']} of "
          f"{result['attempted']} (fail_frac {result['fail_frac']:.4g}), "
          f"digest {str(result['digest'])[:16]}")
    for check in result["checks"]:
        print(f"   ! {check}")
    rows = [("metric", "unit", "median", "min", "max", "n")]
    for metric, m in result["metrics"].items():
        rows.append((metric, m["unit"], _fmt(m["median"]), _fmt(m["min"]),
                     _fmt(m["max"]), m["n"]))
    print(_table(rows))
    if "per_layer" in result:
        rows = [("per-layer metric", "unit", "value", "measures")]
        rows += [(metric, unit, _fmt(result["per_layer"][metric]), what)
                 for metric, unit, what in PER_LAYER]
        print(_table(rows))


def collect(names, seed: int, seconds: float, quick: bool, trace: bool,
            update_reference: bool = False) -> dict:
    spec = load_spec()
    env = prepare()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    mode = "quick" if quick else "full"
    results = {}
    for name in names:
        run = measure(name, seed, seconds, quick, trace)
        known = None if update_reference else (
            reference.get(mode, {}).get(name, {}).get(str(seed)))
        results[name] = summarize(run, judge(run, known), spec)
        if update_reference and results[name]["correct"]:
            reference.setdefault(mode, {}).setdefault(name, {})[str(seed)] = \
                results[name]["digest"]
    if update_reference:
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                             + "\n")
    return {"schema": "e2e/v1", "seed": seed, "mode": mode, "env": env,
            "workloads": results}


def result_line(results: dict, trace: bool, spec: dict) -> dict:
    """The driver-facing JSON object (flat metric names for one workload).

    With ``trace`` it carries the per-layer metrics ``BENCHMARK.json``
    lists, with their units from :data:`attribution.PER_LAYER`.
    """
    from .attribution import PER_LAYER
    single = len(results) == 1
    metrics = {}
    catalogue = {metric: unit for metric, unit, _ in PER_LAYER}
    units = {m["name"]: catalogue[m["name"]] for m in spec["per_layer"]}
    for name, result in results.items():
        prefix = "" if single else f"{name}/"
        if trace:
            for metric, unit in units.items():
                metrics[prefix + metric] = {
                    "value": result.get("per_layer", {}).get(metric,
                                                             float("nan")),
                    "unit": unit}
        else:
            for metric, m in result["metrics"].items():
                metrics[prefix + metric] = {"value": m["median"],
                                            "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


def cmd_run(args) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    report = collect(names, args.seed, seconds, args.quick, bool(args.trace),
                     args.update_reference)
    for name, result in report["workloads"].items():
        print_workload(name, result)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    line = result_line(report["workloads"], bool(args.trace), spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _reports(data: dict) -> list[dict]:
    """The run reports in a result file: one run, a set, or a baseline."""
    if "sets" in data:
        return [report for s in data["sets"] for report in _reports(s)]
    return data.get("runs", [data])


def _samples(reports: list[dict]) -> dict:
    """workload -> fail_frac and metric -> samples, pooled over runs."""
    pooled: dict = {}
    for report in reports:
        for name, result in report["workloads"].items():
            entry = pooled.setdefault(name, {"fail_frac": 0.0, "metrics": {}})
            entry["fail_frac"] = max(entry["fail_frac"], result["fail_frac"])
            for metric, m in result["metrics"].items():
                entry["metrics"].setdefault(metric, []).extend(m["samples"])
    return pooled


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change of B's median against A's)."""
    ma, mb = statistics.median(a), statistics.median(b)
    delta = (mb - ma) / abs(ma)
    worse = delta if better == "lower" else -delta
    b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if worse > bound:
        return "regressed", delta
    if max(spread(a), spread(b)) > bound:
        return ("improved" if b_wins else "unresolved"), delta
    return ("improved" if -worse > bound else "unchanged"), delta


COMPARE_HEADER = ("workload", "metric", "A median [min, max]",
                  "B median [min, max]", "delta", "bound", "verdict")


def compare(a: list[dict], b: list[dict], spec: dict) -> list[tuple]:
    """One row per (workload, metric) of two lists of run reports."""
    a, b = _samples(a), _samples(b)
    rows = []
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a or name not in b:
            continue
        for m in spec["end_to_end"]:
            sa = a[name]["metrics"][m["name"]]
            sb = b[name]["metrics"][m["name"]]
            v, delta = verdict(sa, sb, m["better"], m["bound"])
            rows.append((name, m["name"],
                         f"{_fmt(statistics.median(sa))} "
                         f"[{_fmt(min(sa))}, {_fmt(max(sa))}]",
                         f"{_fmt(statistics.median(sb))} "
                         f"[{_fmt(min(sb))}, {_fmt(max(sb))}]",
                         f"{100 * delta:+.1f}%",
                         f"{100 * m['bound']:.0f}%", v))
        fa, fb = a[name]["fail_frac"], b[name]["fail_frac"]
        rows.append((name, "fail_frac", _fmt(fa), _fmt(fb), "", "0",
                     "regressed" if fb > fa else "unchanged"))
    return rows


def cmd_compare(args) -> int:
    rows = compare(_reports(json.loads(Path(args.a).read_text())),
                   _reports(json.loads(Path(args.b).read_text())),
                   load_spec())
    print(_table([COMPARE_HEADER, *rows]))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


def set_gaps(sets: list[list[dict]], spec: dict) -> dict:
    """metric -> twice the largest relative gap between the sets' medians."""
    pooled = [_samples(reports) for reports in sets]
    gaps = {}
    for m in spec["end_to_end"]:
        gap = 0.0
        for name in pooled[0]:
            medians = [statistics.median(p[name]["metrics"][m["name"]])
                       for p in pooled]
            gap = max(gap, abs(medians[0] - medians[1])
                      / statistics.mean(medians))
        gaps[m["name"]] = 2 * gap
    return gaps


def cmd_baseline(args) -> int:
    """Two seed-0 sets of every workload, with the bounds they imply.

    A set is :data:`BASELINE_RUNS` runs of every workload, taken
    round-robin; compare pools their samples.  The two sets' runs are
    taken in pairs that alternate which set goes first, as a comparison of
    a parent with a change would be, so that a slow period of the machine
    lands on both sets.  The baseline is accepted only when every run is
    correct, every bound in ``BENCHMARK.json`` is at least twice the gap
    between the two sets' medians, and comparing set A with set B finds
    nothing regressed or unresolved.  A rejected baseline goes to ``out/``
    instead.
    """
    from repro.obs.ledger import git_describe
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    sets = [[], []]
    for k in range(BASELINE_RUNS):
        for reports in (sets if k % 2 == 0 else sets[::-1]):
            reports.append(collect(names, 0, spec["run_seconds"], False,
                                   False))
    gaps = set_gaps(sets, spec)
    rows = compare(*sets, spec)
    print(_table([COMPARE_HEADER, *rows]))
    problems = [f"{name} incorrect: {r['workloads'][name]['checks']}"
                for reports in sets for r in reports for name in names
                if not r["workloads"][name]["correct"]]
    problems += [f"{m['name']}: bound {m['bound']} < twice the set gap "
                 f"{gaps[m['name']]:.4f}" for m in spec["end_to_end"]
                 if m["bound"] < gaps[m["name"]]]
    problems += [f"set B against set A: {row[0]} {row[1]} {row[-1]}"
                 for row in rows if row[-1] in ("regressed", "unresolved")]
    env = dict(sets[0][0]["env"], git_describe=git_describe())
    bounds = {m["name"]: {"bound": m["bound"],
                          "two_x_set_gap": gaps[m["name"]]}
              for m in spec["end_to_end"]}
    path = OUT / "baseline-rejected.json" if problems else BASELINE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": "e2e-baseline/v2", "env": env, "bounds": bounds,
         "sets": [{"runs": reports} for reports in sets]}, indent=2) + "\n")
    for problem in problems:
        print(f"   ! {problem}")
    print(f"wrote {path}")
    return 1 if problems else 0


def cmd_prepare(args) -> int:
    import numpy as np

    from .workloads import prepare as train_missing
    train_missing()
    blas = {var: os.environ[var] for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if var in os.environ}
    print(json.dumps({"cpu_count": os.cpu_count(), "numpy": np.__version__,
                      "python": sys.version.split()[0],
                      "blas_threads": blas or "runtime default"}))
    return 0


def cmd_session(args) -> int:
    """One session: set-up, untimed warm-up, timed repetitions.

    Repetitions fill ``--seconds`` (at least one); a traced session runs
    exactly one, a set-up probe (``--setup-only``) none.  Shared-memory
    segments that appeared during the session and are still present at
    its end are reported as leaked; segments other processes hold are not.
    """
    import resource

    from . import workloads
    sink = None
    if args.trace:
        from . import attribution
        sink = attribution.install()
    from repro.exec.shmcache import live_segments
    from repro.obs.tracing import get_tracer
    tracer = get_tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    foreign = set(live_segments())
    reps, walls = [], []
    try:
        with tracer.span("bench.setup"):
            workload.setup()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_mono": ready, "shm_leaks": sorted(
                set(live_segments()) - foreign)}))
            return 0
        with tracer.span("bench.warmup"):
            workload.warmup()
        start = time.monotonic()
        # stop where the next repetition would end closer past the budget
        # than short of it, so the measured time averages to --seconds
        while not reps or (time.monotonic() - start
                           + statistics.median(walls) / 2 < args.seconds):
            t0 = time.monotonic()
            with tracer.span("bench.rep"):
                reps.append(workload.run(len(reps)))
            walls.append(time.monotonic() - t0)
            if len(reps) == 1:
                # the peak through one repetition, as one campaign or search
                # sees it: later ones would tie it to how many reps fit
                rss_kib = max(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    finally:
        workload.close()
    result = {"ready_mono": ready, "peak_rss_mb": rss_kib / 1024.0,
              "shm_leaks": sorted(set(live_segments()) - foreign),
              "reps": [{"items": o.items, "work_s": o.work_s,
                        "planned": o.planned, "completed": o.completed,
                        "digest": o.digest} for o in reps]}
    if sink is not None:
        from repro.obs import build_chrome_trace

        from .attribution import per_layer
        result["per_layer"] = per_layer(sink.events, reps[0].facts,
                                        workload.workers)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(
            build_chrome_trace(sink.events, label=args.workload)))
    print(json.dumps(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark of the GoldenEye reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads and check outputs")
    run.add_argument("--workload", action="append", default=None,
                     help="workload name (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0,
                     help="picks the evaluation batch and campaign seed")
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per workload "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="add a traced session; the result line then "
                          "carries the per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="one reduced-size repetition per workload")
    run.add_argument("--out", help="write the full result JSON here")
    run.add_argument("--update-reference", action="store_true",
                     help="record this run's digests in reference.json "
                          "(for intentional changes to the science)")
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="compare two result files")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.set_defaults(func=cmd_compare)
    base = sub.add_parser("baseline",
                          help=f"measure two seed-0 sets into {BASELINE.name}")
    base.set_defaults(func=cmd_baseline)
    prep = sub.add_parser("prepare", help="train missing model weights")
    prep.set_defaults(func=cmd_prepare)
    session = sub.add_parser("session", help="one session (internal)")
    session.add_argument("--workload", required=True)
    session.add_argument("--seed", type=int, required=True)
    session.add_argument("--seconds", type=float, required=True)
    session.add_argument("--quick", action="store_true")
    session.add_argument("--trace", action="store_true")
    session.add_argument("--setup-only", action="store_true")
    session.set_defaults(func=cmd_session)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no platform sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    return args.func(args)
