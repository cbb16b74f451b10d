"""The campaign ledger: persistent, queryable run history (``ledger/v1``).

Every campaign today ends as a pile of loose artifacts — metrics JSON,
trace JSONL, a write-ahead journal — with no store, no lineage and no way
to ask "did int8 SDC regress versus last week's run?".  The ledger is the
durable substrate underneath those artifacts: a stdlib-``sqlite3``
database recording every run's full provenance (campaign fingerprint,
format, fault model, protection, layers, seed, ``git describe``, wall
time, worker configuration) plus per-layer outcomes (injection counts,
SDC rates with Wilson confidence intervals, ΔLoss, resume-cache hit rate,
throughput) and pointers to the run's metrics/trace/journal artifacts.

:func:`repro.core.campaign.run_campaign` writes a row automatically at
the end of every run when a ledger is configured (the ``ledger=``
argument, the CLI's ``--ledger PATH``, or the ``REPRO_LEDGER``
environment variable).  Serial, parallel, fault-batched and
journal-resumed executions of the same campaign ledger identically — and
a *resumed* run (same fingerprint, same journal) updates its original
row rather than duplicating it, so an interrupt-resume cycle leaves
exactly one row whose counts match an uninterrupted run.

On top of the store sit three CLI surfaces:

* ``repro history`` — filterable run list with a sparkline SDC trend per
  format;
* ``repro diff RUN_A RUN_B`` — per-layer SDC deltas under a two-sided
  two-proportion z-test (:func:`repro.analysis.confidence
  .two_proportion_test`), with an exit-nonzero ``--gate`` mode for CI
  regression gating;
* ``repro timeline RUN`` — Chrome ``trace_event`` export of the run's
  linked trace (see :func:`repro.obs.export.build_chrome_trace`).

Schema (``ledger/v1``)
----------------------
``runs``
    one row per campaign: identity (``fingerprint_sha`` — the SHA-256 of
    the canonical campaign fingerprint JSON), configuration, outcome
    summary and artifact paths.
``run_layers``
    one row per (run, layer): injection count, fractional SDC success
    count, SDC rate with Wilson 95% CI, mismatch/ΔLoss statistics,
    wall-clock and sampling retries.

The ledger is an observability sink, never a dependency: every write
from the campaign runner is wrapped so a ledger failure can not fail the
campaign, and the write is timed into ``telemetry["ledger_seconds"]``
(budgeted at <1% of campaign wall time by
``benchmarks/bench_ledger.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import subprocess
import threading
import time

__all__ = [
    "LEDGER_SCHEMA",
    "CampaignLedger",
    "resolve_ledger",
    "diff_runs",
    "render_diff",
    "render_history",
    "sparkline",
]

LEDGER_SCHEMA = "ledger/v1"

_RUNS_COLUMNS = """
    run_id INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint_sha TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    kind TEXT NOT NULL,
    location TEXT NOT NULL,
    format TEXT NOT NULL,
    fault_model TEXT NOT NULL DEFAULT 'single',
    protect TEXT NOT NULL DEFAULT 'none',
    layers TEXT NOT NULL DEFAULT '[]',
    seed INTEGER NOT NULL DEFAULT 0,
    injections_per_layer INTEGER NOT NULL DEFAULT 0,
    num_bits INTEGER NOT NULL DEFAULT 1,
    workers INTEGER NOT NULL DEFAULT 1,
    fault_batch INTEGER NOT NULL DEFAULT 1,
    git_describe TEXT,
    started_at REAL,
    updated_at REAL,
    wall_seconds REAL NOT NULL DEFAULT 0.0,
    injections INTEGER NOT NULL DEFAULT 0,
    injections_per_sec REAL NOT NULL DEFAULT 0.0,
    golden_accuracy REAL,
    sdc_rate REAL NOT NULL DEFAULT 0.0,
    mismatch_rate REAL NOT NULL DEFAULT 0.0,
    mean_delta_loss REAL NOT NULL DEFAULT 0.0,
    resume_hit_rate REAL,
    journal_skipped INTEGER NOT NULL DEFAULT 0,
    quarantined INTEGER NOT NULL DEFAULT 0,
    interrupted INTEGER NOT NULL DEFAULT 0,
    resumes INTEGER NOT NULL DEFAULT 0,
    metrics_path TEXT,
    trace_path TEXT,
    journal_path TEXT
"""

_LAYERS_COLUMNS = """
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    layer TEXT NOT NULL,
    injections INTEGER NOT NULL DEFAULT 0,
    sdc_count REAL NOT NULL DEFAULT 0.0,
    sdc_rate REAL NOT NULL DEFAULT 0.0,
    sdc_lo REAL NOT NULL DEFAULT 0.0,
    sdc_hi REAL NOT NULL DEFAULT 1.0,
    mismatch_rate REAL NOT NULL DEFAULT 0.0,
    mean_delta_loss REAL NOT NULL DEFAULT 0.0,
    max_delta_loss REAL NOT NULL DEFAULT 0.0,
    seconds REAL NOT NULL DEFAULT 0.0,
    retries INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, layer)
"""


def fingerprint_sha(fingerprint: dict) -> str:
    """SHA-256 of the canonical (sorted-key) fingerprint JSON."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_git_describe_cache: str | None | bool = False  # False = not yet probed


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the working tree (cached).

    Provenance, not identity: the fingerprint identifies the campaign,
    the describe string records which code produced it.  Returns None
    outside a git checkout (or without a ``git`` binary).
    """
    global _git_describe_cache
    if _git_describe_cache is False:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=5.0, check=False)
            text = out.stdout.strip()
            _git_describe_cache = text if out.returncode == 0 and text else None
        except (OSError, subprocess.SubprocessError):
            _git_describe_cache = None
    return _git_describe_cache


class CampaignLedger:
    """A sqlite-backed store of campaign runs (schema ``ledger/v1``).

    Thread-safe (one connection guarded by a lock — campaign writes are
    rare and tiny) and safe to open concurrently from several processes:
    sqlite serializes writers at the file level.
    """

    def __init__(self, path: str):
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, timeout=30.0,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock, self._conn:
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS runs ({_RUNS_COLUMNS})")
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS run_layers ({_LAYERS_COLUMNS})")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT)")
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema", LEDGER_SCHEMA))
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_runs_fingerprint "
                "ON runs (fingerprint_sha)")

    # -- writes --------------------------------------------------------

    def record_campaign(self, result, *, started_at: float | None = None,
                        trace_path: str | None = None,
                        metrics_path: str | None = None) -> int:
        """Insert (or, for a resumed journal, update) one campaign row.

        ``result`` is a :class:`repro.core.campaign.CampaignResult`: the
        campaign's identity comes from its ``fingerprint``, its worker count
        and resolved fault-batch lane count (the largest chunk any layer
        ran, 1 when nothing batched; see ``ExecConfig.fault_batch``) from
        its ``telemetry``, and each layer's SDC interval is the fold's own
        ``sdc_ci95``.  A row with the same
        ``fingerprint_sha`` *and* the same journal path is the same logical
        run resumed — it is updated in place (``resumes`` incremented) so
        interrupt/resume cycles never duplicate history.  Runs without a
        journal always insert.
        """
        from ..core.resume import hit_rate

        fingerprint = result.fingerprint
        telemetry = result.telemetry or {}
        sha = fingerprint_sha(fingerprint)
        total_inj = sum(r.injections for r in result.per_layer.values())
        resume_hit_rate = None
        if result.resume_stats:
            hits = float(result.resume_stats.get("hits", 0))
            misses = float(result.resume_stats.get("misses", 0))
            if hits + misses > 0:  # NULL, not 0.0, when nothing was looked up
                resume_hit_rate = hit_rate(hits, misses)
        run_values = {
            "fingerprint_sha": sha,
            "fingerprint": json.dumps(fingerprint, sort_keys=True,
                                      default=str),
            "kind": result.kind,
            "location": result.location,
            "format": result.format_name,
            "fault_model": str(fingerprint.get("fault", "single")),
            "protect": str(fingerprint.get("protect", "none")),
            "layers": json.dumps(list(fingerprint["layers"])),
            "seed": int(fingerprint["seed"]),
            "injections_per_layer": int(fingerprint["injections_per_layer"]),
            "num_bits": int(fingerprint["num_bits"]),
            "workers": int(telemetry.get("workers", 1)),
            "fault_batch": int(telemetry.get("fault_batch", 1)),
            "git_describe": git_describe(),
            "started_at": float(started_at if started_at is not None
                                else time.time()),
            "updated_at": time.time(),
            "wall_seconds": float(telemetry.get("wall_seconds", 0.0)),
            "injections": int(total_inj),
            "injections_per_sec": float(
                telemetry.get("injections_per_sec", 0.0)),
            "golden_accuracy": float(result.golden_accuracy),
            "sdc_rate": float(_mean([r.sdc_rate
                                     for r in result.per_layer.values()])),
            "mismatch_rate": float(result.mean_mismatch_rate()),
            "mean_delta_loss": float(result.mean_delta_loss()),
            "resume_hit_rate": resume_hit_rate,
            "journal_skipped": int(telemetry.get("journal_skipped", 0)),
            "quarantined": len(result.quarantined or ()),
            "interrupted": int(bool(result.interrupted)),
            "metrics_path": metrics_path,
            "trace_path": trace_path,
            "journal_path": result.journal_path,
        }
        layer_rows = []
        for name, r in result.per_layer.items():
            successes = r.sdc_rate * r.injections
            lo, hi = r.sdc_ci95
            layer_rows.append({
                "layer": name,
                "injections": int(r.injections),
                "sdc_count": float(successes),
                "sdc_rate": float(r.sdc_rate),
                "sdc_lo": float(lo),
                "sdc_hi": float(hi),
                "mismatch_rate": float(r.mismatch_rate),
                "mean_delta_loss": float(r.mean_delta_loss),
                "max_delta_loss": float(r.max_delta_loss),
                "seconds": float(r.seconds),
                "retries": int(r.retries),
            })
        with self._lock, self._conn:
            run_id = None
            if result.journal_path is not None:
                row = self._conn.execute(
                    "SELECT run_id, resumes FROM runs WHERE "
                    "fingerprint_sha = ? AND journal_path = ? "
                    "ORDER BY run_id DESC LIMIT 1",
                    (sha, result.journal_path)).fetchone()
                if row is not None:
                    run_id = int(row["run_id"])
                    update = dict(run_values)
                    # the original row's start and artifact links survive a
                    # resume unless the resumed run brings fresh ones
                    update.pop("started_at")
                    update["resumes"] = int(row["resumes"]) + 1
                    for key in ("metrics_path", "trace_path"):
                        if update[key] is None:
                            update.pop(key)
                    assign = ", ".join(f"{k} = ?" for k in update)
                    self._conn.execute(
                        f"UPDATE runs SET {assign} WHERE run_id = ?",
                        (*update.values(), run_id))
                    self._conn.execute(
                        "DELETE FROM run_layers WHERE run_id = ?", (run_id,))
            if run_id is None:
                cols = ", ".join(run_values)
                marks = ", ".join("?" for _ in run_values)
                cursor = self._conn.execute(
                    f"INSERT INTO runs ({cols}) VALUES ({marks})",
                    tuple(run_values.values()))
                run_id = int(cursor.lastrowid)
            for layer_row in layer_rows:
                cols = ", ".join(("run_id", *layer_row))
                marks = ", ".join("?" for _ in range(len(layer_row) + 1))
                self._conn.execute(
                    f"INSERT INTO run_layers ({cols}) VALUES ({marks})",
                    (run_id, *layer_row.values()))
        return run_id

    def link_artifacts(self, run_id: int, *, metrics_path: str | None = None,
                       trace_path: str | None = None,
                       journal_path: str | None = None) -> None:
        """Point a run at its exported artifacts (written after the run)."""
        updates = {k: v for k, v in (("metrics_path", metrics_path),
                                     ("trace_path", trace_path),
                                     ("journal_path", journal_path))
                   if v is not None}
        if not updates:
            return
        assign = ", ".join(f"{k} = ?" for k in updates)
        with self._lock, self._conn:
            self._conn.execute(
                f"UPDATE runs SET {assign}, updated_at = ? WHERE run_id = ?",
                (*updates.values(), time.time(), int(run_id)))

    # -- queries -------------------------------------------------------

    def runs(self, *, format: str | None = None,  # noqa: A002 - CLI mirror
             fault_model: str | None = None, kind: str | None = None,
             limit: int | None = None) -> list[dict]:
        """Run rows (newest first), optionally filtered."""
        clauses, params = [], []
        if format is not None:
            clauses.append("format = ?")
            params.append(format)
        if fault_model is not None:
            clauses.append("fault_model = ?")
            params.append(fault_model)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        tail = f" LIMIT {int(limit)}" if limit is not None else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT * FROM runs{where} ORDER BY run_id DESC{tail}",
                params).fetchall()
        return [dict(r) for r in rows]

    def get_run(self, run_id: int) -> dict | None:
        """One run row (plus its ``layers`` list), or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?",
                (int(run_id),)).fetchone()
            if row is None:
                return None
            layers = self._conn.execute(
                "SELECT * FROM run_layers WHERE run_id = ? ORDER BY layer",
                (int(run_id),)).fetchall()
        run = dict(row)
        run["layers_detail"] = [dict(r) for r in layers]
        return run

    def schema_version(self) -> str:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'").fetchone()
        return row["value"] if row is not None else LEDGER_SCHEMA

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CampaignLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve_ledger(spec) -> tuple[CampaignLedger | None, bool]:
    """``(ledger, owns)`` for a ``ledger=`` argument.

    ``spec`` may be a :class:`CampaignLedger` (used as-is, caller keeps
    ownership), a path (opened here; ``owns`` is True so the campaign
    closes it), or None — in which case the ``REPRO_LEDGER`` environment
    variable supplies a path, and an unset variable means "no ledger".
    """
    if isinstance(spec, CampaignLedger):
        return spec, False
    if spec is None:
        spec = os.environ.get("REPRO_LEDGER") or None
    if spec is None:
        return None, False
    return CampaignLedger(str(spec)), True


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# cross-campaign diff
# ----------------------------------------------------------------------
def diff_runs(ledger: CampaignLedger, run_a: int, run_b: int,
              alpha: float = 0.05) -> dict:
    """Per-layer SDC comparison of two ledger runs.

    Each layer present in either run is tested with the two-sided pooled
    two-proportion z-test (:func:`repro.analysis.confidence
    .two_proportion_test`) on its fractional SDC success counts; a delta
    is *significant* when ``p < alpha``.  A significant increase from A
    to B is a **regression**, a significant decrease an improvement —
    the split ``repro diff --gate`` exits nonzero on.
    """
    from ..analysis.confidence import two_proportion_test

    a = ledger.get_run(run_a)
    b = ledger.get_run(run_b)
    if a is None or b is None:
        missing = run_a if a is None else run_b
        raise KeyError(f"ledger has no run {missing}")
    layers_a = {r["layer"]: r for r in a["layers_detail"]}
    layers_b = {r["layer"]: r for r in b["layers_detail"]}
    rows = []
    for layer in sorted(set(layers_a) | set(layers_b)):
        la, lb = layers_a.get(layer), layers_b.get(layer)
        s_a = la["sdc_count"] if la else 0.0
        n_a = la["injections"] if la else 0
        s_b = lb["sdc_count"] if lb else 0.0
        n_b = lb["injections"] if lb else 0
        z, p = two_proportion_test(s_a, n_a, s_b, n_b)
        rate_a = s_a / n_a if n_a else 0.0
        rate_b = s_b / n_b if n_b else 0.0
        rows.append({
            "layer": layer,
            "injections_a": int(n_a), "injections_b": int(n_b),
            "sdc_a": rate_a, "sdc_b": rate_b,
            "delta": rate_b - rate_a,
            "z": z, "p": p,
            "significant": bool(p < alpha and n_a > 0 and n_b > 0),
        })
    regressions = [r["layer"] for r in rows
                   if r["significant"] and r["delta"] > 0]
    improvements = [r["layer"] for r in rows
                    if r["significant"] and r["delta"] < 0]
    return {
        "schema": LEDGER_SCHEMA,
        "run_a": int(run_a), "run_b": int(run_b),
        "format_a": a["format"], "format_b": b["format"],
        "fingerprint_match": a["fingerprint_sha"] == b["fingerprint_sha"],
        "alpha": float(alpha),
        "layers": rows,
        "significant": sorted(regressions + improvements),
        "regressions": regressions,
        "improvements": improvements,
    }


def render_diff(diff: dict) -> str:
    """Human-readable per-layer diff table."""
    header = (f"run {diff['run_a']} ({diff['format_a']}) vs "
              f"run {diff['run_b']} ({diff['format_b']})  "
              f"alpha={diff['alpha']:g}  fingerprint "
              f"{'match' if diff['fingerprint_match'] else 'DIFFERS'}")
    lines = [header,
             f"{'layer':<28} {'n(A)':>6} {'n(B)':>6} {'SDC(A)':>8} "
             f"{'SDC(B)':>8} {'delta':>8} {'p':>8}  verdict"]
    for row in diff["layers"]:
        verdict = "-"
        if row["significant"]:
            verdict = "REGRESSION" if row["delta"] > 0 else "improved"
        lines.append(
            f"{row['layer']:<28} {row['injections_a']:>6} "
            f"{row['injections_b']:>6} {row['sdc_a']:>8.4f} "
            f"{row['sdc_b']:>8.4f} {row['delta']:>+8.4f} "
            f"{row['p']:>8.3g}  {verdict}")
    n_reg, n_imp = len(diff["regressions"]), len(diff["improvements"])
    lines.append(f"{n_reg} regression(s), {n_imp} improvement(s) at "
                 f"alpha={diff['alpha']:g}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# history rendering
# ----------------------------------------------------------------------
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values) -> str:
    """Unicode block sparkline of ``values`` (empty string when empty)."""
    values = [float(v) for v in values]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if not math.isfinite(lo) or not math.isfinite(hi) or hi == lo:
        return _SPARK_BLOCKS[3] * len(values)
    scale = (len(_SPARK_BLOCKS) - 1) / (hi - lo)
    return "".join(_SPARK_BLOCKS[int(round((v - lo) * scale))]
                   for v in values)


def render_history(ledger: CampaignLedger, *, format: str | None = None,  # noqa: A002
                   fault_model: str | None = None, kind: str | None = None,
                   limit: int | None = None) -> str:
    """The ``repro history`` listing: run table + per-format SDC trend."""
    rows = ledger.runs(format=format, fault_model=fault_model, kind=kind,
                       limit=limit)
    if not rows:
        return "ledger is empty (no matching runs)"
    lines = [f"{'run':>4}  {'when':<16} {'format':<12} {'kind':<8} "
             f"{'fault':<10} {'protect':<8} {'inj':>6} {'SDC':>8} "
             f"{'inj/s':>8}  flags"]
    for row in rows:
        when = time.strftime("%Y-%m-%d %H:%M",
                             time.localtime(row["started_at"] or 0))
        flags = []
        if row["interrupted"]:
            flags.append("interrupted")
        if row["resumes"]:
            flags.append(f"resumed x{row['resumes']}")
        if row["quarantined"]:
            flags.append(f"quarantined={row['quarantined']}")
        lines.append(
            f"{row['run_id']:>4}  {when:<16} {row['format']:<12} "
            f"{row['kind']:<8} {row['fault_model']:<10} "
            f"{row['protect']:<8} {row['injections']:>6} "
            f"{row['sdc_rate']:>8.4f} {row['injections_per_sec']:>8.1f}  "
            f"{' '.join(flags) or '-'}")
    # chronological per-format trend (the table above is newest-first)
    by_format: dict[str, list] = {}
    for row in reversed(rows):
        by_format.setdefault(row["format"], []).append(row["sdc_rate"])
    lines.append("")
    lines.append("SDC trend per format (oldest → newest):")
    for fmt in sorted(by_format):
        series = by_format[fmt]
        lines.append(f"  {fmt:<12} {sparkline(series)}  "
                     f"({len(series)} run(s), "
                     f"{series[0]:.4f} → {series[-1]:.4f})")
    return "\n".join(lines)
