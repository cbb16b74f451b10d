"""``repro.exec`` — the crash-safe parallel campaign executor.

GoldenEye's headline experiments are large fault-injection campaigns
("1000 unique single-bit flip injections for each of data and metadata at a
layer granularity", §IV-C); this package makes them survivable and parallel:

* :mod:`repro.exec.journal` — write-ahead JSONL journal.  Every completed
  injection record is flushed *before* aggregation, so a crashed / OOM-killed
  / Ctrl-C'd campaign resumes by skipping journaled work and reproduces the
  identical aggregate (torn tail lines from a mid-write kill are tolerated).
* :mod:`repro.exec.shard` — the shard protocol: a campaign is split into
  per-layer / per-chunk work units referencing the deterministically sampled
  plan sequence by ``(layer, seq)``.
* :mod:`repro.exec.worker` — the fork-based worker loop: adopts the
  activation cache it inherited from the parent (the golden prefix is
  recorded once and the pool replays the parent's physical pages), caps
  the OpenBLAS pool numpy loaded at its share of the CPUs, streams completed
  injections in batched record frames (doubling as heartbeats), and
  reports failures instead of dying silently.
* :mod:`repro.exec.shmcache` — a golden cache packed into one shared-memory
  segment.  No campaign publishes one; the end-to-end benchmark still
  imports the module.
* :mod:`repro.exec.supervisor` — the supervisor: dispatches shards to a
  worker pool, enforces per-shard timeouts, retries failed shards with
  exponential backoff, **quarantines** poison shards after the retry budget,
  detects dead workers (reassigning their orphaned shards to survivors and
  respawning replacements), and shuts down cleanly on SIGINT/SIGTERM with a
  flushed journal and a partial, resumable result.

Because plan sampling is decoupled from execution and aggregation folds
records in plan order (see :mod:`repro.core.campaign`), parallel campaigns
are **bit-identical** to serial ones — the acceptance bar this package is
tested against.
"""

from .journal import CampaignJournal, JournalMismatch
from .shard import Shard, plan_shards
from .shmcache import SharedCacheError, SharedGoldenCache, live_segments
from .supervisor import CampaignSupervisor, ExecConfig, ParallelOutcome, \
    WorkerPool, run_parallel_campaign

__all__ = [
    "CampaignJournal",
    "JournalMismatch",
    "Shard",
    "plan_shards",
    "SharedCacheError",
    "SharedGoldenCache",
    "live_segments",
    "ExecConfig",
    "ParallelOutcome",
    "CampaignSupervisor",
    "WorkerPool",
    "run_parallel_campaign",
]
