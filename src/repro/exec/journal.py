"""Write-ahead JSONL journal for injection campaigns.

The journal is the campaign's durability layer: every completed injection
record is appended (and flushed) *before* it reaches aggregation, so any
process death — crash, OOM kill, SIGKILL, Ctrl-C — loses at most the
injections that were still in flight.  Re-running ``run_campaign`` with the
same arguments and the same journal path skips every journaled record and
reproduces the identical aggregate, because aggregation folds records in
plan (``seq``) order regardless of where they came from.

File format (one JSON object per line)::

    {"type": "header", "version": 1, "fingerprint": {...}, "created": ...,
     "plan": {"conv1": 100, "fc": 64}}
    {"type": "injection", "layer": "conv1", "seq": 0, "site": 17,
     "bits": [3], "delta_loss": 0.25, "mismatch_rate": 0.0,
     "sdc_rate": 0.0, "dur_s": 0.004}
    {"type": "batch", "n": 2, "records": [{"layer": "conv1", "seq": 1, ...},
     {"layer": "conv1", "seq": 2, ...}]}
    {"type": "quarantine", "shard_id": 4, "layer": "fc",
     "seqs": [8, 9], "attempts": 3, "reason": "timeout"}
    ...

Each accepted batch — a serial chunk of ``fault_batch`` records or a
worker batch — is one :meth:`CampaignJournal.append_batch`: one
``injection`` line for a single record (serial K=1 journals stay one line
per record), else one ``batch`` line with **one** write + flush.  Loading
treats them identically: records fold into the same last-wins
``(layer, seq)`` map in file order, so dedup holds across batch
boundaries and across mixed serial/parallel appends to one journal.  The
header's ``plan`` (per-layer planned injections, the done/total of
``repro watch``) sits outside the fingerprint, so older journals resume.

Properties:

* **Fingerprinted.**  The header pins the campaign identity,
  :meth:`repro.core.campaign.CampaignSpec.fingerprint`: the spec (kind,
  location, seed, plan budget, bit count, fault model, protection), the
  format, the target layers and a digest of the evaluation batch.  Opening
  a journal written by a *different* campaign raises
  :class:`JournalMismatch` instead of silently mixing results.
* **Torn-tail tolerant.**  A process killed mid-``write`` leaves a partial
  final line; loading skips unparseable lines (counting them) rather than
  failing, so a journal is always resumable after a hard kill.  A torn
  **batch** line loses only that batch — every earlier (flushed) line is
  intact, and a resumed run simply re-executes the lost records.
* **Append-only / last-wins.**  Resumed runs append to the same file; if a
  ``(layer, seq)`` pair somehow appears twice (e.g. a retried shard raced a
  dying worker), the last record wins.
* **Exact floats.**  Records round-trip through ``repr``-based JSON floats,
  which is lossless for IEEE-754 doubles — journal-resumed aggregates are
  bit-identical, not merely close.
* **Quarantine events are advisory.**  They document abandoned shards for
  post-mortems; a resumed run re-attempts those seqs (the fault may have
  been transient).
* **Exclusive.**  An open journal holds an exclusive ``flock`` on its file
  until :meth:`CampaignJournal.close`, so a second campaign on the same
  path fails fast with :class:`repro.core.campaign.CampaignError` instead
  of interleaving records.  A forked child (a ``--workers`` worker) lets
  go of every journal its parent holds right after the fork, so a parent
  killed before it reaps its workers leaves the journal free to resume.

Durability note: ``flush()`` per line survives *process* death (the data
lives in the OS page cache); pass ``fsync_every`` to also survive machine
crashes at a substantial throughput cost.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts journal unlocked
    fcntl = None

__all__ = ["CampaignJournal", "JournalMismatch", "load_journal",
           "KNOWN_RECORD_KINDS"]

JOURNAL_VERSION = 1


class JournalMismatch(ValueError):
    """The journal on disk was written by a different campaign."""


#: record ``kind`` values this version of the loader understands
KNOWN_RECORD_KINDS = ("value", "metadata")

#: fault-model specs this loader understands (prefix match for the
#: parameterised families)
_KNOWN_FAULT_PREFIXES = ("single", "burst", "stuck", "exhaustive", "temporal")


def _record_is_known(entry: dict) -> bool:
    """False when a record comes from a future schema this loader can't fold.

    Forward compatibility: a journal written by a newer version may carry
    record ``kind``s or ``fault`` models this code predates.  Such records
    are *skipped with a count* — never misfolded into the statistics of a
    plan they don't describe.
    """
    kind = entry.get("kind")
    if kind is not None and kind not in KNOWN_RECORD_KINDS:
        return False
    fault = entry.get("fault")
    if fault is not None and not any(
            str(fault).startswith(p) for p in _KNOWN_FAULT_PREFIXES):
        return False
    return True


def load_journal(path) -> tuple[dict | None, dict[tuple[str, int], dict],
                                int, int]:
    """Read a journal file, tolerating a torn tail line.

    Returns ``(header, records, corrupt_lines, skipped_unknown)`` where
    ``records`` maps ``(layer, seq)`` to the last journaled record for that
    plan and ``skipped_unknown`` counts well-formed records whose ``kind``
    or ``fault`` field this loader does not understand (written by a newer
    version — skipped, with a warning, rather than misinterpreted).
    """
    header: dict | None = None
    records: dict[tuple[str, int], dict] = {}
    corrupt = 0
    skipped_unknown = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1  # torn write from a mid-append kill
                continue
            if not isinstance(entry, dict):
                corrupt += 1
                continue
            etype = entry.get("type")
            if etype == "header" and header is None:
                header = entry
            elif etype == "injection":
                if not _record_is_known(entry):
                    skipped_unknown += 1
                elif not _fold_record(records, entry):
                    corrupt += 1
            elif etype == "batch":
                batched = entry.get("records")
                if not isinstance(batched, list):
                    corrupt += 1
                    continue
                for rec in batched:
                    if not isinstance(rec, dict):
                        corrupt += 1
                    elif not _record_is_known(rec):
                        skipped_unknown += 1
                    elif not _fold_record(records, rec):
                        corrupt += 1
            # quarantine (and unknown future) entries are advisory: skipped
    if skipped_unknown:
        import logging
        logging.getLogger("repro.exec").warning(
            "journal %s: skipped %d record(s) with an unknown kind/fault "
            "(written by a newer version?)", path, skipped_unknown)
    return header, records, corrupt, skipped_unknown


def _fold_record(records: dict, entry: dict) -> bool:
    """Fold one injection record into the last-wins map; False if malformed."""
    try:
        key = (str(entry["layer"]), int(entry["seq"]))
    except (KeyError, TypeError, ValueError):
        return False
    records[key] = entry
    return True


def _lock_exclusive(fh, path: Path) -> None:
    """Take a non-blocking exclusive lock on the journal open as ``fh``.

    A ``flock``, not a POSIX record lock: it belongs to ``fh``'s open file
    description, so :func:`load_journal` opening and closing the same file
    cannot drop it, and a second open of the path — in this process or
    another — conflicts.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX hosts
        return
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        from ..core.campaign import CampaignError
        raise CampaignError(
            f"journal {path} is held by another running campaign; wait for "
            "it to finish or pass a different --journal path") from None


#: the journals open in this process (a forked child lets go of them)
_OPEN: "weakref.WeakSet[CampaignJournal]" = weakref.WeakSet()


def _release_in_child() -> None:
    """Drop every inherited journal in a freshly forked child.

    A ``flock`` lasts while any descriptor of its open file description
    does, so a child keeping its copy would hold the parent's journal
    locked after the parent closed it, or died.  The child never writes
    the parent's journal: the copy is pointed at ``/dev/null`` (the number
    stays valid until the inherited file object closes it) and closed.
    """
    for journal in list(_OPEN):
        fh, journal._fh = journal._fh, None
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fh.fileno())
        finally:
            os.close(devnull)
        fh.close()
    _OPEN.clear()


if fcntl is not None:
    os.register_at_fork(after_in_child=_release_in_child)


class CampaignJournal:
    """Append-only write-ahead journal bound to one campaign fingerprint."""

    def __init__(self, path, fingerprint: dict, _fh=None,
                 fsync_every: bool = False):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.fsync_every = fsync_every
        self._fh = _fh
        self.records_written = 0
        self.batches_written = 0

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path, fingerprint: dict, fsync_every: bool = False,
             plan: dict[str, int] | None = None
             ) -> tuple["CampaignJournal", dict[tuple[str, int], dict]]:
        """Open (creating or resuming) the journal at ``path``.

        Returns the journal plus the records already completed by previous
        runs.  A fresh file gets a header (carrying ``plan``, the per-layer
        planned injection counts, when given); an existing file must carry
        a matching fingerprint (:class:`JournalMismatch` otherwise).  A
        journal another open journal holds raises
        :class:`repro.core.campaign.CampaignError` naming the path.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "a", encoding="utf-8")
        completed: dict[tuple[str, int], dict] = {}
        try:
            _lock_exclusive(fh, path)
            if path.stat().st_size > 0:
                header, completed, corrupt, _skipped = load_journal(path)
                if header is None:
                    if completed:
                        raise JournalMismatch(
                            f"journal {path} has injection records but no "
                            "readable header; refusing to resume from it")
                    # nothing salvageable (e.g. a single torn header line):
                    # start over in the locked file
                    fh.truncate(0)
                else:
                    recorded = header.get("fingerprint")
                    if recorded != fingerprint:
                        raise JournalMismatch(
                            f"journal {path} was written by a different "
                            f"campaign:\n"
                            f"  journal:  {recorded}\n"
                            f"  current:  {fingerprint}\n"
                            "pass a fresh --journal path (or delete the old "
                            "file) to start over")
                    if corrupt:
                        import logging
                        logging.getLogger("repro.exec").warning(
                            "journal %s: skipped %d torn/corrupt line(s)",
                            path, corrupt)
        except BaseException:
            fh.close()
            raise
        fresh = path.stat().st_size == 0
        journal = cls(path, fingerprint, _fh=fh, fsync_every=fsync_every)
        _OPEN.add(journal)
        if fresh:
            header = {"type": "header", "version": JOURNAL_VERSION,
                      "fingerprint": fingerprint, "created": time.time()}
            if plan is not None:
                header["plan"] = dict(plan)
            journal._append(header)
        return journal, completed

    # ------------------------------------------------------------------
    def _append(self, entry: dict) -> None:
        if self._fh is None:
            raise RuntimeError("journal is closed")
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()  # survives process death (OS page cache)
        if self.fsync_every:
            os.fsync(self._fh.fileno())

    def append_record(self, record: dict) -> None:
        """Journal one completed injection (write-ahead of aggregation)."""
        entry = dict(record)
        entry["type"] = "injection"
        self._append(entry)
        self.records_written += 1

    def append_batch(self, records) -> None:
        """Journal a batch of records as one framed line with one flush.

        This is every executor's write path: instead of one write+flush
        syscall pair per record, a whole batch costs one line.
        Durability granularity becomes the batch — a kill mid-write tears
        at most this one line (the loader skips it and a resumed run
        re-executes those records), while every previously flushed line is
        untouched.  Empty batches are a no-op.
        """
        records = list(records)
        if not records:
            return
        if len(records) == 1:
            self.append_record(records[0])
            return
        self._append({"type": "batch", "n": len(records),
                      "records": records})
        self.records_written += len(records)
        self.batches_written += 1

    def append_quarantine(self, info: dict) -> None:
        """Journal an abandoned shard (advisory; resumed runs re-attempt)."""
        entry = dict(info)
        entry["type"] = "quarantine"
        self._append(entry)

    def flush(self, fsync: bool = True) -> None:
        if self._fh is not None:
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            try:
                self.flush(fsync=True)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
            if fcntl is not None:
                # a child forked a moment ago may not have dropped its copy
                # of the descriptor yet; unlocking frees the lock for all
                fcntl.flock(self._fh, fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None
            _OPEN.discard(self)

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
