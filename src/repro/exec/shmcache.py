"""A golden activation cache packed into one POSIX shared-memory segment.

No campaign publishes a segment.  Parallel workers fork after the golden
pass is recorded and replay the cache they inherit
(:meth:`repro.core.resume.ResumeSession.adopt`): nothing writes the
recorded arrays, so the pool already shares the parent's physical pages,
and a segment would be a second copy of them (EXPERIMENTS.md, "Forked
workers share the golden cache they inherit").  The module stays only
because the end-to-end benchmark still names it: ``benchmarks/e2e`` imports
:data:`SEGMENT_PREFIX` and :func:`live_segments` for its ``/dev/shm`` leak
check and wraps :meth:`SharedGoldenCache.publish` in every traced run.  It
goes with the next change to that benchmark.

* :func:`SharedGoldenCache.publish` copies each array into a single named
  segment (``repro-golden-<pid>-<nonce>``) behind a JSON index, so the
  segment is self-describing and can also be attached by name from an
  unrelated process (:meth:`SharedGoldenCache.attach`).
* :meth:`SharedGoldenCache.array` returns zero-copy, read-only numpy views
  into the segment (``writeable=False``).
* **Refcounted unlink-on-last-close.** The publisher holds one reference;
  every holder :meth:`acquire`\\ s another and :meth:`release`\\ s it.
  Whoever drops the count to zero unlinks the segment, and a forced
  :meth:`unlink` is idempotent.

Segment layout::

    [8-byte little-endian header length n]
    [n bytes of JSON: {"version": 1, "entries": {key: {offset, shape, dtype}}}]
    [64-byte-aligned array payloads ...]
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import secrets
import struct
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedCacheError", "SharedGoldenCache", "SEGMENT_PREFIX",
           "live_segments"]

logger = logging.getLogger("repro.exec")

#: prefix of every segment this module creates (leak checks glob for it)
SEGMENT_PREFIX = "repro-golden-"

_ALIGN = 64
_LEN = struct.Struct("<Q")
_LAYOUT_VERSION = 1


class SharedCacheError(RuntimeError):
    """A shared golden cache was used in a way its layout forbids."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def live_segments() -> list[str]:
    """Names of this module's segments currently present in ``/dev/shm``.

    Linux-only introspection used by leak tests and post-mortem tooling;
    returns ``[]`` where ``/dev/shm`` does not exist.
    """
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith(SEGMENT_PREFIX))
    except OSError:
        return []


class SharedGoldenCache:
    """One published golden activation cache in a shared-memory segment.

    Instances are fork-friendly: a worker inheriting the object reuses the
    parent's mapping (no re-attach syscall) and shares the refcount through
    the inherited ``multiprocessing.Value``.  Out-of-tree processes attach
    by segment name instead.
    """

    def __init__(self, shm: shared_memory.SharedMemory, index: dict,
                 refcount=None, publisher: bool = False):
        self._shm = shm
        self._index = index
        self._refcount = refcount
        self._publisher = publisher
        self._closed = False
        self._unlinked = False

    # ------------------------------------------------------------------
    # creation / attachment
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, entries, ctx=None) -> "SharedGoldenCache":
        """Pack ``entries`` (an iterable of ``(key, ndarray)``) into one
        shared segment and return the publisher handle (refcount = 1).

        Keys are stringified into the JSON index (the resume engine uses int
        execution positions; any ``str()``-stable key works).  Raises
        :class:`SharedCacheError` on an empty entry set — publishing nothing
        is always a caller bug.
        """
        packed: list[tuple[str, np.ndarray]] = []
        for key, array in entries:
            arr = np.ascontiguousarray(array)
            packed.append((str(key), arr))
        if not packed:
            raise SharedCacheError("refusing to publish an empty cache")
        relative: dict[str, dict] = {}
        body = 0
        for skey, arr in packed:
            body = _aligned(body)
            relative[skey] = {"offset": body, "shape": list(arr.shape),
                              "dtype": arr.dtype.str}
            body += arr.nbytes

        def _serialize(start: int) -> tuple[bytes, dict]:
            idx = {k: {**m, "offset": m["offset"] + start}
                   for k, m in relative.items()}
            blob = json.dumps({"version": _LAYOUT_VERSION,
                               "entries": idx}).encode("utf-8")
            return blob, idx

        # shifting the offsets lengthens the JSON header, which shifts the
        # offsets again — iterate to a fixed point (converges in <= 2 steps)
        data_start = _aligned(_LEN.size)
        while True:
            header, index = _serialize(data_start)
            need = _aligned(_LEN.size + len(header))
            if need <= data_start:
                break
            data_start = need
        total = data_start + body
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        shm.buf[:_LEN.size] = _LEN.pack(len(header))
        shm.buf[_LEN.size:_LEN.size + len(header)] = header
        for skey, arr in packed:
            meta = index[skey]
            start = meta["offset"]
            view = np.ndarray(arr.shape, dtype=np.dtype(meta["dtype"]),
                              buffer=shm.buf, offset=start)
            view[...] = arr
        ctx = ctx if ctx is not None else multiprocessing.get_context("fork")
        refcount = ctx.Value("q", 1)
        logger.debug("published shared golden cache %s (%d arrays, %d bytes)",
                     name, len(index), total)
        return cls(shm, index, refcount=refcount, publisher=True)

    @classmethod
    def attach(cls, name: str) -> "SharedGoldenCache":
        """Attach to an existing segment by name (read-only, no refcount).

        Used by out-of-tree consumers (debug tooling, spawn-based pools);
        fork-inherited workers reuse the publisher's mapping instead.
        """
        shm = shared_memory.SharedMemory(name=name)
        (header_len,) = _LEN.unpack(bytes(shm.buf[:_LEN.size]))
        header = json.loads(bytes(
            shm.buf[_LEN.size:_LEN.size + header_len]).decode("utf-8"))
        if header.get("version") != _LAYOUT_VERSION:
            shm.close()
            raise SharedCacheError(
                f"segment {name} has layout version {header.get('version')!r}; "
                f"this build reads version {_LAYOUT_VERSION}")
        return cls(shm, header["entries"], refcount=None, publisher=False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Size of the underlying segment."""
        return self._shm.size

    def keys(self) -> list[str]:
        return list(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        return str(key) in self._index

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def array(self, key) -> np.ndarray | None:
        """Read-only, zero-copy view of ``key``'s array (None if absent)."""
        if self._closed:
            raise SharedCacheError("shared golden cache is closed")
        meta = self._index.get(str(key))
        if meta is None:
            return None
        view = np.ndarray(tuple(meta["shape"]), dtype=np.dtype(meta["dtype"]),
                          buffer=self._shm.buf, offset=meta["offset"])
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # refcounted lifecycle
    # ------------------------------------------------------------------
    def acquire(self) -> "SharedGoldenCache":
        """Take a reference (a fork-inherited worker adopting the cache)."""
        if self._refcount is None:
            raise SharedCacheError(
                "cannot acquire a by-name attachment; only fork-inherited "
                "handles share the publisher's refcount")
        with self._refcount.get_lock():
            if self._refcount.value <= 0:
                raise SharedCacheError(
                    "shared golden cache already fully released")
            self._refcount.value += 1
        return self

    def release(self) -> bool:
        """Drop one reference; the last holder unlinks.  Returns True when
        this call performed the unlink."""
        if self._refcount is None:
            self.close()
            return False
        with self._refcount.get_lock():
            self._refcount.value -= 1
            last = self._refcount.value <= 0
        if last:
            self.unlink()
        self.close()
        return last

    def close(self) -> None:
        """Detach this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass

    def unlink(self) -> bool:
        """Remove the segment from the system (idempotent).

        Safe to call after worker SIGKILLs left the refcount dangling — the
        supervisor force-unlinks at shutdown so ``/dev/shm`` never leaks.
        """
        if self._unlinked:
            return False
        self._unlinked = True
        try:
            self._shm.unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:  # pragma: no cover - exotic hosts
            return False
