"""Process-wide trace arena: a bounded LRU of opened (mapped) traces.

Every consumer that re-opens cached trace files by path — the in-process
experiment engine, process-pool workers, the job server — goes through
one shared arena per process instead of a private per-module memo.  The arena

* opens each path **once** per process (raw entries map zero-copy via
  :func:`~repro.trace.io.load_raw`; legacy npz entries decode via
  :func:`~repro.trace.io.load_npz` — :func:`~repro.trace.io.load_trace`
  sniffs the format);
* accounts bytes (``sum(arr.nbytes)`` of the three field arrays) and
  evicts least-recently-used entries once a configurable budget
  (``PaperConfig.trace_arena_bytes``) is exceeded, so a long-lived
  ``repro serve`` process touching an unbounded stream of
  distinct traces holds a bounded working set — the unbounded
  ``_TRACE_MEMO`` dict this replaces grew forever;
* invalidates on file change (mtime/size), so a cache entry healed or
  rewritten underneath a running process is re-opened, never served
  stale.

For mapped raw entries the accounted bytes are *virtual*: the OS pages
content in lazily and forked pool workers share the parent's page-cache
pages, so N workers touching one trace cost roughly one copy of physical
RAM.  The budget therefore bounds mapped address space and worst-case
residency, not guaranteed RSS.

Thread-safe; the eviction-side lock is held across loads for simplicity
(per-process consumers are overwhelmingly single-threaded, and the
serving layer executes cells in separate processes).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from .event import Trace
from .io import load_trace

__all__ = ["ArenaStats", "TraceArena", "get_arena", "reset_arena"]

#: Default byte budget (1 GiB): ~24 full-length paper traces, far above
#: any single figure grid's working set, well below service-host RAM.
DEFAULT_ARENA_BYTES = 1 << 30


@dataclass(frozen=True)
class ArenaStats:
    """Point-in-time counters (cheap; safe to render in stats verbs)."""

    entries: int
    bytes: int
    max_bytes: int
    hits: int
    misses: int
    evictions: int
    invalidations: int


@dataclass
class _Entry:
    trace: Trace
    nbytes: int
    mtime_ns: int
    size: int


def _trace_nbytes(trace: Trace) -> int:
    return int(
        trace.addresses.nbytes + trace.is_write.nbytes + trace.thread.nbytes
    )


class TraceArena:
    """Bounded LRU of traces keyed by on-disk path."""

    def __init__(self, max_bytes: int = DEFAULT_ARENA_BYTES):
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = self._misses = self._evictions = self._invalidations = 0

    # -- the one hot entry point ---------------------------------------------------

    def get(self, path: str | Path, name: str | None = None) -> Trace:
        """The trace stored at ``path``, opened at most once per process.

        ``name`` renames the returned view (a cheap array-sharing
        wrapper) without touching the cached entry, mirroring the
        engine's convention of labelling one shared trace per consuming
        workload.
        """
        key = str(path)
        st = os.stat(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (entry.mtime_ns, entry.size) == (
                st.st_mtime_ns,
                st.st_size,
            ):
                self._entries.move_to_end(key)
                self._hits += 1
                trace = entry.trace
            else:
                if entry is not None:
                    # File changed underneath us (healed / rewritten):
                    # drop the stale mapping and re-open.
                    self._bytes -= entry.nbytes
                    del self._entries[key]
                    self._invalidations += 1
                self._misses += 1
                trace = load_trace(key)
                entry = _Entry(trace, _trace_nbytes(trace), st.st_mtime_ns, st.st_size)
                self._entries[key] = entry
                self._bytes += entry.nbytes
                self._evict_over_budget()
            return trace if name is None else trace.with_name(name)

    # -- sizing / maintenance ------------------------------------------------------

    def _evict_over_budget(self) -> None:
        # Never evict the most-recent entry: the caller is about to use
        # it, so a single over-budget trace is admitted transiently (the
        # retained set shrinks back under budget on the next insert).
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _key, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            self._evictions += 1

    def configure(self, max_bytes: int) -> None:
        """Adopt a byte budget, evicting immediately if it shrank."""
        max_bytes = int(max_bytes)
        with self._lock:
            if max_bytes != self.max_bytes:
                self.max_bytes = max_bytes
                self._evict_over_budget()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> ArenaStats:
        with self._lock:
            return ArenaStats(
                entries=len(self._entries),
                bytes=self._bytes,
                max_bytes=self.max_bytes,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
            )


#: One arena per process (pool workers fork/spawn their own); guarded so
#: concurrent first touches from server threads build exactly one.
_ARENA: TraceArena | None = None
_ARENA_LOCK = threading.Lock()


def get_arena() -> TraceArena:
    global _ARENA
    if _ARENA is None:
        with _ARENA_LOCK:
            if _ARENA is None:
                _ARENA = TraceArena()
    return _ARENA


def reset_arena() -> None:
    """Drop the process-wide arena (tests use this for isolation)."""
    global _ARENA
    with _ARENA_LOCK:
        _ARENA = None
