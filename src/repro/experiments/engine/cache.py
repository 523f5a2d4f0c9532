"""Content-addressed on-disk cache of per-cell simulation results.

Lives alongside the :class:`~repro.trace.io.TraceCache` (by default in a
``results/`` subdirectory of the trace-cache root).  Keys are SHA-256
digests over everything that determines a cell's outcome:

* the **trace fingerprint** — a digest of the actual address/write/thread
  arrays, so regenerating a workload with different knobs can never alias;
* the **cache geometry** (capacity, line size, ways, address bits);
* the cell's **kind / label / parameter** tuple (scheme parameters,
  adaptive-table fractions, B-cache operating point, ...);
* the **effective associativity and replacement policy** of the simulated
  structure (``setassoc``/``bounds`` cells override the geometry's ``ways``);
* the profiling-trace fingerprint for trainable schemes; and
* :data:`ENGINE_VERSION`, bumped whenever simulation semantics change.

Entries are single ``.npz`` files written atomically (tmp + ``os.replace``)
with an embedded SHA-256 payload checksum.  ``load`` verifies the checksum
and every structural invariant; a corrupted, truncated or stale-version
entry is deleted and reported as a miss, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ...core.address import CacheGeometry
from ...core.simulator import SimulationResult
from ...trace.event import Trace

__all__ = ["ENGINE_VERSION", "ResultCache", "trace_fingerprint", "cell_key"]

#: Bump to invalidate every cached cell result (simulation semantics change).
#: v2: k-way cells exist and keys carry the effective ways/policy pair.
#: v3: keys carry every outcome-changing model parameter (colassoc
#: ``protect_conventional`` in particular) — older keys under-specified the
#: column-associative cells, so they are all invalidated.
ENGINE_VERSION = 3

_ARRAY_FIELDS = ("slot_accesses", "slot_hits", "slot_misses")
_SCALAR_FIELDS = ("accesses", "hits", "misses", "lookup_cycles")


def trace_fingerprint(trace: Trace) -> str:
    """Content digest of a trace (addresses, writes, threads — not the name)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.addresses).tobytes())
    h.update(np.ascontiguousarray(trace.is_write).tobytes())
    h.update(np.ascontiguousarray(trace.thread).tobytes())
    return h.hexdigest()


def cell_key(
    kind: str,
    label: str,
    params: tuple,
    geometry: CacheGeometry,
    trace_fp: str,
    profile_fp: str | None = None,
    ways: int | None = None,
    policy: str = "lru",
) -> str:
    """Deterministic content-addressed key for one cell.

    ``ways``/``policy`` describe the *simulated structure* (``None`` means
    the geometry's own associativity): a 4-way LRU cell and a 4-way FIFO
    cell over the same trace/geometry must never alias.
    """
    doc = {
        "engine_version": ENGINE_VERSION,
        "kind": kind,
        "label": label,
        "params": [[str(k), repr(v)] for k, v in params],
        "geometry": [
            geometry.capacity_bytes,
            geometry.line_bytes,
            geometry.ways,
            geometry.address_bits,
        ],
        "ways": geometry.ways if ways is None else int(ways),
        "policy": policy,
        "trace": trace_fp,
        "profile": profile_fp,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _payload_checksum(meta: dict, arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(meta, sort_keys=True).encode())
    for name in _ARRAY_FIELDS:
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


class ResultCache:
    """On-disk memo of :class:`SimulationResult` keyed by content digest."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.npz"))

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.glob("*.npz"))

    # -- store / load -------------------------------------------------------------

    def store(self, key: str, result: SimulationResult) -> Path:
        meta = {
            "engine_version": ENGINE_VERSION,
            "model": result.model,
            "trace_name": result.trace_name,
            "extra": {k: int(v) for k, v in result.extra.items()},
        }
        for name in _SCALAR_FIELDS:
            meta[name] = int(getattr(result, name))
        arrays = {
            name: np.ascontiguousarray(getattr(result, name), dtype=np.int64)
            for name in _ARRAY_FIELDS
        }
        meta["checksum"] = _payload_checksum(
            {k: v for k, v in meta.items() if k != "checksum"}, arrays
        )
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(
                    fh,
                    meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                    **arrays,
                )
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def load(self, key: str) -> SimulationResult | None:
        """Verified load; *verified* corruption/staleness deletes the entry → miss.

        A transient I/O failure (``OSError`` while opening/reading — e.g. a
        concurrent reader racing a writer, or a momentary filesystem
        hiccup) is reported as a miss but **never** deletes the entry: the
        file may be perfectly good, and unlinking it would throw away a
        warm result every other process could still use.  Only
        failures that prove the decoded *content* is wrong (bad zip,
        missing members, checksum mismatch, stale engine version,
        inconsistent shapes) unlink.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode())
                arrays = {name: data[name].copy() for name in _ARRAY_FIELDS}
        except OSError:
            # Transient read error: miss, but leave the entry intact.
            return None
        except Exception:
            # Undecodable content (truncated zip, missing member, bad
            # JSON): verified corruption — recompute rather than trust.
            self._unlink_corrupt(path)
            return None
        try:
            if meta.get("engine_version") != ENGINE_VERSION:
                raise ValueError("stale engine version")
            stored = meta.pop("checksum")
            if stored != _payload_checksum(meta, arrays):
                raise ValueError("checksum mismatch")
            n_sets = arrays["slot_accesses"].size
            if any(arrays[name].size != n_sets for name in _ARRAY_FIELDS):
                raise ValueError("inconsistent per-set arrays")
        except Exception:
            # Decoded fine but failed verification: provably bad entry.
            self._unlink_corrupt(path)
            return None
        return SimulationResult(
            model=meta["model"],
            trace_name=meta["trace_name"],
            accesses=meta["accesses"],
            hits=meta["hits"],
            misses=meta["misses"],
            lookup_cycles=meta["lookup_cycles"],
            slot_accesses=arrays["slot_accesses"],
            slot_hits=arrays["slot_hits"],
            slot_misses=arrays["slot_misses"],
            extra=dict(meta.get("extra", {})),
        )

    @staticmethod
    def _unlink_corrupt(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for p in self.root.glob("*.npz"):
            p.unlink()
            removed += 1
        return removed
