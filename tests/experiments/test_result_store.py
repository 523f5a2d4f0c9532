"""Result-cache read-error tests.

A **transient** read error (``OSError``) is a miss that leaves the entry
on disk — only *verified* corruption unlinks (the fix for the old
delete-on-any-exception behavior).
"""

from __future__ import annotations

import numpy as np

from repro.core.simulator import SimulationResult
from repro.experiments.engine import ResultCache
import repro.experiments.engine.cache as cache_mod


def _result(misses: int = 7, n_sets: int = 16) -> SimulationResult:
    """A synthetic but structurally valid result for store plumbing tests."""
    slot_accesses = np.arange(n_sets, dtype=np.int64) + 1
    slot_hits = np.arange(n_sets, dtype=np.int64)
    return SimulationResult(
        model="synthetic",
        trace_name="synthetic",
        accesses=int(slot_accesses.sum()),
        hits=int(slot_hits.sum()),
        misses=misses,
        lookup_cycles=123,
        slot_accesses=slot_accesses,
        slot_hits=slot_hits,
        slot_misses=slot_accesses - slot_hits,
        extra={},
    )


class TestTransientReadErrors:
    """``load`` must not delete entries on transient errors."""

    def test_oserror_is_a_miss_that_keeps_the_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "rc")
        path = cache.store("k" * 64, _result())
        assert path.exists()

        real_load = np.load

        def flaky_load(*args, **kwargs):
            raise OSError("synthetic NFS hiccup")

        monkeypatch.setattr(cache_mod.np, "load", flaky_load)
        assert cache.load("k" * 64) is None, "transient error must read as a miss"
        assert path.exists(), "transient error must NOT delete the entry"

        # Once the filesystem recovers, the very same entry is a hit again.
        monkeypatch.setattr(cache_mod.np, "load", real_load)
        recovered = cache.load("k" * 64)
        assert recovered is not None
        assert recovered.misses == _result().misses

    def test_verified_corruption_still_unlinks(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        path = cache.store("k" * 64, _result())
        path.write_bytes(b"definitely not an npz")
        assert cache.load("k" * 64) is None
        assert not path.exists(), "provably corrupt entries must be removed"
