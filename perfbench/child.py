"""One benchmark sample: run a list of experiments in this fresh interpreter.

Usage: ``python perfbench/child.py SPEC.json`` where the spec holds
``experiments`` (ids, or null for every registered one), ``refs``,
``seed``, ``jobs``, ``engine``, ``use_result_cache``, ``trace`` (install
the span tracer), ``spans`` (where the tracer writes its JSON lines) and
``out`` (where this process writes its report).  Only the public entry
points are driven: ``repro.cli`` is imported as a user's ``repro-cache``
would, and each experiment goes through ``run_experiment``.

An experiment that raises is recorded, not propagated: the orchestrator
counts it as failed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402

import repro.cli  # noqa: E402,F401  (timed: what every CLI invocation pays)

IMPORT_S = time.perf_counter() - T_START

import repro.experiments as experiments  # noqa: E402

from common import result_digest  # noqa: E402

_STAT_KEYS = ("jobs", "cells_total", "cache_hits", "cache_misses",
              "families_batched", "cells_batched", "wall_seconds")


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    config = replace(
        experiments.PaperConfig(),
        ref_limit=spec["refs"],
        seed=spec["seed"],
        jobs=spec["jobs"],
        engine=spec.get("engine", "auto"),
        use_result_cache=spec.get("use_result_cache", True),
    )
    ids = spec["experiments"] or experiments.available_experiments()
    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    results = {}
    for eid in ids:
        t0 = time.perf_counter()
        try:
            # Looked up at call time, so the tracer's wrapper is the one called.
            result = experiments.run_experiment(eid, config)
        except Exception:
            results[eid] = {
                "wall_s": time.perf_counter() - t0,
                "error": traceback.format_exc(limit=5),
            }
            continue
        wall = time.perf_counter() - t0
        stats = result.engine_stats or {}
        results[eid] = {
            "wall_s": wall,
            "digest": result_digest(result),
            "stats": {k: stats[k] for k in _STAT_KEYS if k in stats},
            "cell_seconds": sum((stats.get("cell_seconds") or {}).values()),
        }

    report = {
        "import_s": IMPORT_S,
        "registered": experiments.available_experiments(),
        "experiments": results,
    }
    if tracer is not None:
        from repro.trace.arena import get_arena

        arena = get_arena().stats()
        report["arena"] = {"hits": arena.hits, "misses": arena.misses}
        tracer.write(spec["spans"])
    with open(spec["out"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
