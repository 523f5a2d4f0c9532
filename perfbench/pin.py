"""Pin the reference digests the benchmark checks every run against.

For each workload and pinned seed this runs the workload's experiments
once with ``engine="sequential"`` (no result cache, one process: the
reference loop everywhere) and once the way the benchmark runs them
(``engine="auto"``, result cache on, the workload's ``jobs``), each in a
fresh interpreter from empty caches, and records the sequential digests
in ``digests.json``.  A seed whose two digests disagree for any
experiment is reported and not pinned.

Usage (from the repository root)::

    python3 perfbench/pin.py [--workloads a,b] [--seeds 2011,1]

The sequential reference of ``sweeps-resim`` takes a few minutes per seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import DIGESTS, PINNED_SEEDS, WORK, WORKLOADS, load_pins, run_child


def _digests(workload, seed: int, engine: str) -> dict[str, str]:
    cwd = WORK / "pin" / f"{workload.name}-{seed}-{engine}"
    shutil.rmtree(cwd, ignore_errors=True)
    sequential = engine == "sequential"
    spec = {
        "experiments": list(workload.experiments) if workload.experiments else None,
        "refs": workload.refs,
        "seed": seed,
        "jobs": 1 if sequential else workload.jobs,
        "engine": engine,
        "use_result_cache": not sequential,
    }
    run, report = run_child(spec, cwd, cwd, timeout=3600.0)
    if report is None:
        raise SystemExit(f"{workload.name} seed {seed} ({engine}) exited "
                         f"{run.returncode}; see {cwd / 'child.log'}")
    errors = {e: r["error"] for e, r in report["experiments"].items() if "error" in r}
    if errors:
        raise SystemExit(f"{workload.name} seed {seed} ({engine}) raised: {errors}")
    shutil.rmtree(cwd, ignore_errors=True)
    print(f"  {engine:10s} {run.wall_s:7.1f} s", flush=True)
    return {e: r["digest"] for e, r in report["experiments"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default=",".join(map(str, PINNED_SEEDS)))
    args = parser.parse_args(argv)
    pins = load_pins()
    ok = True
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        entry = pins.get(name)
        if not entry or entry.get("refs") != workload.refs:
            entry = pins[name] = {"refs": workload.refs, "seeds": {}}
        for seed in map(int, args.seeds.split(",")):
            print(f"{name} seed {seed}:", flush=True)
            reference = _digests(workload, seed, "sequential")
            auto = _digests(workload, seed, "auto")
            differ = sorted(e for e in reference if auto.get(e) != reference[e])
            if differ:
                ok = False
                print(f"  engine=auto differs from sequential on: {', '.join(differ)}")
                continue
            entry["seeds"][str(seed)] = reference
            DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
