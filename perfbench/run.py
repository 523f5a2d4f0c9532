"""The repository benchmark: time an experiment-suite workload end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold [--seed 2011] [--seconds 20] [--trace 0|1]

Workloads are ``paper-cold``, ``sweeps-resim`` and ``suite-warm`` (see
``perfbench/README.md``).  Each timed sample is a fresh interpreter
running the workload's experiments through ``run_experiment``; this
process only prepares the start state, checks it, launches samples until
``--seconds`` are spent (at least three), and verifies every experiment's
result digest against the pinned sequential-engine reference.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
sample at ``jobs=1`` and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A start state that fails its check aborts the run with a
non-zero exit and no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    POOL_JOBS,
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    pinned_digests,
    run_child,
    run_process,
    workload_seed,
)

MIN_SAMPLES = 3
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class StartStateError(RuntimeError):
    """The caches are not in the state the workload is defined to start from."""


# -- run metadata ------------------------------------------------------------------------


def host_calibration() -> float:
    """Seconds for a fixed NumPy sort plus pure-Python loop (median of 3).

    It exercises no repository code, so a change in it between two runs is
    machine drift, not a program change.
    """
    import numpy as np

    data = np.random.default_rng(0).integers(0, 1 << 30, 400_000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(data, kind="stable")
        acc = 0
        for i in range(200_000):
            acc ^= (i * i) >> 3
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata(calib_s: float) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "host.calib_s": calib_s,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- start states ------------------------------------------------------------------------


class Bench:
    """One run of one workload: its start states, samples and correctness tally."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.cwd = run_dir / "work"  # the program's own caches live under here
        self.cwd.mkdir(parents=True)
        self.cache = self.cwd / ".trace_cache"
        self.pins = pinned_digests(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._n = 0

    def _cli(self, *args: str):
        self._n += 1
        log = self.run_dir / f"cli-{self._n}.log"
        run = run_process([sys.executable, "-m", "repro.cli", *args], self.cwd, log,
                          PROCESS_TIMEOUT_S)
        if run.returncode != 0:
            raise StartStateError(f"repro.cli {' '.join(args)} exited {run.returncode}; see {log}")
        return run

    def config_args(self) -> list[str]:
        return ["--refs", str(self.workload.refs), "--seed", str(self.seed)]

    def setup(self) -> list[float]:
        """Reach the start state ``SETUP_REPEATS`` times; returns each setup's seconds."""
        w = self.workload
        times = []
        for _ in range(SETUP_REPEATS):
            if w.start == "cold":
                # Emptying the caches is this workload's whole setup.
                times.append(self._cli("cache", "--clear", "--clear-traces").wall_s)
                continue
            shutil.rmtree(self.cache, ignore_errors=True)
            if w.start == "traces":
                run = self._cli("trace", "warm", "--experiments", ",".join(w.experiments),
                                "--jobs", str(POOL_JOBS), *self.config_args())
            else:
                run = self._cli("run", "all", "--jobs", str(POOL_JOBS), *self.config_args())
            times.append(run.wall_s)
        return times

    def reset(self) -> None:
        """Return to the start state between samples (untimed; ``setup`` times it)."""
        if self.workload.start == "cold":
            shutil.rmtree(self.cache, ignore_errors=True)
        elif self.workload.start == "traces":
            shutil.rmtree(self.cache / "results", ignore_errors=True)

    def check_start(self) -> None:
        start = self.workload.start
        files = [p for p in self.cache.rglob("*") if p.is_file()] if self.cache.exists() else []
        if start == "cold" and files:
            raise StartStateError(f"cold start has {len(files)} cached file(s), e.g. {files[0]}")
        if start == "traces":
            results = self.cache / "results"
            if results.exists() and any(p.is_file() for p in results.rglob("*")):
                raise StartStateError("result cache is not empty")
            missing = [p for p in self.expected_traces() if not p.exists()]
            if missing:
                raise StartStateError(f"{len(missing)} trace(s) missing, e.g. {missing[0]}")

    def expected_traces(self) -> list[Path]:
        from dataclasses import replace

        from repro.experiments import PaperConfig
        from repro.experiments.warm import specs_for
        from repro.trace.io import TraceCache

        config = replace(PaperConfig(), ref_limit=self.workload.refs, seed=self.seed)
        cache = TraceCache(self.cache)
        return [cache.path_for(spec.cache_key())
                for spec in specs_for(self.workload.experiments, config)]

    def check_warm(self) -> None:
        """Every engine cell of every experiment must be a result-cache hit."""
        run, report = self.sample(tag="check")
        if report is None:
            raise StartStateError("warm check run failed")
        cold = [e for e, r in report["experiments"].items()
                if r.get("stats", {}).get("cache_misses", 0)]
        if cold:
            raise StartStateError(f"warm start simulated cells in: {', '.join(cold)}")

    # -- samples ----------------------------------------------------------------------

    def sample(self, tag: str, trace: bool = False):
        w = self.workload
        spec = {
            "experiments": list(w.experiments) if w.experiments else None,
            "refs": w.refs,
            "seed": self.seed,
            "jobs": 1 if trace else w.jobs,
            "trace": trace,
            "spans": str(self.run_dir / f"{tag}.spans.jsonl"),
        }
        run, report = run_child(spec, self.cwd, self.run_dir / tag, timeout=PROCESS_TIMEOUT_S)
        self.verify(tag, report)
        return run, report

    def verify(self, tag: str, report: dict | None) -> None:
        """Count the sample's experiments; failed = raised, unpinned or digest differs."""
        expected = self.pins or {}
        ids = self.workload.experiments or sorted(
            set(expected) | set((report or {}).get("registered", ())))
        self.attempted += len(ids)
        if report is None:
            self.failed += len(ids)
            self.failures.append(f"{tag}: sample process failed")
            return
        for eid in ids:
            got = report["experiments"].get(eid, {})
            if "digest" not in got or got["digest"] != expected.get(eid):
                self.failed += 1
                why = got.get("error", "").strip().splitlines()[-1:] or ["digest differs"]
                self.failures.append(f"{tag} {eid}: {why[0]}")


def unit_of(name: str) -> str:
    if name.endswith("ns_per_ref"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("ratio", "coverage", "efficiency")):
        return "ratio"
    return "count"


def per_layer(bench: Bench, samples, traced, calib_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: spans of the traced sample plus medians of the untraced ones."""
    from tracer import layer_metrics, read_spans

    run, report = traced
    spans_path = bench.run_dir / "traced.spans.jsonl"
    spans = read_spans(spans_path) if report is not None and spans_path.exists() else []
    m = layer_metrics(spans, run.wall_s)
    reports = [r for _, r in samples if r is not None]

    def median_of(get) -> float:
        vals = [get(r) for r in reports]
        return statistics.median(vals) if vals else 0.0

    def pool_efficiency(r) -> float:
        stats = [e for e in r["experiments"].values() if "stats" in e]
        busy = sum(e["cell_seconds"] for e in stats)
        wall = sum(e["stats"].get("wall_seconds", 0.0) * e["stats"].get("jobs", 1) for e in stats)
        return busy / wall if wall else 0.0

    traced_stats = [e["stats"] for e in (report or {}).get("experiments", {}).values()
                    if "stats" in e]
    simulated = sum(s.get("cache_misses", 0) for s in traced_stats)
    arena = (report or {}).get("arena", {})
    lookups = arena.get("hits", 0) + arena.get("misses", 0)
    m.update({
        "trace.arena.hit_ratio": arena.get("hits", 0) / lookups if lookups else 0.0,
        "engine.families": sum(s.get("families_batched", 0) for s in traced_stats),
        "engine.cells_batched_ratio":
            sum(s.get("cells_batched", 0) for s in traced_stats) / simulated if simulated else 0.0,
        "engine.pool.efficiency": median_of(pool_efficiency),
        "cli.import_s": median_of(lambda r: r["import_s"]),
        "host.calib_s": calib_s,
        "trace.overhead_s": run.wall_s - statistics.median(r.wall_s for r, _ in samples),
    })
    for eid in sorted(reports[0]["registered"] if reports else ()):
        m[f"exp.{eid}.wall_s"] = median_of(
            lambda r: r["experiments"].get(eid, {}).get("wall_s", 0.0))
    return {name: (float(value), unit_of(name)) for name, value in m.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    seed = workload_seed(args.seed)
    if pinned_digests(workload, seed) is None:
        print(f"error: no pinned digests for {workload.name} at seed {seed}", file=sys.stderr)
        return 2

    run_dir = WORK / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Bench(workload, seed, run_dir)
    meta = metadata(host_calibration())
    meta.update(workload=workload.name, seed=args.seed, trace_seed=seed,
                refs=workload.refs, jobs=workload.jobs)
    try:
        setup_s = bench.setup()
        if workload.start == "warm":
            bench.check_warm()
        samples = []
        t_window = time.perf_counter()
        while True:
            bench.reset()
            bench.check_start()
            run, report = bench.sample(tag=f"s{len(samples)}")
            samples.append((run, report))
            elapsed = time.perf_counter() - t_window
            if len(samples) >= MIN_SAMPLES and elapsed + run.wall_s > args.seconds:
                break
        traced = None
        if args.trace:
            bench.reset()
            bench.check_start()
            traced = bench.sample(tag="traced", trace=True)
    except StartStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.cwd, ignore_errors=True)

    values = {
        "wall_s": [r.wall_s for r, _ in samples],
        "cpu_s": [r.cpu_s for r, _ in samples],
        "peak_rss_mb": [r.peak_rss_mb for r, _ in samples],
        "setup_s": setup_s,
    }
    print(f"# {workload.name}: seed {args.seed} (traces seeded {seed}), {workload.refs} refs, "
          f"jobs={workload.jobs}, {len(samples)} samples, {len(setup_s)} setups")
    print("# " + json.dumps(meta, sort_keys=True))
    for name, unit in END_TO_END:
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        print(f"{name:12s} median {med:10.4f} {unit:3s} q1 {q1:10.4f} q3 {q3:10.4f} n {len(values[name])}")
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{'failed_frac':12s} {failed_frac:.4f} ({bench.failed}/{bench.attempted} experiments)")
    for line in bench.failures[:20]:
        print(f"  failed: {line}")

    if args.trace:
        metrics = per_layer(bench, samples, traced, meta["host.calib_s"])
        for name, (value, unit) in metrics.items():
            print(f"{name:36s} {value:14.6g} {unit}")
    else:
        metrics = {name: (statistics.median(values[name]), unit) for name, unit in END_TO_END}

    record = {"meta": meta, "values": values, "metrics": metrics,
              "attempted": bench.attempted, "failed": bench.failed, "failures": bench.failures}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
