"""Span tracer for the benchmark's traced run, installed from outside ``src/``.

:meth:`Tracer.install` wraps the public entry points of each layer and
rebinds every alias of them in loaded ``repro`` modules (many callers do
``from ..core.simulator import simulate``, so patching only the defining
module would miss them).  Each call records a span: name, layer, start,
end, parent, plus the work it did (references, bytes, cache hit).  Spans
stay in memory and are written as JSON lines by :meth:`Tracer.write`.

:func:`layer_metrics` turns a span file into the per-layer metrics.  A
layer's busy time is its *self* time: each span's duration minus the part
its child spans cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import pickle
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Kernel layers: module -> public entry points (``simulate_*``, ``lru_*``,
#: ``*_miss_flags``, ``*_miss_count``).
KERNEL_MODULES = {
    "fastsim": "repro.core.fastsim",
    "fastpolicy": "repro.core.fastpolicy",
    "fastassoc": "repro.core.fastassoc",
    "aux": "repro.core.aux.fast",
}
_KERNEL_ENTRY = re.compile(r"^(simulate_|lru_)|_miss_(flags|count)$")
#: Layers beneath which a sequential ``simulate()`` counts as a fallback.
_FAST_PATH_LAYERS = set(KERNEL_MODULES) | {"dispatch"}


def _refs(args, kwargs, out):
    """References a call processed: the length of its first trace or array."""
    for arg in list(args) + list(kwargs.values()):
        addresses = getattr(arg, "addresses", None)
        if addresses is not None:
            return len(addresses), None
        if hasattr(arg, "shape") and hasattr(arg, "size"):
            return int(arg.size), None
    return 0, None


def _out_refs(args, kwargs, out):
    return len(out), None


def _out_bytes(args, kwargs, out):
    return 0, Path(out).stat().st_size


def _hit(args, kwargs, out):
    return 0, out is not None


def _experiment_id(args, kwargs, out):
    return 0, args[0] if args else kwargs.get("experiment_id")


class Tracer:
    def __init__(self):
        #: One record per call: [name, layer, start, end, parent, n, value].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._scheme_ids: dict[int, tuple[object, str]] = {}

    # -- recording ------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, clock(), 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if measure is not None:
                record[5], record[6] = measure(args, kwargs, out)
            return out

        return traced

    def _decode_key(self, args, kwargs, out):
        """(scheme, trace) identity of an ``indices_of`` call.

        Schemes compare by pickled value, so two equal schemes built by
        different cells count as one; traces by buffer address, length
        and sampled content.
        """
        scheme, addresses = args[0], args[1] if len(args) > 1 else kwargs["addresses"]
        known = self._scheme_ids.get(id(scheme))
        if known is None or known[0] is not scheme:
            digest = hashlib.sha1(pickle.dumps(scheme, 5)).hexdigest()[:16]
            known = self._scheme_ids[id(scheme)] = (scheme, digest)
        n = int(addresses.size)
        flat = addresses.reshape(-1)
        sample = (int(flat[0]), int(flat[n // 2]), int(flat[-1])) if n else ()
        pointer = addresses.__array_interface__["data"][0]
        return n, f"{known[1]}:{pointer}:{n}:{sample}"

    # -- installation ---------------------------------------------------------------

    def _targets(self):
        """``(layer, owner, attribute, measure)`` for every traced entry point."""
        import importlib

        import repro.experiments  # noqa: F401  (registers every experiment)
        from repro.core import simulator, uniformity
        from repro.core.indexing.base import IndexingScheme
        from repro.experiments import report, runner
        from repro.experiments.engine import cache, cells, families, parallel
        from repro.multithread import partitioned, smt
        from repro.trace import arena, io
        from repro.workloads.base import Workload

        targets = [
            ("exp", runner, "run_experiment", _experiment_id),
            ("workloads", Workload, "generate", _out_refs),
            ("trace.io.save", io, "save_raw", _out_bytes),
            ("trace.io.save", io, "save_npz", _out_bytes),
            ("trace.io.load", io, "load_raw", None),
            ("trace.io.load", io, "load_npz", None),
            ("trace.io.load", io, "load_trace", None),
            ("trace.arena", arena.TraceArena, "get", None),
            ("simulator", simulator, "simulate", _refs),
            ("multithread", smt, "simulate_smt", _refs),
            ("multithread", partitioned, "simulate_partitioned", _refs),
            ("engine.plan", parallel, "plan_cells", None),
            ("engine.run", parallel, "run_cells", None),
            ("engine.cell", cells, "execute_cell", None),
            ("engine.cell", cells, "timed_execute_cell", None),
            ("engine.cell", families, "execute_family", None),
            ("engine.store.load", cache.ResultCache, "load", _hit),
            ("engine.store.store", cache.ResultCache, "store", _out_bytes),
        ]
        for attr in ("simulate_indexing", "simulate_set_associative",
                     "simulate_lru_sweep", "simulate_fully_associative"):
            targets.append(("dispatch", simulator, attr, _refs))
        for layer, modname in KERNEL_MODULES.items():
            module = importlib.import_module(modname)
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == modname
                        and _KERNEL_ENTRY.search(attr)):
                    targets.append((layer, module, attr, _refs))
        classes = [IndexingScheme]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if "indices_of" in vars(cls):
                targets.append(("indexing", cls, "indices_of", self._decode_key))
        for module in (uniformity, report):
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets.append(("report", module, attr, None))
        for attr, fn in vars(report.ExperimentResult).items():
            if inspect.isfunction(fn) and not attr.startswith("_"):
                targets.append(("report", report.ExperimentResult, attr, None))
        return targets

    def install(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for layer, owner, attr, measure in self._targets():
            fn = vars(owner)[attr]
            if id(fn) in originals:
                continue
            owner_name = getattr(owner, "__qualname__", None) or owner.__name__.rsplit(".", 1)[-1]
            wrapper = self._wrap(layer, f"{owner_name}.{attr}", fn, measure)
            setattr(owner, attr, wrapper)
            originals[id(fn)] = (fn, wrapper)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path: str | Path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "n", "value")
        with open(path, "w") as fh:
            for i, record in enumerate(self.spans):
                fh.write(json.dumps(dict(zip(keys, record), id=i)) + "\n")


# -- analysis ---------------------------------------------------------------------------


def read_spans(path: str | Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict], traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans (see the README's table)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    refs: dict[str, int] = defaultdict(int)
    values: dict[str, list] = defaultdict(list)
    #: Layers of each span's ancestors, by span id.
    ancestors_layers: list[frozenset] = []
    fallback = direct = 0
    top_level = 0.0
    for i, s in enumerate(spans):
        layer = s["layer"]
        parent = s["parent"]
        above = ancestors_layers[parent] | {spans[parent]["layer"]} if parent >= 0 else frozenset()
        ancestors_layers.append(frozenset(above))
        busy[layer] += (s["end"] - s["start"]) - covered[i]
        if parent < 0:
            top_level += s["end"] - s["start"]
        if layer in above:
            continue  # nested in its own layer: counted by the outermost call
        calls[layer] += 1
        refs[layer] += s["n"]
        values[layer].append(s["value"])
        if layer == "simulator":
            fallback += bool(above & _FAST_PATH_LAYERS)
            direct += "engine.cell" not in above

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {
        "workloads.generate_s": busy["workloads"],
        "workloads.traces_generated": calls["workloads"],
        "workloads.refs_generated": refs["workloads"],
        "trace.io.save_s": busy["trace.io.save"],
        "trace.io.bytes_written": sum(v or 0 for v in values["trace.io.save"]),
        "trace.io.load_s": busy["trace.io.load"],
        "trace.io.loads": calls["trace.io.load"],
        "trace.arena.get_s": busy["trace.arena"],
        "indexing.decode_s": busy["indexing"],
        "indexing.decode_calls": calls["indexing"],
        "indexing.refs_decoded": refs["indexing"],
        "indexing.decode_reuse_ratio": ratio(len(set(values["indexing"])), calls["indexing"]),
    }
    for layer in KERNEL_MODULES:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.ns_per_ref"] = ratio(busy[layer] * 1e9, refs[layer])
    loads = values["engine.store.load"]
    m.update({
        "dispatch.busy_s": busy["dispatch"],
        "dispatch.calls": calls["dispatch"],
        "simulator.sequential_s": busy["simulator"],
        "simulator.sequential_refs": refs["simulator"],
        "simulator.ns_per_ref": ratio(busy["simulator"] * 1e9, refs["simulator"]),
        "simulator.fallback_calls": fallback,
        "simulator.direct_calls": direct,
        "multithread.busy_s": busy["multithread"],
        "multithread.calls": calls["multithread"],
        "engine.plan_s": busy["engine.plan"],
        "engine.plan_calls": calls["engine.plan"],
        "engine.store.load_s": busy["engine.store.load"],
        "engine.store.loads": calls["engine.store.load"],
        "engine.store.hit_ratio": ratio(sum(1 for v in loads if v), len(loads)),
        "engine.store.store_s": busy["engine.store.store"],
        "engine.store.stores": calls["engine.store.store"],
        "engine.store.bytes_written": sum(v or 0 for v in values["engine.store.store"]),
        "report.busy_s": busy["report"],
        "trace.coverage": ratio(top_level, traced_wall_s),
    })
    return m
