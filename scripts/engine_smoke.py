#!/usr/bin/env python
"""Engine-equivalence smoke: the fast paths reproduce the sequential models.

Runs each experiment at 4000 refs twice without the result cache, once with
``engine="sequential"`` (the reference cache models) and once with
``engine="auto"`` (the vectorised fast paths), and requires

* every row value equal at full float precision (compared through
  ``repr``, so NaN matches NaN and nothing is rounded), and
* every array equal bit for bit: same dtype, same shape, same bytes.

Exits 1 naming the first entry that differs in each failing experiment.

Run:  PYTHONPATH=src python scripts/engine_smoke.py   (or: make engine-smoke)
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import numpy as np

from repro.experiments import PaperConfig, run_experiment

#: Experiments whose every cell has a vectorised fast path under "auto".
IDS = ("ext-policy", "ext-aux", "fig8", "ext-hybrid", "ext-hpc", "ext-patel")


def _entries(result) -> dict[str, bytes]:
    """Every row value and array of ``result`` as exact, comparable bytes."""
    out = {}
    for row, values in result.rows.items():
        for col, value in values.items():
            out[f"rows[{row}][{col}]"] = repr(value).encode()
    for name, value in result.arrays.items():
        if isinstance(value, np.ndarray):
            head = json.dumps([value.dtype.str, list(value.shape)]).encode()
            out[f"arrays[{name}]"] = head + np.ascontiguousarray(value).tobytes()
        else:
            out[f"arrays[{name}]"] = json.dumps(value, sort_keys=True, default=repr).encode()
    return out


def compare(eid: str, config: PaperConfig) -> str | None:
    """``None`` if both engines agree on ``eid``, else what differs."""
    seq = _entries(run_experiment(eid, replace(config, engine="sequential")))
    auto = _entries(run_experiment(eid, replace(config, engine="auto")))
    if list(seq) != list(auto):
        return f"{eid}: entry sets differ: {sorted(set(seq) ^ set(auto))[:5]}"
    for name, blob in seq.items():
        if auto[name] != blob:
            return f"{eid}: {name} differs (sequential {blob[:60]!r}, auto {auto[name][:60]!r})"
    print(f"engine-smoke: {eid} sequential == auto ({len(seq)} entries)")
    return None


def main() -> int:
    config = replace(PaperConfig(), ref_limit=4000, jobs=1, use_result_cache=False)
    failures = [msg for eid in IDS if (msg := compare(eid, config))]
    for msg in failures:
        print(f"engine-smoke: FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
