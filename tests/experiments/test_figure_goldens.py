"""Golden regression tests for the reproduced figures.

``tests/experiments/goldens/*.json`` freezes the small-trace
(``ref_limit=15000``, seed 2011) miss-rate / uniformity outputs of fig1,
fig4, fig6, fig8, fig13, ext-assoc, ext-policy, ext-aux, ext-bounds,
ext-hybrid, ext-hpc and ext-patel.  Each golden file is tolerance-tagged (``rtol``/``atol``
inside the file) so refactors of the execution layer — the parallel engine,
the result cache, future sharding — cannot silently shift reproduced
numbers.  If a change *intentionally* alters the numbers, regenerate the
goldens with::

    PYTHONPATH=src python tests/experiments/test_figure_goldens.py --regen

and justify the shift in the PR description.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import PaperConfig, run_experiment

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_IDS = [
    "fig1",
    "fig4",
    "fig6",
    "fig8",
    "fig13",
    "ext-assoc",
    "ext-policy",
    "ext-aux",
    "ext-bounds",
    "ext-hybrid",
    "ext-hpc",
    "ext-patel",
]
GOLDEN_REFS = 15_000


@pytest.fixture(scope="module")
def config(tmp_path_factory) -> PaperConfig:
    return replace(
        PaperConfig(),
        ref_limit=GOLDEN_REFS,
        trace_cache_dir=tmp_path_factory.mktemp("golden_traces"),
    )


def _load_golden(eid: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{eid}.json").read_text())


@pytest.mark.parametrize("eid", GOLDEN_IDS)
def test_figure_matches_golden(eid, config):
    golden = _load_golden(eid)
    assert golden["config"]["ref_limit"] == config.ref_limit
    assert golden["config"]["seed"] == config.seed
    rtol = golden["tolerance"]["rtol"]
    atol = golden["tolerance"]["atol"]

    result = run_experiment(eid, config)
    assert result.columns == golden["columns"]
    assert list(result.rows) == list(golden["rows"]), "row set/order drifted"
    for row_label, expected_row in golden["rows"].items():
        actual_row = result.rows[row_label]
        assert set(actual_row) == set(expected_row), row_label
        for col, expected in expected_row.items():
            actual = actual_row[col]
            if isinstance(expected, float) and math.isnan(expected):
                assert math.isnan(actual), f"{eid}[{row_label}][{col}]"
                continue
            assert math.isclose(actual, expected, rel_tol=rtol, abs_tol=atol), (
                f"{eid}[{row_label}][{col}]: got {actual!r}, golden {expected!r} "
                f"(rtol={rtol}, atol={atol})"
            )


@pytest.mark.parametrize("eid", GOLDEN_IDS)
def test_golden_file_wellformed(eid):
    golden = _load_golden(eid)
    assert golden["experiment_id"] == eid
    assert golden["tolerance"]["rtol"] > 0
    assert golden["rows"], "golden must freeze at least one row"


def _regen() -> None:  # pragma: no cover - maintenance entry point
    import tempfile

    cfg = replace(
        PaperConfig(),
        ref_limit=GOLDEN_REFS,
        trace_cache_dir=Path(tempfile.mkdtemp()),
    )
    for eid in GOLDEN_IDS:
        r = run_experiment(eid, cfg)
        doc = {
            "experiment_id": eid,
            "title": r.title,
            "config": {
                "ref_limit": GOLDEN_REFS,
                "seed": cfg.seed,
                "workload_scale": cfg.workload_scale,
            },
            "tolerance": {"rtol": 1e-7, "atol": 1e-9},
            "unit": r.unit,
            "columns": r.columns,
            "rows": r.rows,
        }
        path = GOLDEN_DIR / f"{eid}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"regenerated {path}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        sys.exit("usage: test_figure_goldens.py --regen")
