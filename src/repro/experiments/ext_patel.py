"""Extension experiment: Patel's application-specific index search.

The paper describes Patel et al.'s optimal reconfigurable indexing
(Section II.F) but excludes it from the evaluation "because of the
intractability of the computations".  Our bounded search (greedy forward
selection + budgeted local search over the exact conflict-cost objective,
see :mod:`repro.core.indexing.patel`) makes a scaled-down evaluation
possible: this experiment compares Patel-selected indexes against the XOR
and Givargis indexes at the config geometry, with a small local-search
budget (:data:`~repro.experiments.engine.cells.PATEL_SWAP_MOVES`).

Each entry is one engine ``indexing`` cell: ``Patel_train`` is fitted on
the evaluation trace itself (the upper bound the original authors target),
``Patel_transfer`` on the profiling input (deployment reality), as
Givargis is.

Shape expectation: Patel ≥ Givargis ≥/≈ conventional on the training input
(it directly minimises the evaluated objective), with the usual
profile-transfer caveats on a different input.
"""

from __future__ import annotations

from ..core.uniformity import percent_reduction
from .config import PaperConfig
from .engine import ExperimentEngine, make_cell
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_patel"]

#: A subset of benchmarks keeps the search affordable.
PATEL_BENCHES = ["fft", "crc", "patricia", "dijkstra"]

PATEL_COLUMNS = ["XOR", "Givargis", "Patel_train", "Patel_transfer"]


@register_experiment("ext-patel")
def run_ext_patel(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-patel",
        title="% miss reduction vs conventional: Patel bounded search",
        columns=PATEL_COLUMNS,
    )
    cells = []
    for bench in PATEL_BENCHES:
        cells.append(make_cell("baseline", bench, "baseline", config))
        cells.extend(
            make_cell("indexing", bench, label, config) for label in PATEL_COLUMNS
        )
    sims, stats = ExperimentEngine(config).run(cells)
    for bench in PATEL_BENCHES:
        base = sims[(bench, "baseline")]
        row = {
            label: percent_reduction(sims[(bench, label)].misses, base.misses)
            for label in PATEL_COLUMNS
        }
        result.add_row(bench, row)
    result.add_average_row()
    result.note("Patel_train minimises the exact objective it is scored on")
    result.note("the paper skipped Patel as intractable; this is the bounded variant")
    result.engine_stats = stats.as_dict()
    return result


from .warm import profile_spec, provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-patel")
def ext_patel_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in PATEL_BENCHES] + [
        profile_spec(b, config) for b in PATEL_BENCHES
    ]
