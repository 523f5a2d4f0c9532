"""Extension experiment: the full hybrid matrix.

The paper's Figure 8 explores one hybrid family (column-associative ×
indexing).  Section III promises "hybrid techniques that combine indexing
methods with programmable associativities" more broadly; this experiment
fills in the matrix: {column-associative, adaptive, victim} × {modulo, XOR,
odd-multiplier, prime-modulo} on the MiBench suite, reported as % miss
reduction versus the plain direct-mapped baseline so all cells share a
scale.

Every matrix entry is one engine cell.  The column-associative row is the
``colassoc`` cells Figure 8 uses, the modulo-indexed adaptive and victim
entries are ext-bounds' ``Adaptive`` and ``Victim8`` cells (same simulated
objects, so the result store answers them for both experiments), and the
rest are ``hybrid`` cells.  All of them take exact fast paths under
``engine="auto"``.
"""

from __future__ import annotations

from ..core.uniformity import percent_reduction
from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .engine import ExperimentEngine, make_cell
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_hybrid"]

#: Matrix column → the ``(kind, label)`` of the cell that simulates it.
EXT_HYBRID_CELLS: dict[str, tuple[str, str]] = {
    "ColAssoc+modulo": ("colassoc", "ColAssoc_Base"),
    "ColAssoc+xor": ("colassoc", "ColAssoc_XOR"),
    "ColAssoc+odd": ("colassoc", "ColAssoc_Odd_Multiplier"),
    "ColAssoc+prime": ("colassoc", "ColAssoc_Prime_Modulo"),
    "Adaptive+modulo": ("bounds", "Adaptive"),
    "Adaptive+xor": ("hybrid", "Adaptive+xor"),
    "Adaptive+odd": ("hybrid", "Adaptive+odd_multiplier"),
    "Adaptive+prime": ("hybrid", "Adaptive+prime_modulo"),
    "Victim+modulo": ("bounds", "Victim8"),
    "Victim+xor": ("hybrid", "Victim+xor"),
    "Victim+odd": ("hybrid", "Victim+odd_multiplier"),
    "Victim+prime": ("hybrid", "Victim+prime_modulo"),
}


@register_experiment("ext-hybrid")
def run_ext_hybrid(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-hybrid",
        title="% miss reduction vs DM: programmable associativity x indexing",
        columns=list(EXT_HYBRID_CELLS),
    )
    cells = []
    for bench in MIBENCH_ORDER:
        cells.append(make_cell("baseline", bench, "baseline", config))
        cells.extend(
            make_cell(kind, bench, label, config)
            for kind, label in EXT_HYBRID_CELLS.values()
        )
    sims, stats = ExperimentEngine(config).run(cells)
    for bench in MIBENCH_ORDER:
        base = sims[(bench, "baseline")]
        row = {
            column: percent_reduction(sims[(bench, label)].misses, base.misses)
            for column, (_kind, label) in EXT_HYBRID_CELLS.items()
        }
        result.add_row(bench, row)
    result.add_average_row()
    result.note("generalises the paper's Figure 8 beyond the column-associative cache")
    result.engine_stats = stats.as_dict()
    return result


from .warm import provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-hybrid")
def ext_hybrid_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in MIBENCH_ORDER]
