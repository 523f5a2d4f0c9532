"""End-to-end experiment tests at reduced scale.

These assert the *shape criteria* from DESIGN.md §4 — the qualitative
structure of each paper figure — not absolute numbers.  They run the full
pipeline (workload generation → simulation → reporting) at a small trace
length, with the trace cache pointed at a tmp dir.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    MULTITHREAD_MIXES_FIG13,
    MULTITHREAD_MIXES_FIG14,
    PaperConfig,
    available_experiments,
    run_experiment,
)
from repro.workloads.mibench import MIBENCH_ORDER
from repro.workloads.spec import SPEC_ORDER


@pytest.fixture(scope="module")
def config(tmp_path_factory) -> PaperConfig:
    return replace(
        PaperConfig(),
        ref_limit=30_000,
        trace_cache_dir=tmp_path_factory.mktemp("traces"),
    )


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {"fig1", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13", "fig14"}
        assert expected <= set(available_experiments())

    def test_unknown_experiment(self, config):
        with pytest.raises(KeyError):
            run_experiment("fig99", config)


class TestFig1(object):
    def test_nonuniformity_shape(self, config):
        r = run_experiment("fig1", config)
        # Paper: majority of sets below half average, small hot fraction.
        assert r.value("sets_below_half_avg_%", "value") > 50.0
        assert 0.0 < r.value("sets_above_double_avg_%", "value") < 40.0
        assert r.value("kurtosis", "value") > 3.0
        assert r.arrays["accesses_per_set"].size == 1024


class TestFig4:
    def test_rows_and_columns(self, config):
        r = run_experiment("fig4", config)
        assert set(r.rows) == set(MIBENCH_ORDER) | {"Average"}
        assert len(r.columns) == 5

    def test_mixed_signs_no_universal_winner(self, config):
        r = run_experiment("fig4", config)
        for col in r.columns:
            values = list(r.column(col).values())
            assert any(v < 0 for v in values) or any(abs(v) < 1e-9 for v in values), col
        # No scheme wins every benchmark.
        for col in r.columns:
            assert not all(
                r.rows[b].get(col, -1) >= max(r.rows[b].values()) - 1e-9
                for b in MIBENCH_ORDER
            )

    def test_fft_gains_are_large(self, config):
        """The aliasing real/imag arrays make fft the big indexing winner."""
        r = run_experiment("fig4", config)
        assert max(r.rows["fft"].values()) > 50.0


class TestFig6Fig7:
    def test_fig6_mostly_nonnegative(self, config):
        r = run_experiment("fig6", config)
        values = [v for b in MIBENCH_ORDER for v in r.rows[b].values()]
        negatives = [v for v in values if v < -5.0]
        assert len(negatives) <= 2  # paper: all >= 0; tolerate small noise

    def test_fig6_quiet_benchmarks(self, config):
        """bitcount/crc/qsort-class benchmarks show small effects for at
        least one scheme (the paper calls them negligible)."""
        r = run_experiment("fig6", config)
        assert abs(r.rows["susan"]["Column_associative"]) < 10.0

    def test_fig7_same_columns(self, config):
        r6 = run_experiment("fig6", config)
        r7 = run_experiment("fig7", config)
        assert r6.columns == r7.columns
        assert set(r7.rows) == set(r6.rows)

    def test_fig6_cached_with_fig7(self, config):
        assert run_experiment("fig6", config) is run_experiment("fig6", config)


class TestMomentFigures:
    @pytest.mark.parametrize("eid", ["fig9", "fig10"])
    def test_indexing_moment_figures(self, config, eid):
        r = run_experiment(eid, config)
        assert set(r.rows) == set(MIBENCH_ORDER) | {"Average"}

    @pytest.mark.parametrize("eid", ["fig11", "fig12"])
    def test_progassoc_reduces_moments_for_most(self, config, eid):
        r = run_experiment(eid, config)
        adaptives = [r.rows[b]["Adaptive_Cache"] for b in MIBENCH_ORDER]
        # Strong uniformity improvement: most benchmarks negative.
        assert sum(1 for v in adaptives if v <= 0) >= len(adaptives) // 2


class TestFig8:
    def test_rows(self, config):
        r = run_experiment("fig8", config)
        assert set(r.rows) == set(SPEC_ORDER) | {"Average"}

    def test_some_regressions_exist(self, config):
        """Paper: 'for some benchmarks the performance deteriorates'."""
        r = run_experiment("fig8", config)
        values = [v for b in SPEC_ORDER for v in r.rows[b].values()]
        assert any(v < 0 for v in values)


class TestFig13:
    def test_rows_are_mixes(self, config):
        r = run_experiment("fig13", config)
        assert len(r.rows) == len(MULTITHREAD_MIXES_FIG13) + 1

    def test_average_reduction_positive(self, config):
        r = run_experiment("fig13", config)
        assert r.value("Average", "reduction") > 0.0

    def test_conflict_heavy_mixes_gain_substantially(self, config):
        r = run_experiment("fig13", config)
        assert r.value("fft_susan", "reduction") > 20.0


class TestFig14:
    def test_rows_are_mixes(self, config):
        r = run_experiment("fig14", config)
        assert len(r.rows) == len(MULTITHREAD_MIXES_FIG14) + 1

    def test_average_improvement_positive(self, config):
        r = run_experiment("fig14", config)
        assert r.value("Average", "improvement") > 0.0

    def test_peak_improvement_large(self, config):
        """Paper: 'can reduce the AMAT by 60% for some applications'."""
        r = run_experiment("fig14", config)
        best = max(r.column("improvement").values())
        assert best > 40.0


class TestFigureMemo:
    """fig4 and fig6 memoize one result per process, keyed on the config."""

    @pytest.fixture
    def configs(self, tmp_path) -> tuple[PaperConfig, PaperConfig]:
        base = replace(
            PaperConfig(), ref_limit=3000, trace_cache_dir=tmp_path / "traces"
        )
        half = replace(base.geometry, capacity_bytes=base.geometry.capacity_bytes // 2)
        return base, replace(base, geometry=half)

    @pytest.mark.parametrize("experiment", ["fig4", "fig6"])
    def test_geometry_change_is_not_served_stale(self, configs, experiment):
        full, half = configs
        rows_full = run_experiment(experiment, full).rows
        rows_half = run_experiment(experiment, half).rows
        assert rows_full != rows_half

    def test_dependent_figures_reuse_the_memo(self, configs, monkeypatch):
        from repro.experiments import fig04_indexing_missrate as fig04
        from repro.experiments import fig06_progassoc_missrate as fig06

        _, config = configs
        run_experiment("fig4", config)
        run_experiment("fig6", config)

        def recompute(_config):
            raise AssertionError("memoized figure was recomputed")

        monkeypatch.setattr(fig04, "_run_fig04", recompute)
        monkeypatch.setattr(fig06, "_run_progassoc", recompute)
        for experiment in ("fig7", "fig9", "fig10"):
            run_experiment(experiment, config)
