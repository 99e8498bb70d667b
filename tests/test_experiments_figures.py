"""Tests for the figure/table generators (quick-scale pipeline)."""

import pytest

from repro.experiments.figures import (
    evaluator_validation,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    section8_overheads,
    table1,
    table3,
    table4,
    table5,
)


class TestStaticTables:
    def test_table1(self):
        result = table1()
        assert result.total == 626_688_000_000
        assert "627bn" in result.render()

    def test_table5_without_pipeline(self):
        result = table5(None)
        assert result.cycles["l2"] == max(result.cycles.values())
        assert "Table V" in result.render()


class TestPipelineFigures:
    def test_table3(self, quick_pipeline):
        result = table3(quick_pipeline)
        assert result.config == quick_pipeline.baseline_config
        assert "baseline" in result.render()

    def test_figure3(self, quick_pipeline):
        result = figure3(quick_pipeline,
                         phases=(("mcf", 0), ("swim", 0), ("crafty", 1)))
        assert len(result.phases) == 3
        for data in result.phases.values():
            sizes = [s for s, _ in data["efficiency_curve"]]
            assert sizes == sorted(sizes)
        assert "LSQ" in result.render()

    def test_figure4(self, quick_pipeline):
        result = figure4(quick_pipeline)
        assert set(result.advanced) == set(quick_pipeline.benchmark_names)
        assert result.advanced_average > 0
        assert "AVERAGE" in result.render()

    def test_figure5(self, quick_pipeline):
        result = figure5(quick_pipeline)
        assert set(result.performance) == set(quick_pipeline.benchmark_names)
        assert all(v > 0 for v in result.energy.values())

    def test_figure6(self, quick_pipeline):
        result = figure6(quick_pipeline)
        model_avg, perprog_avg, oracle_avg = result.averages
        assert oracle_avg >= perprog_avg - 1e-9
        assert 0 <= result.fraction_of_available <= 3

    def test_figure7(self, quick_pipeline):
        result = figure7(quick_pipeline)
        n = len(quick_pipeline.phase_keys)
        assert len(result.ratios_vs_baseline) == n
        assert all(r > 0 for r in result.ratios_vs_best)
        assert 0 <= result.frac_better_than_baseline <= 1
        assert "ecdf" in result.render()

    def test_figure8(self, quick_pipeline):
        result = figure8(quick_pipeline, parameters=("width",))
        shares = [v["best_share"]
                  for v in result.distributions["width"].values()]
        assert sum(shares) == pytest.approx(1.0)

    def test_table4_and_figure9(self, quick_pipeline):
        plan = table4(quick_pipeline, max_traces=4)
        assert all(v >= 1 for v in plan.sampled_sets.values())
        overheads = figure9(quick_pipeline, plan)
        assert 0 < overheads.max_dynamic < 0.5
        assert "dynamic" in overheads.render()

    def test_section8(self, quick_pipeline):
        args = dict(programs=quick_pipeline.benchmark_names[:2],
                    max_intervals=8)
        result = section8_overheads(quick_pipeline, **args)
        assert 0 <= result.reconfiguration_rate <= 1
        assert result.time_overhead < 0.5
        assert "reconfiguration rate" in result.render()
        # A second call is served from the store: equal, no recompute.
        store = quick_pipeline.store
        hits, misses = store.hits, store.misses
        assert section8_overheads(quick_pipeline, **args) == result
        assert store.misses == misses
        assert store.hits > hits

    def test_evaluator_validation(self, quick_pipeline):
        result = evaluator_validation(quick_pipeline, n_phases=2,
                                      n_configs=5)
        assert len(result.rank_correlations) == 2
        assert all(-1 <= c <= 1 for c in result.rank_correlations.values())
