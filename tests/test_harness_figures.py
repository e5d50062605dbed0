"""Smoke/shape tests for the per-figure harness (small trace lengths)."""


import pytest

from repro.harness.figures import (
    ALL_FIGURES,
    ablation_victim_policy,
    figure_01,
    figure_07,
    figure_09,
    figure_10,
    figure_16,
    run_figure,
)
from repro.harness.runner import ParallelRunner

SMALL = 15_000
BENCH_SUBSET = ("gzip", "mcf")


class TestRegistry:
    def test_every_paper_figure_present(self):
        for i in range(1, 18):
            assert f"fig{i:02d}" in ALL_FIGURES

    def test_ablations_present(self):
        assert "ablation_distance" in ALL_FIGURES
        assert "ablation_victim_policy" in ALL_FIGURES


class TestRunFigure:
    @pytest.mark.parametrize("figure_id", ["fig10", "comparison_area"])
    def test_pool_rows_match_serial_and_count_each_job_once(self, figure_id):
        serial = ParallelRunner(jobs=1)
        rows = run_figure(figure_id, runner=serial, n=3_000).rows
        assert rows == ALL_FIGURES[figure_id](n=3_000).rows
        distinct = serial.stats.simulated
        assert (distinct > 0) == (figure_id == "fig10")

        pool = ParallelRunner(jobs=2)
        assert run_figure(figure_id, runner=pool, n=3_000).rows == rows
        assert pool.stats.jobs == pool.stats.simulated == distinct


class TestFigureShapes:
    def test_figure_01_columns(self):
        result = figure_01(n=SMALL, benchmarks=BENCH_SUBSET)
        assert result.columns == ["benchmark", "single_attempt", "multi_attempt"]
        assert len(result.rows) == 2
        for _, single, multi in result.rows:
            assert 0.0 <= single <= 1.0
            assert multi >= single  # more attempts never reduce ability

    def test_figure_07_ls_vs_s(self):
        result = figure_07(n=SMALL, benchmarks=BENCH_SUBSET)
        for _, ls, s in result.rows:
            assert 0.0 <= s <= 1.0 and 0.0 <= ls <= 1.0

    def test_figure_09_normalized_to_basep(self):
        result = figure_09(n=SMALL, benchmarks=("gzip",), schemes=("BaseP", "BaseECC"))
        row = result.rows[0]
        assert row[1] == 1.0  # BaseP normalizes to itself
        assert row[2] > 1.0  # BaseECC slower

    def test_figure_10_window_sweep(self):
        result = figure_10(n=SMALL)
        windows = result.column("decay_window")
        assert windows[0] == 0 and windows[-1] == 10000

    def test_figure_16_ratios_positive(self):
        result = figure_16(n=SMALL, benchmarks=("gzip",))
        _, cycles_ratio, energy_ratio = result.rows[0]
        assert cycles_ratio > 0.5
        assert energy_ratio > 1.0  # write-through burns more energy

    def test_tables_render(self):
        result = figure_01(n=SMALL, benchmarks=("gzip",))
        table = result.to_table()
        assert "Fig 1" in table
        assert "gzip" in table

    def test_averages(self):
        result = figure_01(n=SMALL, benchmarks=BENCH_SUBSET)
        avgs = result.averages()
        assert set(avgs) == {"single_attempt", "multi_attempt"}

    def test_ablation_victim_policy_rows(self):
        result = ablation_victim_policy(n=SMALL, benchmark="gzip")
        policies = result.column("policy")
        assert set(policies) == {
            "dead-only", "dead-first", "replica-first", "replica-only"
        }


class TestJsonRoundTrip:
    def test_roundtrip(self):
        from repro.harness.figures import FigureResult

        original = FigureResult(
            "Fig X", "title", "claim", ["a", "b"], [["r1", 1.5], ["r2", 2.0]]
        )
        restored = FigureResult.from_json(original.to_json())
        assert restored.figure_id == original.figure_id
        assert restored.columns == original.columns
        assert restored.rows == original.rows

    def test_json_is_valid(self):
        import json

        from repro.harness.figures import comparison_area

        parsed = json.loads(comparison_area().to_json())
        assert parsed["figure_id"] == "Comparison C3"
        assert len(parsed["rows"]) == 4
