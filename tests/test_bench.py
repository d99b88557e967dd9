"""Tests for the benchmark harness and (fast) experiment runners."""

import math

import pytest

from repro.bench.harness import doubling_ratios, loglog_slope, time_callable
from repro.bench.reporting import ExperimentResult, format_table
from repro.bench.experiments import (
    figure1_instance,
    run_e0_figure1,
    run_e1_elimination_examples,
    run_e5_bsm_vs_baselines,
    run_e7_shapley_vs_baselines,
    run_e11_law_census,
)


class TestHarness:
    def test_time_callable_returns_result(self):
        elapsed, result = time_callable(lambda: 42, repeats=2)
        assert result == 42
        assert elapsed >= 0

    def test_loglog_slope_recovers_exponent(self):
        xs = [10, 20, 40, 80]
        for exponent in (1.0, 2.0, 0.5):
            ys = [x**exponent for x in xs]
            assert loglog_slope(xs, ys) == pytest.approx(exponent, abs=1e-9)

    def test_loglog_slope_input_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1], [1])
        with pytest.raises(ValueError):
            loglog_slope([2, 2], [1, 2])

    def test_doubling_ratios(self):
        assert doubling_ratios([1, 2, 4]) == [2, 2]
        assert doubling_ratios([0, 5]) == [math.inf]


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_experiment_result_render(self):
        result = ExperimentResult("EX", "demo", ("x",))
        result.add_row(1)
        result.add_note("a note")
        rendered = result.render()
        assert "EX" in rendered and "demo" in rendered and "a note" in rendered

    def test_float_formatting(self):
        table = format_table(("v",), [(0.5,), (1e-9,), (0.0,)])
        assert "0.5000" in table
        assert "e-09" in table


class TestFastExperiments:
    def test_figure1_instance_matches_paper(self):
        query, instance = figure1_instance()
        assert len(instance.database) == 4
        assert len(instance.repair_database) == 4
        assert instance.budget == 2

    def test_e0(self):
        result = run_e0_figure1()
        values = {row[0]: row[1] for row in result.rows}
        assert values["no repair (paper: 1)"] == 1
        assert values["add R(1,6), R(1,7) (paper: 3)"] == 3
        assert values["unified algorithm optimum (paper: 4)"] == 4
        assert values["brute-force optimum (paper: 4)"] == 4

    def test_e1(self):
        result = run_e1_elimination_examples()
        outcomes = {row[3]: row[2] for row in result.rows}
        # measured outcome equals the paper's expectation for every example
        for row in result.rows:
            assert row[2] == row[3]
        assert "Stuck" in outcomes

    def test_e5(self):
        result = run_e5_bsm_vs_baselines(seeds=(0, 1))
        for row in result.rows:
            _seed, _d, _dr, _theta, unified, brute, greedy, gap = row
            assert unified == brute
            assert greedy <= unified
            assert gap == unified - greedy

    def test_e7(self):
        result = run_e7_shapley_vs_baselines(sample_counts=(50,))
        rows = {row[0]: row for row in result.rows}
        assert rows["unified (#Sat)"][3] == 0
        assert rows["permutations (Def. 5.12)"][3] == 0

    def test_e11(self):
        result = run_e11_law_census()
        by_name = {row[0]: row for row in result.rows}
        for name in ("probability", "bag-set maximization", "#Sat / Shapley"):
            assert by_name[name][1] == "ok"
            assert by_name[name][2] == "NO", f"{name} must not distribute"
        assert by_name["#Sat / Shapley"][3] == "NO"
        assert by_name["counting (N, +, ×)"][2] == "yes"
