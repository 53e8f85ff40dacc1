"""Tests for the objective/frontier layer (repro.analysis.frontier)."""

import math

import pytest

from repro.analysis.frontier import (
    OBJECTIVES,
    Objective,
    design_cost,
    dominates,
    pareto_frontier,
    resolve_objectives,
    scale_next_rows,
)
from repro.gpu import PAPER_DESIGN_OPTIONS, DesignOption, get_design_option


class TestObjectives:
    def test_known_objectives(self):
        assert set(OBJECTIVES) == {"throughput", "time", "dram", "cost"}

    def test_resolve_preserves_order(self):
        resolved = resolve_objectives(("cost", "throughput"))
        assert [obj.name for obj in resolved] == ["cost", "throughput"]

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown objective"):
            resolve_objectives(("throughput", "latency"))
        with pytest.raises(ValueError, match="at least one"):
            resolve_objectives(())

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            Objective("x", "x", "sideways", "x")

    def test_oriented_flips_min_objectives(self):
        time = OBJECTIVES["time"]
        assert time.oriented(2.0) < time.oriented(1.0)
        throughput = OBJECTIVES["throughput"]
        assert throughput.oriented(2.0) > throughput.oriented(1.0)


class TestDominance:
    OBJS = (Objective("tput", "tput", "max", ""),
            Objective("cost", "cost", "min", ""))

    def test_strictly_better_dominates(self):
        assert dominates({"tput": 2, "cost": 1}, {"tput": 1, "cost": 2},
                         self.OBJS)

    def test_tradeoff_does_not_dominate(self):
        assert not dominates({"tput": 2, "cost": 2}, {"tput": 1, "cost": 1},
                             self.OBJS)
        assert not dominates({"tput": 1, "cost": 1}, {"tput": 2, "cost": 2},
                             self.OBJS)

    def test_equal_rows_do_not_dominate_each_other(self):
        row = {"tput": 1, "cost": 1}
        assert not dominates(row, dict(row), self.OBJS)

    def test_nan_never_dominates_nor_is_dominated(self):
        # agrees with pareto_frontier, which keeps the NaN row.
        better = {"tput": 2, "cost": 0}
        for nan_row in ({"tput": math.nan, "cost": 1},
                        {"tput": 1, "cost": math.nan}):
            assert not dominates(better, nan_row, self.OBJS)
            assert not dominates(nan_row, better, self.OBJS)
            assert pareto_frontier([better, nan_row], self.OBJS) == [0, 1]
        maximize = (Objective("a", "a", "max", ""),
                    Objective("b", "b", "max", ""))
        assert not dominates({"a": 1, "b": 1}, {"a": math.nan, "b": 0},
                             maximize)


class TestParetoFrontier:
    OBJS = (Objective("tput", "tput", "max", ""),
            Objective("cost", "cost", "min", ""))

    def test_two_dimensional_frontier(self):
        rows = [
            {"tput": 1.0, "cost": 1.0},   # frontier (cheapest)
            {"tput": 2.0, "cost": 2.0},   # frontier (tradeoff)
            {"tput": 1.5, "cost": 3.0},   # dominated by row 1
            {"tput": 3.0, "cost": 2.5},   # frontier (fastest)
            {"tput": 0.5, "cost": 1.0},   # dominated by row 0
        ]
        assert pareto_frontier(rows, self.OBJS) == [0, 1, 3]

    def test_single_objective_reduces_to_argmax(self):
        rows = [{"tput": 1.0}, {"tput": 3.0}, {"tput": 2.0}]
        assert pareto_frontier(rows, self.OBJS[:1]) == [1]

    def test_three_dimensional_frontier(self):
        objs = self.OBJS + (Objective("dram", "dram", "min", ""),)
        rows = [
            {"tput": 1.0, "cost": 1.0, "dram": 5.0},
            {"tput": 1.0, "cost": 1.0, "dram": 4.0},  # dominates row 0
            {"tput": 2.0, "cost": 3.0, "dram": 6.0},
        ]
        assert pareto_frontier(rows, objs) == [1, 2]

    def test_duplicate_points_all_kept(self):
        rows = [{"tput": 1.0, "cost": 1.0}, {"tput": 1.0, "cost": 1.0}]
        assert pareto_frontier(rows, self.OBJS) == [0, 1]

    def test_empty_input(self):
        assert pareto_frontier([], self.OBJS) == []


class TestDesignCost:
    def test_baseline_costs_one(self):
        assert design_cost(DesignOption("identity")) == pytest.approx(1.0)

    def test_cost_monotone_in_every_resource(self):
        base = design_cost(DesignOption("identity"))
        for key in ("num_sm", "mac_bw", "regs", "smem_size", "smem_bw",
                    "l1_bw", "l2_bw", "dram_bw"):
            scaled = design_cost(DesignOption("x", **{key: 2.0}))
            assert scaled > base, key

    def test_cta_tile_is_free(self):
        assert design_cost(DesignOption("x", cta_tile_hw=256)) == \
            design_cost(DesignOption("x", cta_tile_hw=128))

    def test_balanced_option5_cheaper_than_bruteforce_option2(self):
        """The paper's headline: option 5 matches option 2's speedup with far
        fewer resources — the cost proxy must agree on 'fewer resources'."""
        assert design_cost(get_design_option("5")) < \
            design_cost(get_design_option("2"))

    def test_all_paper_options_cost_more_than_baseline(self):
        for option in PAPER_DESIGN_OPTIONS:
            assert design_cost(option) > 1.0


class TestScaleNextRows:
    def test_ranks_by_time_weighted_share(self):
        results = [
            {"time_s": 3.0, "bottlenecks": {"DRAM_BW": 0.9, "MAC_BW": 0.1}},
            {"time_s": 1.0, "bottlenecks": {"MAC_BW": 1.0}},
        ]
        rows = scale_next_rows(results)
        assert rows[0]["bottleneck"] == "DRAM_BW"
        assert rows[0]["scale_next"] == "dram_bw"
        assert rows[0]["time_share"] == pytest.approx(2.7 / 4.0)
        assert rows[1]["bottleneck"] == "MAC_BW"
        assert rows[1]["time_share"] == pytest.approx(1.3 / 4.0)

    def test_shares_sum_to_at_most_one(self):
        results = [{"time_s": 2.0,
                    "bottlenecks": {"L2_BW": 0.5, "DRAM_LAT": 0.5}}]
        rows = scale_next_rows(results)
        assert sum(row["time_share"] for row in rows) == pytest.approx(1.0)

    def test_empty_results(self):
        assert scale_next_rows([]) == []
        assert scale_next_rows([{"time_s": 0.0, "bottlenecks": {}}]) == []
