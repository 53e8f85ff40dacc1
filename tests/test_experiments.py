"""Tests for the per-figure experiment modules and their registry."""

import pytest

from repro.analysis.validation import ValidationConfig
from repro.experiments import (
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments import (
    fig04_miss_rates,
    fig06_cta_tile,
    fig11_traffic_accuracy,
    fig12_prior_traffic,
    fig13_perf_titanxp,
    fig15_perf_distribution,
    fig16_scaling,
    fig18_dram_microbench,
    fig19_cycles,
    fig20_traffic_absolute,
    tab01_specs,
)
from repro.gpu import TITAN_XP

#: a deliberately tiny validation configuration so experiment tests run fast.
TINY = ValidationConfig(batch=4, max_ctas=40, layers_per_network=1)


class TestRegistry:
    def test_all_paper_items_registered(self):
        expected = {"tab01", "fig04", "fig06", "fig11", "fig12", "fig13",
                    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
                    "fig20", "training", "transformer", "dse"}
        assert set(available_experiments()) == expected

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_run_experiment_dispatches(self):
        result = run_experiment("tab01")
        assert result.kind == "experiment"
        assert result.report_id == "tab01"


class TestFastExperiments:
    def test_tab01_lists_three_devices(self):
        result = tab01_specs.run()
        assert len(result.rows) == 3
        names = {row["Specification"] for row in result.rows}
        assert names == {"TITAN Xp", "P100", "V100"}

    def test_fig06_tile_width_monotonic_in_channels(self):
        result = fig06_cta_tile.run(channel_counts=[8, 40, 80, 200])
        widths = [row["blk_n"] for row in result.rows]
        assert widths == sorted(widths)
        assert result.summary["tile_widths_used"] == "32, 64, 128"

    def test_fig16_scaling_shape(self):
        result = fig16_scaling.run(batch=32)
        speedups = dict(result.series["speedup vs TITAN Xp"])
        # conventional 4x-SM scaling beats 2x-SM scaling; balanced option 5 is
        # competitive; the aggressive option 9 is the best or near-best.
        assert speedups["2"] > speedups["1"] > 1.0
        assert speedups["9"] >= speedups["5"]
        assert result.summary["best_speedup"] >= speedups["2"]

    def test_fig18_bandwidth_ordering(self):
        result = fig18_dram_microbench.run(num_points=24)
        bw = {row["gpu"]: row["effective_bandwidth_gbps"] for row in result.rows}
        assert bw["TITAN Xp"] < bw["P100"] < bw["V100"]
        assert result.series  # latency curves present

    def test_render_produces_text(self):
        text = tab01_specs.run().render()
        assert "Table I" in text
        assert "TITAN Xp" in text


class TestSimulationBackedExperiments:
    """Each experiment runs on a tiny layer population to stay fast."""

    def test_fig04_miss_rate_spread(self):
        result = fig04_miss_rates.run(batch=4, max_ctas=40,
                                      layer_names=("3a_1x1", "3a_3x3"))
        assert len(result.rows) == 2
        assert all(0 <= row["L1 miss rate"] <= 1 for row in result.rows)
        assert result.summary["l2_miss_rate_max"] <= 1.0

    def test_fig11_ratios_near_unity(self):
        result = fig11_traffic_accuracy.run(devices=[TITAN_XP], config=TINY)
        for row in result.rows:
            for level in ("l1", "l2", "dram"):
                assert 0.2 < row[f"{level}_ratio"] < 5.0
        assert f"{TITAN_XP.name} DRAM GMAE" in result.summary

    def test_fig12_prior_model_overpredicts(self):
        result = fig12_prior_traffic.run(config=TINY)
        assert (result.summary["prior_dram_geomean_ratio"]
                > result.summary["delta_dram_geomean_ratio"])
        assert result.summary["prior_overprediction_vs_delta_dram"] > 2.0

    def test_fig13_time_accuracy_and_bottlenecks(self):
        result = fig13_perf_titanxp.run(config=TINY)
        assert 0.0 <= result.summary["time_gmae"] < 1.5
        assert result.summary["layers"] == len(result.rows)
        assert all(row["model_ms"] > 0 for row in result.rows)

    def test_fig15_prior_models_overpredict_time(self):
        result = fig15_perf_distribution.run(devices=[TITAN_XP], config=TINY,
                                             miss_rates=(0.5, 1.0))
        assert result.summary["MR1.0 mean_ratio"] >= result.summary["MR0.5 mean_ratio"]
        assert result.summary["MR1.0 mean_ratio"] > 1.0

    def test_fig19_cycles_have_wide_dynamic_range(self):
        result = fig19_cycles.run(config=TINY)
        assert result.summary["dynamic_range"] > 1.0
        assert all(row["measured_cycles"] > 0 for row in result.rows)

    def test_fig20_absolute_traffic_consistency(self):
        result = fig20_traffic_absolute.run(config=TINY)
        for row in result.rows:
            assert row["l1_measured_gb"] >= row["l2_measured_gb"]
            assert row["l1_model_gb"] >= row["l2_model_gb"]
