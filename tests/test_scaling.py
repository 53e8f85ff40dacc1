"""Tests for the GPU resource scaling study (Section VII-C, Fig. 16).

The study is the DSE pipeline evaluated over the nine paper design options
(``repro.experiments.fig16_scaling``); these tests check the paper's
qualitative findings on ResNet152 at a reduced batch, which keeps the
evaluation fast while preserving each layer's compute/memory balance.
"""

import pytest

from repro.core.bottleneck import Bottleneck
from repro.dse import explore, space_from_options
from repro.experiments.fig16_scaling import run as run_fig16
from repro.gpu import PAPER_DESIGN_OPTIONS, TITAN_XP, get_design_option
from repro.networks import resnet152


def _speedups(result):
    return {row["option"]: row["speedup"]
            for row in result.rows if "speedup" in row}


def _shares(result):
    """Per-option bottleneck time shares keyed by :class:`Bottleneck`."""
    return {row["option"]: {Bottleneck(key): value
                            for key, value in row.items() if key != "option"}
            for row in result.rows
            if "speedup" not in row and "NSM" not in row}


@pytest.fixture(scope="module")
def study_results():
    return run_fig16(batch=64)


@pytest.fixture(scope="module")
def exploration():
    """The same nine-option study as the raw DSE exploration."""
    space = space_from_options(PAPER_DESIGN_OPTIONS, network="resnet152",
                               batch=64)
    return explore(space, base_gpu=TITAN_XP, objectives=("time",),
                   unique=False)


class TestScalingStudy:
    def test_one_result_per_option(self, study_results):
        assert len(_speedups(study_results)) == len(PAPER_DESIGN_OPTIONS)

    def test_all_speedups_positive(self, study_results):
        assert all(value > 0 for value in _speedups(study_results).values())

    def test_option2_beats_option1(self, study_results):
        speedups = _speedups(study_results)
        assert speedups["2"] > speedups["1"] > 1.0

    def test_compute_only_scaling_saturates(self, study_results):
        """Options 3-4 only add MAC throughput; the paper finds ~2x headroom."""
        speedups = _speedups(study_results)
        assert speedups["4"] < 2.6
        assert speedups["4"] < speedups["2"]

    def test_balanced_option5_close_to_option2(self, study_results):
        speedups = _speedups(study_results)
        assert speedups["5"] == pytest.approx(speedups["2"], rel=0.25)

    def test_option9_is_among_the_best(self, study_results):
        speedups = _speedups(study_results)
        best = max(speedups.values())
        assert speedups["9"] >= 0.8 * best
        assert speedups["9"] > speedups["5"]

    def test_bottleneck_distribution_sums_to_one(self, study_results):
        for distribution in _shares(study_results).values():
            assert sum(distribution.values()) == pytest.approx(1.0)
            assert all(0 <= share <= 1 for share in distribution.values())

    def test_compute_only_options_become_memory_bound(self, study_results):
        """Scaling MACs without memory shifts layers to memory bottlenecks."""
        shares = _shares(study_results)
        memory_share_opt4 = sum(share for key, share in shares["4"].items()
                                if key.is_memory_bound)
        memory_share_opt1 = sum(share for key, share in shares["1"].items()
                                if key.is_memory_bound)
        assert memory_share_opt4 > memory_share_opt1

    def test_bottleneck_counts_match_layer_count(self, exploration):
        """Every option evaluates every GEMM layer of the network."""
        layers = len(resnet152(batch=64).gemm_layers())
        for result in exploration.results:
            assert result.metrics["layers"] == layers
            assert result.metrics["gemms"] == layers

    def test_baseline_result_has_unit_speedup(self, exploration):
        baseline = next(iter(exploration.baselines.values()))
        assert exploration.speedup(baseline) == 1.0
        assert baseline.metrics["time_s"] > 0

    def test_subset_of_options_supported(self):
        result = run_fig16(batch=64, options=(get_design_option("2"),))
        assert list(_speedups(result)) == ["2"]
