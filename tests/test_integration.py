"""End-to-end integration tests spanning model, simulator and analysis layers."""

import pytest

from repro import DeltaModel, TESLA_V100, TITAN_XP
from repro.analysis.metrics import AccuracySummary
from repro.analysis.validation import MEMORY_LEVELS, ValidationConfig, validate_gpu
from repro.core.baselines import FixedMissRateTrafficModel
from repro.core.bottleneck import Bottleneck
from repro.dse import explore, space_from_options
from repro.gpu import get_design_option
from repro.networks import googlenet, resnet152, vgg16


class TestModelVsSimulatorEndToEnd:
    """The headline claim: DeLTA tracks the measured traffic and time."""

    @pytest.fixture(scope="class")
    def report(self):
        config = ValidationConfig(batch=8, max_ctas=60, layers_per_network=2)
        return validate_gpu(TITAN_XP, config)

    def test_traffic_accuracy_within_small_factors(self, report):
        for level in MEMORY_LEVELS:
            summary = report.traffic_summary(level)
            assert summary.gmae < 1.2, (level, summary.describe())

    def test_dram_estimates_are_the_most_accurate(self, report):
        """The paper finds DRAM traffic is modeled most tightly."""
        dram = report.traffic_summary("dram")
        l2 = report.traffic_summary("l2")
        assert dram.gmae <= l2.gmae + 0.05

    def test_execution_time_tracked_within_factor_two(self, report):
        summary = report.time_summary()
        assert summary.gmae < 1.0
        assert 0.3 < summary.mean_ratio < 2.5

    def test_delta_beats_prior_methodology_end_to_end(self, report):
        """Fig. 12's conclusion holds on the same measured reference."""
        prior = FixedMissRateTrafficModel(TITAN_XP)
        delta_errors = []
        prior_errors = []
        for record in report.records:
            measured = record.measured_traffic["dram"]
            if measured <= 0:
                continue
            delta_errors.append(record.traffic_ratio("dram"))
            prior_errors.append(prior.estimate(record.layer).dram_bytes / measured)
        delta_gmae = AccuracySummary.from_ratios(delta_errors).gmae
        prior_gmae = AccuracySummary.from_ratios(prior_errors).gmae
        assert prior_gmae > 3 * delta_gmae


class TestWholeNetworkEstimation:
    def test_vgg_slowest_of_the_four_networks(self):
        """VGG16 has by far the most conv FLOPs, so it must take the longest."""
        model = DeltaModel(TITAN_XP)
        times = {
            "vgg16": model.total_time(vgg16(batch=64).conv_layers()),
            "googlenet": model.total_time(googlenet(batch=64).conv_layers()),
            "resnet152": model.total_time(resnet152(batch=64).conv_layers()),
        }
        assert times["vgg16"] > times["googlenet"]
        assert times["vgg16"] > times["resnet152"] * 0.9

    def test_v100_faster_than_titanxp_on_every_network(self):
        xp = DeltaModel(TITAN_XP)
        v100 = DeltaModel(TESLA_V100)
        for factory in (vgg16, googlenet, resnet152):
            layers = factory(batch=64).unique_layers()
            assert v100.total_time(layers) < xp.total_time(layers)

    def test_scaling_study_consistent_with_bottleneck_analysis(self):
        """Design options that relieve the dominant bottleneck must help."""
        space = space_from_options(
            (get_design_option("4"), get_design_option("5")),
            network="resnet152", batch=64)
        exploration = explore(space, base_gpu=TITAN_XP, objectives=("time",),
                              unique=True)
        results = {r.point.name: r for r in exploration.results}
        # option 5 adds memory bandwidth on top of option 4's compute;
        # it must be at least as fast.
        assert (exploration.speedup(results["5"])
                >= exploration.speedup(results["4"]))

        # and the compute-only option must leave more layers memory bound.
        def memory_share(name):
            return sum(share for key, share
                       in results[name].metrics["bottlenecks"].items()
                       if Bottleneck(key).is_memory_bound)
        assert memory_share("4") >= memory_share("5")
