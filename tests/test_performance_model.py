"""Tests for the performance model (Section V, Eq. 14-18 and Fig. 10 cases).

Time and bottleneck checks run through ``DeltaModel``; checks on the
per-candidate times and on injected traffic run through the scalar reference
model (tests/model_reference.py), which exposes those intermediates.
"""


import pytest

from repro.core.bottleneck import Bottleneck
from repro.core.layer import ConvLayerConfig
from repro.core.model import DeltaModel
from repro.gpu import TESLA_V100, TITAN_XP
from repro.networks import alexnet, resnet152, vgg16

from model_reference import PerformanceModel


@pytest.fixture
def xp_model():
    return DeltaModel(TITAN_XP)


@pytest.fixture
def xp_oracle():
    return PerformanceModel(gpu=TITAN_XP)


class TestExecutionEstimate:
    def test_time_positive_and_cycles_consistent(self, xp_model, reference_conv_layer):
        estimate = xp_model.estimate(reference_conv_layer)
        assert estimate.time_seconds > 0
        assert estimate.cycles == pytest.approx(
            estimate.time_seconds * TITAN_XP.core_clock_hz)

    def test_time_never_below_arithmetic_lower_bound(self, xp_model):
        """No layer can run faster than its MACs at peak throughput."""
        for layer in vgg16(batch=64).unique_layers():
            estimate = xp_model.estimate(layer)
            lower_bound = layer.macs / TITAN_XP.macs_per_second
            assert estimate.time_seconds >= lower_bound * 0.99, layer.name

    def test_mac_efficiency_bounded(self, xp_model, reference_conv_layer):
        estimate = xp_model.estimate(reference_conv_layer)
        assert 0.0 < estimate.mac_efficiency <= 1.0
        assert estimate.throughput_tflops <= TITAN_XP.fp32_flops / 1e12 * 1.001

    def test_reported_time_is_max_of_candidates(self, xp_oracle, reference_conv_layer):
        estimate = xp_oracle.estimate(reference_conv_layer)
        assert estimate.time_seconds == pytest.approx(max(estimate.candidates.values()))
        assert estimate.candidates[estimate.bottleneck] == pytest.approx(
            estimate.time_seconds)

    def test_all_bottleneck_candidates_evaluated(self, xp_oracle, reference_conv_layer):
        estimate = xp_oracle.estimate(reference_conv_layer)
        assert set(estimate.candidates) == set(Bottleneck)

    def test_active_ctas_positive_and_bounded(self, xp_model, reference_conv_layer):
        estimate = xp_model.estimate(reference_conv_layer)
        assert 1 <= estimate.active_ctas <= TITAN_XP.max_ctas_per_sm
        assert estimate.ctas_per_sm >= estimate.active_ctas


class TestBottleneckIdentification:
    def test_compute_bound_dominates_high_reuse_layers(self, xp_model):
        """The paper finds ~90% of layers are MAC-throughput bound on TITAN Xp."""
        layers = vgg16(batch=256).unique_layers() + resnet152(batch=256).unique_layers()
        bottlenecks = [xp_model.estimate(layer).bottleneck for layer in layers]
        mac_bound = sum(1 for b in bottlenecks if b == Bottleneck.MAC_BW)
        assert mac_bound / len(bottlenecks) > 0.6

    def test_scaling_only_compute_shifts_bottleneck_to_memory(self):
        layer = ConvLayerConfig.square("c", 256, in_channels=96, in_size=28,
                                       out_channels=128, filter_size=3, padding=1)
        base = DeltaModel(TITAN_XP).estimate(layer)
        scaled_gpu = TITAN_XP.scaled(mac_bw=8.0)
        scaled = DeltaModel(scaled_gpu).estimate(layer)
        assert base.bottleneck == Bottleneck.MAC_BW
        assert scaled.bottleneck != Bottleneck.MAC_BW
        assert scaled.bottleneck.is_memory_bound or scaled.bottleneck == Bottleneck.SMEM_BW

    def test_tiny_grid_exposes_dram_latency(self):
        """With very few CTAs the load latency cannot be hidden (case 2)."""
        layer = ConvLayerConfig.square("tiny", 1, in_channels=64, in_size=14,
                                       out_channels=32, filter_size=3, padding=1)
        estimate = PerformanceModel(gpu=TITAN_XP).estimate(layer)
        assert estimate.bottleneck in (Bottleneck.DRAM_LAT, Bottleneck.DRAM_BW,
                                       Bottleneck.SMEM_BW, Bottleneck.MAC_BW)
        # the latency candidate must at least have been considered and be
        # competitive for such a small grid.
        assert estimate.candidates[Bottleneck.DRAM_LAT] > 0

    def test_memory_bound_classification_helper(self):
        assert Bottleneck.DRAM_BW.is_memory_bound
        assert Bottleneck.L2_BW.is_memory_bound
        assert not Bottleneck.MAC_BW.is_memory_bound
        assert not Bottleneck.SMEM_BW.is_memory_bound


class TestCrossGpuBehaviour:
    def test_faster_gpu_runs_compute_bound_layers_faster(self):
        layer = vgg16(batch=256).layer("conv8")
        time_xp = DeltaModel(TITAN_XP).estimate(layer).time_seconds
        time_v100 = DeltaModel(TESLA_V100).estimate(layer).time_seconds
        assert time_v100 < time_xp

    def test_total_network_time_scales_with_batch(self):
        model = DeltaModel(TITAN_XP)
        small = model.total_time(alexnet(batch=64).conv_layers())
        large = model.total_time(alexnet(batch=256).conv_layers())
        assert 3.0 < large / small < 5.0

    def test_estimate_layers_and_total_time_consistent(self):
        model = DeltaModel(TITAN_XP)
        layers = alexnet(batch=64).conv_layers()
        estimates = model.estimate_layers(layers)
        assert model.total_time(layers) == pytest.approx(
            sum(e.time_seconds for e in estimates))

    def test_for_gpu_returns_new_model(self):
        model = DeltaModel(TITAN_XP)
        v100_model = model.for_gpu(TESLA_V100)
        assert v100_model.gpu is TESLA_V100
        assert model.gpu is TITAN_XP


class TestExternalTrafficInjection:
    def test_estimate_accepts_precomputed_traffic(self, xp_oracle, reference_conv_layer):
        traffic = DeltaModel(TITAN_XP).traffic(reference_conv_layer)
        estimate = xp_oracle.estimate(reference_conv_layer, traffic=traffic)
        assert estimate.traffic is traffic

    def test_more_traffic_cannot_be_faster(self, reference_conv_layer):
        """Injecting inflated traffic must not reduce the predicted time."""
        model = PerformanceModel(gpu=TITAN_XP.scaled(mac_bw=16.0))
        delta_traffic = DeltaModel(TITAN_XP.scaled(mac_bw=16.0)).traffic(
            reference_conv_layer)
        from repro.core.baselines import FixedMissRateTrafficModel
        naive_traffic = FixedMissRateTrafficModel(
            TITAN_XP.scaled(mac_bw=16.0)).estimate(reference_conv_layer)
        accurate = model.estimate(reference_conv_layer, traffic=delta_traffic)
        naive = model.estimate(reference_conv_layer, traffic=naive_traffic)
        assert naive.time_seconds >= accurate.time_seconds
