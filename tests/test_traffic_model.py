"""Tests for the combined traffic model facade (repro.core.traffic)."""

import pytest

from repro.core.dram import DramModelOptions
from repro.core.l2 import L2ModelOptions
from repro.core.layer import ConvLayerConfig
from repro.core.traffic import TrafficModel
from repro.gpu import TESLA_V100, TITAN_XP
from repro.networks import googlenet


@pytest.fixture
def model():
    return TrafficModel(gpu=TITAN_XP)


class TestTrafficHierarchy:
    def test_traffic_shrinks_up_the_hierarchy(self, model, reference_conv_layer):
        estimate = model.estimate(reference_conv_layer)
        assert estimate.l1_bytes >= estimate.l2_bytes >= estimate.dram.total_bytes

    def test_hierarchy_invariant_across_networks(self, model):
        for layer in googlenet(batch=32).unique_layers():
            estimate = model.estimate(layer)
            assert estimate.l1_bytes >= estimate.l2_bytes >= estimate.dram.total_bytes, layer.name

    def test_miss_rates_bounded(self, model, reference_conv_layer):
        estimate = model.estimate(reference_conv_layer)
        assert 0.0 <= estimate.l1_miss_rate <= 1.0
        assert 0.0 <= estimate.l2_miss_rate <= 1.0

    def test_level_lookup(self, model, reference_conv_layer):
        estimate = model.estimate(reference_conv_layer)
        assert estimate.level_bytes("l1") == estimate.l1_bytes
        assert estimate.level_bytes("DRAM") == estimate.dram_bytes
        with pytest.raises(ValueError):
            estimate.level_bytes("l3")

    def test_per_loop_volumes_consistent_with_totals(self, model,
                                                     reference_conv_layer):
        estimate = model.estimate(reference_conv_layer)
        loops = estimate.total_main_loops
        assert estimate.l1_bytes_per_loop * loops == pytest.approx(estimate.l1_bytes)
        assert estimate.dram_bytes_per_loop * loops == pytest.approx(estimate.dram_bytes)


class TestTrafficScalingBehaviour:
    def test_dram_traffic_scales_linearly_with_batch(self, model):
        small = ConvLayerConfig.square("b", 16, in_channels=96, in_size=28,
                                       out_channels=128, filter_size=3, padding=1)
        large = small.with_batch(64)
        ratio = model.estimate(large).dram_bytes / model.estimate(small).dram_bytes
        # IFmap traffic scales 4x with the batch; the (batch-independent)
        # filter traffic keeps the overall ratio slightly below 4.
        assert 3.5 < ratio <= 4.0

    def test_l1_traffic_insensitive_to_request_size_for_dense_loads(self):
        layer = ConvLayerConfig.square("p", 16, in_channels=256, in_size=14,
                                       out_channels=256, filter_size=1)
        pascal = TrafficModel(gpu=TITAN_XP).estimate(layer)
        volta = TrafficModel(gpu=TESLA_V100).estimate(layer)
        # 1x1 IFmap loads are dense, so only the filter MLI differs slightly.
        assert pascal.l1.ifmap_bytes == pytest.approx(volta.l1.ifmap_bytes)

    def test_conv_reuse_gives_lower_miss_rate_than_pointwise(self, model):
        conv = ConvLayerConfig.square("c", 32, in_channels=96, in_size=28,
                                      out_channels=128, filter_size=3, padding=1)
        pointwise = ConvLayerConfig.square("p", 32, in_channels=96, in_size=28,
                                           out_channels=128, filter_size=1)
        assert model.estimate(conv).l1_miss_rate < model.estimate(pointwise).l1_miss_rate

    def test_options_are_honoured(self, reference_conv_layer):
        base = TrafficModel(gpu=TITAN_XP)
        rowwise = TrafficModel(gpu=TITAN_XP,
                               dram_options=DramModelOptions(scheduling="row"))
        clamped = TrafficModel(gpu=TITAN_XP,
                               l2_options=L2ModelOptions(channel_span_mode="at-least-one"))
        assert (rowwise.estimate(reference_conv_layer).dram.filter_bytes
                > base.estimate(reference_conv_layer).dram.filter_bytes)
        assert (clamped.estimate(reference_conv_layer).l2_bytes
                >= base.estimate(reference_conv_layer).l2_bytes)

    def test_miss_rate_ranges_match_fig4_spread(self, model):
        """GoogLeNet layers should show a wide spread of miss rates (Fig. 4)."""
        l1_rates = []
        l2_rates = []
        for layer in googlenet(batch=256).unique_layers():
            estimate = model.estimate(layer)
            l1_rates.append(estimate.l1_miss_rate)
            l2_rates.append(estimate.l2_miss_rate)
        assert max(l1_rates) - min(l1_rates) > 0.3
        assert max(l2_rates) - min(l2_rates) > 0.5
