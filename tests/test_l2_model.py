"""Tests for the L2 traffic model (Section IV-B, Eq. 5-9)."""

import pytest

from repro.core.l2 import (
    L2ModelOptions,
    average_horizontal_distance,
    average_vertical_distance,
    estimate_l2_traffic,
    filter_tile_elements,
    horizontal_distance,
    ifmap_tile_unique_elements,
    vertical_distance,
)
from repro.core.layer import ConvLayerConfig
from repro.core.tiling import build_grid


@pytest.fixture
def conv3x3():
    return ConvLayerConfig.square("c", 32, in_channels=96, in_size=28,
                                  out_channels=128, filter_size=3, padding=1)


class TestDistances:
    def test_eq5_vertical_distance(self, conv3x3):
        grid = build_grid(conv3x3)
        # DIST_V = blkM * (Wi + 2P) * S / (Wi + 2P - Wf + 1) = 128 * 30 / 28
        assert vertical_distance(conv3x3, grid.tile) == pytest.approx(128 * 30 / 28)

    def test_eq6_average_vertical_distance(self, conv3x3):
        grid = build_grid(conv3x3)
        dist_v = vertical_distance(conv3x3, grid.tile)
        expected = dist_v * grid.tile.blk_k / 9
        assert average_vertical_distance(conv3x3, grid.tile) == pytest.approx(expected)

    def test_eq6_at_least_one_option_clamps(self, conv3x3):
        grid = build_grid(conv3x3)
        paper = average_vertical_distance(conv3x3, grid.tile)
        clamped = average_vertical_distance(
            conv3x3, grid.tile, L2ModelOptions(channel_span_mode="at-least-one"))
        assert clamped >= paper
        assert clamped == pytest.approx(vertical_distance(conv3x3, grid.tile))

    def test_eq7_horizontal_distance_nonnegative(self, conv3x3,
                                                  strided_conv_layer):
        for layer in (conv3x3, strided_conv_layer):
            grid = build_grid(layer)
            assert horizontal_distance(layer, grid.tile) >= 0.0

    def test_eq8_adds_extra_samples_for_small_features(self):
        small = ConvLayerConfig.square("s", 32, in_channels=256, in_size=12,
                                       out_channels=128, filter_size=3, padding=1)
        large = ConvLayerConfig.square("l", 32, in_channels=256, in_size=56,
                                       out_channels=128, filter_size=3, padding=1)
        small_grid = build_grid(small)
        large_grid = build_grid(large)
        small_amplification = (average_horizontal_distance(small, small_grid.tile)
                               / max(1e-9, horizontal_distance(small, small_grid.tile)))
        large_amplification = (average_horizontal_distance(large, large_grid.tile)
                               / max(1e-9, horizontal_distance(large, large_grid.tile)))
        assert small_amplification > large_amplification

    def test_pointwise_distances_equal_tile_dimensions(self, small_pointwise_layer):
        grid = build_grid(small_pointwise_layer)
        assert vertical_distance(small_pointwise_layer, grid.tile) == grid.tile.blk_m
        assert horizontal_distance(small_pointwise_layer, grid.tile) == grid.tile.blk_k


class TestTileFootprints:
    def test_reuse_shrinks_unique_footprint(self, conv3x3):
        grid = build_grid(conv3x3)
        unique = ifmap_tile_unique_elements(conv3x3, grid.tile)
        tile_elements = grid.tile.blk_m * grid.tile.blk_k
        assert 0 < unique < tile_elements

    def test_pointwise_tile_has_no_reuse(self, small_pointwise_layer):
        grid = build_grid(small_pointwise_layer)
        unique = ifmap_tile_unique_elements(small_pointwise_layer, grid.tile)
        expected = grid.tile.blk_m * min(grid.tile.blk_k,
                                         small_pointwise_layer.gemm_shape().k)
        assert unique == pytest.approx(expected)

    def test_filter_tile_clipped_to_gemm_dimensions(self):
        layer = ConvLayerConfig.square("tiny", 2, in_channels=4, in_size=8,
                                       out_channels=8, filter_size=3, padding=1)
        grid = build_grid(layer)
        elements = filter_tile_elements(layer, grid.tile)
        assert elements == 8 * grid.tile.blk_k  # Co=8 < blkN


class TestL2Totals:
    def test_eq9_total_scales_with_loops_and_ctas(self, conv3x3):
        grid = build_grid(conv3x3)
        traffic = estimate_l2_traffic(conv3x3, grid)
        per_loop = traffic.elements_per_loop * conv3x3.dtype_bytes
        assert traffic.total_bytes == pytest.approx(
            per_loop * grid.main_loops_per_cta * grid.num_ctas)

    def test_l2_traffic_below_l1_matrix_volume(self, conv3x3):
        # with im2col reuse the unique-per-tile volume is far below the
        # replicated matrix volume streamed through L1.
        grid = build_grid(conv3x3)
        traffic = estimate_l2_traffic(conv3x3, grid)
        ifmap_matrix_bytes = conv3x3.gemm_shape().ifmap_matrix_elements * 4
        assert traffic.ifmap_bytes < ifmap_matrix_bytes

    def test_larger_feature_means_less_relative_reuse(self):
        # A 1x1 layer has no intra-tile reuse, so its per-loop unique footprint
        # should be larger than a same-K 3x3 layer's.
        conv1x1 = ConvLayerConfig.square("p", 32, in_channels=288, in_size=28,
                                         out_channels=128, filter_size=1)
        conv3x3 = ConvLayerConfig.square("c", 32, in_channels=32, in_size=28,
                                         out_channels=128, filter_size=3, padding=1)
        g1, g3 = build_grid(conv1x1), build_grid(conv3x3)
        u1 = ifmap_tile_unique_elements(conv1x1, g1.tile)
        u3 = ifmap_tile_unique_elements(conv3x3, g3.tile)
        assert u1 > u3
