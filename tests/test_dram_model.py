"""Tests for the DRAM traffic model (Section IV-C, Eq. 10)."""

import pytest

from repro.core.dram import (
    DramModelOptions,
    effective_ifmap_elements,
    estimate_dram_traffic,
)
from repro.core.layer import ConvLayerConfig
from repro.core.tiling import build_grid


class TestEffectiveIfmap:
    def test_includes_zero_padding(self, small_conv_layer):
        elements = effective_ifmap_elements(small_conv_layer)
        layer = small_conv_layer
        assert elements == (layer.batch * layer.in_channels
                            * layer.padded_height * layer.padded_width)

    def test_strided_pointwise_excludes_untouched_positions(self):
        layer = ConvLayerConfig.square("p", 4, in_channels=64, in_size=28,
                                       out_channels=128, filter_size=1, stride=2)
        touched = effective_ifmap_elements(layer)
        assert touched == 4 * 64 * 14 * 14
        assert touched < layer.ifmap_elements


class TestDramTraffic:
    def test_eq10_single_cta_column_reads_ifmap_once(self):
        layer = ConvLayerConfig.square("c", 32, in_channels=96, in_size=28,
                                       out_channels=128, filter_size=3, padding=1)
        grid = build_grid(layer)
        assert grid.ctas_n == 1
        traffic = estimate_dram_traffic(layer, grid)
        assert traffic.ifmap_bytes == pytest.approx(
            effective_ifmap_elements(layer) * 4)
        assert traffic.filter_bytes == pytest.approx(layer.filter_elements * 4)

    def test_eq10_multiple_cta_columns_reread_ifmap(self):
        layer = ConvLayerConfig.square("c", 32, in_channels=96, in_size=28,
                                       out_channels=384, filter_size=3, padding=1)
        grid = build_grid(layer)
        assert grid.ctas_n == 3
        traffic = estimate_dram_traffic(layer, grid)
        assert traffic.ifmap_bytes == pytest.approx(
            3 * effective_ifmap_elements(layer) * 4)

    def test_row_scheduling_ablation_rereads_filters(self):
        layer = ConvLayerConfig.square("c", 32, in_channels=96, in_size=28,
                                       out_channels=128, filter_size=3, padding=1)
        grid = build_grid(layer)
        column = estimate_dram_traffic(layer, grid)
        row = estimate_dram_traffic(layer, grid,
                                    DramModelOptions(scheduling="row"))
        assert row.filter_bytes == pytest.approx(column.filter_bytes * grid.ctas_m)
        assert row.ifmap_bytes == pytest.approx(column.ifmap_bytes / grid.ctas_n)

    def test_column_scheduling_wins_for_tall_gemm(self):
        # The paper's argument: for the tall-and-skinny im2col GEMM the
        # column-wise order produces far less DRAM traffic.
        layer = ConvLayerConfig.square("c", 64, in_channels=64, in_size=56,
                                       out_channels=64, filter_size=3, padding=1)
        grid = build_grid(layer)
        column = estimate_dram_traffic(layer, grid)
        row = estimate_dram_traffic(layer, grid,
                                    DramModelOptions(scheduling="row"))
        assert column.total_bytes < row.total_bytes
