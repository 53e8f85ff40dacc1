"""Simulator tests for backward-pass (dgrad/wgrad) GEMM workloads.

The trace generator and engine consume the same workload IR as the analytic
model; these tests check the backward-pass address streams are well formed,
that the batched coalescing matches the per-tile oracle tile for tile, and
that the vectorized engine stays bit-identical to the scalar reference loop
(tests/sim_reference.py) on every training pass.
"""

import numpy as np
import pytest

from repro.core.tiling import build_grid
from repro.core.workload import lower_pass, training_workloads
from repro.gpu import TESLA_V100, TITAN_XP
from repro.sim.address import INVALID_ADDRESS, WorkloadLayout
from repro.sim.engine import ConvLayerSimulator, SimulatorConfig
from repro.sim.im2col import GemmTraceGenerator
from sim_reference import (ReferenceSimulator, assert_batch_matches_tiles,
                           tile_of)


def make_generator(workload, gpu=TITAN_XP):
    grid = build_grid(workload)
    return GemmTraceGenerator(workload, grid.tile, gpu), grid


class TestWorkloadLayout:
    def test_forward_layout_matches_tensor_layout(self, small_conv_layer):
        """Forward: the IFmap at 0, the filter at the next 128 B line."""
        forward = lower_pass(small_conv_layer, "forward")
        layout = WorkloadLayout(forward, 128)
        ifmap_bytes = small_conv_layer.ifmap_elements * 4
        filter_base = -(-ifmap_bytes // 128) * 128
        assert layout.a_base == 0
        assert layout.a_bytes == ifmap_bytes
        assert layout.b_base == filter_base
        assert layout.total_bytes == (filter_base
                                      + small_conv_layer.filter_elements * 4)

    def test_backward_layouts_are_disjoint(self, small_conv_layer):
        for pass_kind in ("dgrad", "wgrad"):
            layout = WorkloadLayout(lower_pass(small_conv_layer, pass_kind), 128)
            assert layout.a_base == 0
            assert layout.b_base >= layout.a_bytes
            assert layout.total_bytes == layout.b_base + layout.b_bytes


class TestBackwardAddresses:
    def test_dgrad_addresses_in_operand_ranges(self, small_conv_layer):
        workload = lower_pass(small_conv_layer, "dgrad")
        gen, grid = make_generator(workload)
        a = tile_of(gen, "a", 0, 0)
        b = tile_of(gen, "b", 0, 0)
        layout = gen.layout
        a_valid = a[a != INVALID_ADDRESS]
        b_valid = b[b != INVALID_ADDRESS]
        assert a_valid.size and b_valid.size
        assert a_valid.min() >= layout.a_base
        assert a_valid.max() < layout.a_base + layout.a_bytes
        assert b_valid.min() >= layout.b_base
        assert b_valid.max() < layout.b_base + layout.b_bytes

    def test_dgrad_has_no_padding_predication(self, small_conv_layer):
        """dO and W are dense tensors: every in-range slot is a real load."""
        workload = lower_pass(small_conv_layer, "dgrad")
        gen, grid = make_generator(workload)
        a = tile_of(gen, "a", 0, 0)
        gemm = workload.gemm
        rows = min(grid.tile.blk_m, gemm.m)
        cols = min(grid.tile.blk_k, gemm.k)
        assert np.all(a[:rows, :cols] != INVALID_ADDRESS)

    def test_dgrad_a_columns_are_contiguous(self, small_conv_layer):
        """Within one output row of one image, dO loads are unit stride."""
        workload = lower_pass(small_conv_layer, "dgrad")
        gen, _ = make_generator(workload)
        column = tile_of(gen, "a", 0, 0)[:small_conv_layer.out_width, 0]
        assert np.all(np.diff(column) == small_conv_layer.dtype_bytes)

    def test_wgrad_b_respects_padding(self, small_conv_layer):
        """The wgrad B operand is the im2col input: padded slots predicate off."""
        workload = lower_pass(small_conv_layer, "wgrad")
        gen, _ = make_generator(workload)
        addresses = tile_of(gen, "b", 0, 0)
        assert np.any(addresses == INVALID_ADDRESS)
        valid = addresses[addresses != INVALID_ADDRESS]
        layout = gen.layout
        assert valid.min() >= layout.b_base
        assert valid.max() < layout.b_base + layout.b_bytes

    def test_wgrad_tile_shapes(self, small_conv_layer):
        workload = lower_pass(small_conv_layer, "wgrad")
        gen, grid = make_generator(workload)
        tile = grid.tile
        assert gen.tile_addresses("a", [0], [0]).shape == (
            1, tile.blk_m * tile.blk_k)
        assert gen.tile_addresses("b", [0], [0]).shape == (
            1, tile.blk_n * tile.blk_k)


class TestBatchedBackwardGeneration:
    """The batched coalescing must match the per-tile oracle, every pass."""

    @pytest.mark.parametrize("pass_kind", ["forward", "dgrad", "wgrad"])
    def test_batch_matches_scalar(self, small_conv_layer, pass_kind):
        workload = lower_pass(small_conv_layer, pass_kind)
        gen, grid = make_generator(workload)
        cta_ms = list(range(min(grid.ctas_m, 4)))
        cta_ns = list(range(min(grid.ctas_n, 3)))
        k_offsets = sorted({0, (grid.main_loops_per_cta - 1) * grid.tile.blk_k})
        assert_batch_matches_tiles(gen, "a", cta_ms, k_offsets)
        assert_batch_matches_tiles(gen, "b", cta_ns, k_offsets)

    def test_strided_wgrad_on_volta(self, strided_conv_layer):
        workload = lower_pass(strided_conv_layer, "wgrad")
        gen, grid = make_generator(workload, TESLA_V100)
        assert_batch_matches_tiles(gen, "b", [0], [0])


class TestBackwardEngine:
    @pytest.mark.parametrize("pass_kind", ["forward", "dgrad", "wgrad"])
    def test_vectorized_matches_reference(self, small_conv_layer, pass_kind):
        workload = lower_pass(small_conv_layer, pass_kind)
        vec = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=60)).run(workload)
        ref = ReferenceSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=60)).run(workload)
        assert vec.traffic == ref.traffic
        assert vec.time_seconds == ref.time_seconds
        assert vec.pass_kind == pass_kind

    def test_training_pass_traffic_is_positive_and_ordered(self, small_conv_layer):
        sim = ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=60))
        for workload in training_workloads(small_conv_layer):
            result = sim.run(workload)
            traffic = result.traffic
            assert traffic.l1_bytes > 0
            assert traffic.l2_bytes > 0
            assert traffic.dram_bytes > 0
            # the hierarchy filters traffic: L1 >= L2 >= DRAM.
            assert traffic.l1_bytes >= traffic.l2_bytes >= traffic.dram_bytes

    def test_layer_entry_point_still_simulates_forward(self, small_conv_layer):
        sim = ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=60))
        via_layer = sim.run(small_conv_layer)
        via_workload = sim.run(lower_pass(small_conv_layer, "forward"))
        assert via_layer.traffic == via_workload.traffic
        assert via_layer.pass_kind == "forward"
