"""Tests for im2col tile address generation and warp coalescing."""

import numpy as np

from repro.core.layer import ConvLayerConfig
from repro.core.tiling import build_grid
from repro.core.workload import lower_pass
from repro.gpu import TESLA_V100, TITAN_XP
from repro.sim.address import INVALID_ADDRESS
from repro.sim.engine import ConvLayerSimulator, SimulatorConfig
from repro.sim.im2col import GemmTraceGenerator
from sim_reference import assert_batch_matches_tiles, tile_of


def make_generator(layer, gpu=TITAN_XP):
    grid = build_grid(layer)
    return GemmTraceGenerator(lower_pass(layer, "forward"), grid.tile, gpu), grid


def a_access(gen, cta_m, k_offset, field):
    """One coalescing count of one IFmap tile, from the batched generator."""
    return int(getattr(gen.a_tile_batch([cta_m], [k_offset]), field)[0])


class TestIfmapTile:
    def test_tile_shape_matches_blocking(self, small_conv_layer):
        gen, grid = make_generator(small_conv_layer)
        addresses = gen.tile_addresses("a", [0], [0])
        assert addresses.shape == (1, grid.tile.blk_m * grid.tile.blk_k)

    def test_rows_beyond_m_are_invalid(self, small_conv_layer):
        gen, grid = make_generator(small_conv_layer)
        last_cta = grid.ctas_m - 1
        addresses = tile_of(gen, "a", last_cta, 0)
        gemm = small_conv_layer.gemm_shape()
        valid_rows = gemm.m - last_cta * grid.tile.blk_m
        assert np.all(addresses[valid_rows:, :] == INVALID_ADDRESS)
        assert np.any(addresses[:valid_rows, :] != INVALID_ADDRESS)

    def test_pointwise_column_is_contiguous(self, small_pointwise_layer):
        """For a 1x1 conv each IFmap-matrix column is dense in memory."""
        gen, grid = make_generator(small_pointwise_layer)
        addresses = tile_of(gen, "a", 0, 0)
        column = addresses[:, 0]
        valid = column[column != INVALID_ADDRESS]
        # within one image the addresses advance by exactly one element.
        deltas = np.diff(valid)
        per_image = (small_pointwise_layer.in_height
                     * small_pointwise_layer.in_width)
        assert np.all((deltas == 4) | (deltas == 4 * (
            per_image * (small_pointwise_layer.in_channels - 1) + 1)))

    def test_conv_column_follows_filter_traversal(self):
        """Eq. 2's access pattern: stride within a row, jump at row ends."""
        layer = ConvLayerConfig.square("c", 1, in_channels=1, in_size=8,
                                       out_channels=4, filter_size=3, padding=0)
        gen, grid = make_generator(layer)
        addresses = tile_of(gen, "a", 0, 0)
        column = addresses[:layer.out_width, 0]
        # first output row: consecutive elements, stride 1 (4 bytes).
        assert np.all(np.diff(column[column != INVALID_ADDRESS]) == 4)

    def test_zero_padding_produces_invalid_entries(self, small_conv_layer):
        gen, _ = make_generator(small_conv_layer)
        # k=0 corresponds to filter position (0, 0), which reads the padded
        # top-left corner for the first output pixel.
        addresses = tile_of(gen, "a", 0, 0)
        assert np.any(addresses == INVALID_ADDRESS)

    def test_access_counts_padding_exclusion(self, small_conv_layer):
        gen, grid = make_generator(small_conv_layer)
        elements = a_access(gen, 0, 0, "elements")
        total_slots = grid.tile.blk_m * grid.tile.blk_k
        assert elements == np.count_nonzero(tile_of(gen, "a", 0, 0)
                                            != INVALID_ADDRESS)
        assert 0 < elements < total_slots


class TestFilterTile:
    def test_filter_tile_shape_and_uniqueness(self, small_conv_layer):
        gen, grid = make_generator(small_conv_layer)
        addresses = tile_of(gen, "b", 0, 0)
        assert addresses.shape == (grid.tile.blk_n, grid.tile.blk_k)
        valid = addresses[addresses != INVALID_ADDRESS]
        assert np.unique(valid).size == valid.size

    def test_filter_requests_reflect_scattered_columns(self, reference_conv_layer):
        gen, grid = make_generator(reference_conv_layer)
        requests = int(gen.b_tile_batch([0], [0]).l1_requests[0])
        # 32 threads per warp load 32/blkK distant columns; with blkK=8 the
        # warps can never coalesce to a single request each.
        warps = (grid.tile.blk_n * grid.tile.blk_k) // 32
        assert requests >= 2 * warps


class TestCoalescing:
    def test_dense_warp_loads_coalesce_on_pascal(self, small_pointwise_layer):
        gen, grid = make_generator(small_pointwise_layer)
        requests = a_access(gen, 0, 0, "l1_requests")
        warps = (grid.tile.blk_m // 32) * grid.tile.blk_k
        # each warp loads 128 contiguous bytes: 1-2 requests depending on
        # alignment, never the fully-scattered worst case.
        assert warps <= requests <= 2 * warps

    def test_sector_count_at_least_request_granularity(self, small_conv_layer):
        gen, _ = make_generator(small_conv_layer)
        assert (a_access(gen, 0, 0, "l1_sectors")
                >= a_access(gen, 0, 0, "l1_requests"))

    def test_volta_issues_more_requests_than_pascal(self, small_conv_layer):
        """32 B requests on Volta mean more requests for the same tile."""
        pascal_gen, _ = make_generator(small_conv_layer, TITAN_XP)
        volta_gen, _ = make_generator(small_conv_layer, TESLA_V100)
        assert (a_access(volta_gen, 0, 0, "l1_requests")
                >= a_access(pascal_gen, 0, 0, "l1_requests"))
        # ... but the sector fetch volume is granularity independent.
        assert (a_access(volta_gen, 0, 0, "l1_sectors")
                == a_access(pascal_gen, 0, 0, "l1_sectors"))

    def test_fetch_bytes_accounting_modes(self, small_conv_layer):
        """Request accounting charges a full L1 request per coalesced
        request; sector accounting charges only the sectors warps fetch."""
        request, sector = (
            ConvLayerSimulator(TITAN_XP, SimulatorConfig(
                max_ctas=None, l1_accounting=mode)).run(small_conv_layer)
            for mode in ("request", "sector"))
        assert request.traffic.l1_bytes == (request.traffic.l1_requests
                                            * TITAN_XP.l1_request_bytes)
        assert sector.traffic.l1_requests == request.traffic.l1_requests
        assert sector.traffic.l1_bytes % TITAN_XP.sector_bytes == 0
        assert sector.traffic.l1_bytes < request.traffic.l1_bytes

    def test_strided_layer_has_poor_coalescing(self, strided_conv_layer):
        gen, grid = make_generator(strided_conv_layer)
        requests = a_access(gen, 0, 4, "l1_requests")
        warps = (grid.tile.blk_m // 32) * grid.tile.blk_k
        # stride 2 with a 7x7 filter skips elements, so each warp touches
        # noticeably more than one request worth of lines.
        assert requests > 1.5 * warps


class TestBatchedGeneration:
    """The batched coalescing must match the per-tile oracle tile for tile."""

    def assert_equivalent(self, layer, gpu=TITAN_XP):
        gen, grid = make_generator(layer, gpu)
        cta_ms = list(range(min(grid.ctas_m, 5)))
        cta_ns = list(range(min(grid.ctas_n, 3)))
        k_offsets = sorted({0,
                            (grid.main_loops_per_cta // 2) * grid.tile.blk_k,
                            (grid.main_loops_per_cta - 1) * grid.tile.blk_k})
        assert_batch_matches_tiles(gen, "a", cta_ms, k_offsets)
        assert_batch_matches_tiles(gen, "b", cta_ns, k_offsets)

    def test_padded_conv_matches_scalar(self, small_conv_layer):
        self.assert_equivalent(small_conv_layer)

    def test_pointwise_matches_scalar(self, small_pointwise_layer):
        self.assert_equivalent(small_pointwise_layer)

    def test_strided_matches_scalar_on_volta(self, strided_conv_layer):
        self.assert_equivalent(strided_conv_layer, gpu=TESLA_V100)

    def test_multi_k_cross_product_layout(self, small_conv_layer):
        """Tile index mi * num_k + ki addresses the (cta_m, k_offset) pair."""
        gen, grid = make_generator(small_conv_layer)
        k_offsets = [0, grid.tile.blk_k]
        lattice = gen.tile_addresses("a", [0, 1], k_offsets)
        assert lattice.shape[0] == 4
        for mi, cta_m in enumerate([0, 1]):
            for ki, k_offset in enumerate(k_offsets):
                assert np.array_equal(
                    lattice[mi * len(k_offsets) + ki],
                    gen.tile_addresses("a", [cta_m], [k_offset])[0])
        assert_batch_matches_tiles(gen, "a", [0, 1], k_offsets)

    def test_empty_batch(self, small_conv_layer):
        gen, grid = make_generator(small_conv_layer)
        for batch in (gen.a_tile_batch([], [0]), gen.b_tile_batch([0], [])):
            assert batch.l1_requests.size == 0
            assert batch.sectors.size == 0
            assert batch.offsets.tolist() == [0]
        assert gen.tile_addresses("b", [], [0]).shape == (
            0, grid.tile.blk_n * grid.tile.blk_k)
