"""Property-based tests (hypothesis) for the core models and substrates.

These check invariants the analytical model and the simulator must satisfy for
*any* well-formed convolution configuration, not just the paper's networks:
geometry consistency, traffic-hierarchy monotonicity, positivity of execution
times, cache bounds, and metric identities.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import gmae
from repro.core.l1 import ifmap_mli, ifmap_request_ratio
from repro.core.layer import ConvLayerConfig
from repro.core.model import DeltaModel
from repro.core.tiling import active_ctas_per_sm, build_grid, select_cta_tile
from repro.gpu import TESLA_V100, TITAN_XP
from repro.sim.cache import LruCache, SetAssociativeCache

from model_reference import PerformanceModel


def block_misses(cache, sectors) -> int:
    return int(np.count_nonzero(~cache.access_block(sectors)))


@st.composite
def conv_layers(draw):
    """Strategy producing valid (if sometimes unusual) convolution layers."""
    in_size = draw(st.integers(min_value=7, max_value=112))
    filter_size = draw(st.sampled_from(
        [size for size in (1, 3, 5, 7, 11) if size <= in_size]))
    return ConvLayerConfig.square(
        "prop",
        batch=draw(st.integers(min_value=1, max_value=64)),
        in_channels=draw(st.integers(min_value=1, max_value=512)),
        in_size=in_size,
        out_channels=draw(st.integers(min_value=1, max_value=512)),
        filter_size=filter_size,
        stride=draw(st.integers(min_value=1, max_value=4)),
        padding=draw(st.integers(min_value=0, max_value=3)),
    )


MODEL_SETTINGS = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.filter_too_much])


class TestLayerGeometryProperties:
    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_output_fits_inside_padded_input(self, layer):
        assert 1 <= layer.out_height <= layer.padded_height
        assert 1 <= layer.out_width <= layer.padded_width

    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_gemm_dimensions_consistent_with_footprints(self, layer):
        gemm = layer.gemm_shape()
        assert gemm.m == layer.batch * layer.out_height * layer.out_width
        assert gemm.k * gemm.n == layer.filter_elements
        assert layer.macs == gemm.m * gemm.n * gemm.k

    @given(layer=conv_layers(), factor=st.integers(min_value=2, max_value=4))
    @MODEL_SETTINGS
    def test_batch_scaling_scales_gemm_height_only(self, layer, factor):
        scaled = layer.with_batch(layer.batch * factor)
        assert scaled.gemm_shape().m == factor * layer.gemm_shape().m
        assert scaled.gemm_shape().n == layer.gemm_shape().n
        assert scaled.gemm_shape().k == layer.gemm_shape().k


class TestTilingProperties:
    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_grid_covers_gemm_exactly_once(self, layer):
        grid = build_grid(layer)
        gemm = layer.gemm_shape()
        assert grid.ctas_m * grid.tile.blk_m >= gemm.m
        assert (grid.ctas_m - 1) * grid.tile.blk_m < gemm.m
        assert grid.ctas_n * grid.tile.blk_n >= gemm.n
        assert grid.main_loops_per_cta * grid.tile.blk_k >= gemm.k

    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_tile_selection_uses_profiled_shapes(self, layer):
        tile = select_cta_tile(layer.gemm_shape())
        assert (tile.blk_m, tile.blk_n, tile.blk_k) in {
            (128, 32, 4), (128, 64, 4), (128, 128, 8)}

    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_occupancy_is_positive_and_bounded(self, layer):
        tile = select_cta_tile(layer.gemm_shape())
        for gpu in (TITAN_XP, TESLA_V100):
            active = active_ctas_per_sm(tile, gpu)
            assert 1 <= active <= gpu.max_ctas_per_sm


class TestTrafficModelProperties:
    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_traffic_hierarchy_monotonic(self, layer):
        estimate = DeltaModel(TITAN_XP).traffic(layer)
        assert estimate.l1_bytes >= estimate.l2_bytes - 1e-6
        assert estimate.l2_bytes >= estimate.dram.load_bytes - 1e-6
        assert estimate.dram_bytes > 0

    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_l1_inefficiency_at_least_one(self, layer):
        assert ifmap_request_ratio(layer) >= 1.0
        assert ifmap_mli(layer, TITAN_XP) >= 1.0
        assert ifmap_mli(layer, TESLA_V100) >= 1.0

    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_execution_time_above_arithmetic_bound(self, layer):
        estimate = DeltaModel(TITAN_XP).estimate(layer)
        lower_bound = layer.macs / TITAN_XP.macs_per_second
        assert estimate.time_seconds >= 0.99 * lower_bound
        assert estimate.time_seconds > 0

    @given(layer=conv_layers())
    @MODEL_SETTINGS
    def test_candidate_times_all_positive(self, layer):
        estimate = PerformanceModel(gpu=TITAN_XP).estimate(layer)
        assert all(value > 0 for value in estimate.candidates.values())


class TestCacheProperties:
    @given(sectors=st.lists(st.integers(min_value=0, max_value=200),
                            min_size=1, max_size=300),
           capacity=st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_lru_miss_count_bounds(self, sectors, capacity):
        cache = LruCache(capacity_bytes=capacity * 32, sector_bytes=32)
        misses = block_misses(cache, sectors)
        unique = len(set(sectors))
        # every unique sector misses at least once (compulsory misses) and
        # misses can never exceed the total number of accesses.
        assert unique <= misses <= len(sectors)
        # a working set that fits in the cache only takes compulsory misses.
        if unique <= cache.capacity_sectors:
            assert misses == unique
        assert cache.occupancy <= cache.capacity_sectors

    @given(sectors=st.lists(st.integers(min_value=0, max_value=500),
                            min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_set_associative_never_beats_unbounded(self, sectors):
        bounded = SetAssociativeCache(capacity_bytes=32 * 32, sector_bytes=32, ways=4)
        unbounded = LruCache(capacity_bytes=10**9, sector_bytes=32)
        assert (block_misses(bounded, sectors)
                >= block_misses(unbounded, sectors))


class TestMetricProperties:
    @given(ratios=st.lists(st.floats(min_value=0.05, max_value=20.0),
                           min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_gmae_nonnegative_and_inversion_invariant(self, ratios):
        error = gmae(ratios)
        inverted = gmae([1.0 / r for r in ratios])
        assert error >= 0.0
        assert math.isclose(error, inverted, rel_tol=1e-9, abs_tol=1e-12)
