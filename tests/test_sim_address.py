"""Tests for the simulator's tensor address mapping.

The trace generator builds forward-pass tile addresses from a per-axis
decomposition (:mod:`repro.sim.im2col`) over the operand layout
(:class:`repro.sim.address.WorkloadLayout`).  These tests check every A
(im2col IFmap) and B (KCRS filter) tile of small grids element by element
against the closed-form BCHW/KCRS formulas in ``tests/sim_reference.py``,
plus the properties of the layout those formulas imply.
"""

import numpy as np
import pytest

from repro.core.layer import ConvLayerConfig
from repro.core.tiling import build_grid
from repro.core.workload import lower_pass
from repro.gpu import TITAN_XP
from repro.sim.address import INVALID_ADDRESS, WorkloadLayout
from repro.sim.im2col import GemmTraceGenerator
from sim_reference import forward_a_address, forward_b_address, tile_of

LAYERS = {
    # non-square input, so a swapped row/column shows up.
    "padded3x3": ConvLayerConfig(
        name="padded3x3", batch=3, in_channels=3, in_height=9, in_width=7,
        out_channels=70, filter_height=3, filter_width=3, stride=1,
        padding=1),
    "strided5x5": ConvLayerConfig.square(
        "strided5x5", batch=4, in_channels=2, in_size=11, out_channels=12,
        filter_size=5, stride=2, padding=2),
    "pointwise_s2": ConvLayerConfig.square(
        "pointwise_s2", batch=6, in_channels=5, in_size=10, out_channels=150,
        filter_size=1, stride=2, padding=0),
}


def forward_trace(layer):
    grid = build_grid(layer)
    return GemmTraceGenerator(lower_pass(layer, "forward"), grid.tile,
                              TITAN_XP), grid


def operand_matrix(layer, operand):
    """The whole forward A (M x K) or B (N x K) matrix, read off the tiles.

    Coordinates past M/N/K (the ragged last tiles) are dropped.
    """
    trace, grid = forward_trace(layer)
    tile = grid.tile
    blk, ctas = ((tile.blk_m, grid.ctas_m) if operand == "a"
                 else (tile.blk_n, grid.ctas_n))
    k_offsets = [loop * tile.blk_k for loop in range(grid.main_loops_per_cta)]
    lattice = trace.tile_addresses(operand, range(ctas), k_offsets)
    full = lattice.reshape(ctas, len(k_offsets), blk, tile.blk_k) \
        .transpose(0, 2, 1, 3).reshape(ctas * blk, len(k_offsets) * tile.blk_k)
    gemm = layer.gemm_shape()
    rows = gemm.m if operand == "a" else gemm.n
    assert np.all(full[rows:] == INVALID_ADDRESS)
    assert np.all(full[:, gemm.k:] == INVALID_ADDRESS)
    return full[:rows, :gemm.k].astype(np.int64), trace.layout


@pytest.fixture
def layout(small_conv_layer):
    return WorkloadLayout(lower_pass(small_conv_layer, "forward"))


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_tiles_match_closed_form(name):
    """Every A and B tile element equals the BCHW / KCRS closed form."""
    layer = LAYERS[name]
    a, layout = operand_matrix(layer, "a")
    expected_a = [[forward_a_address(layer, m, k) for k in range(a.shape[1])]
                  for m in range(a.shape[0])]
    assert np.array_equal(a, np.asarray(expected_a))
    b, _ = operand_matrix(layer, "b")
    expected_b = [[forward_b_address(layer, layout.b_base, n, k)
                   for k in range(b.shape[1])] for n in range(b.shape[0])]
    assert np.array_equal(b, np.asarray(expected_b))


class TestLayout:
    def test_filter_region_follows_ifmap_and_is_line_aligned(self, layout):
        assert layout.b_base >= layout.a_bytes
        assert layout.b_base % layout.line_bytes == 0
        assert layout.total_bytes == layout.b_base + layout.b_bytes

    def test_footprints_match_layer(self, layout, small_conv_layer):
        assert layout.a_bytes == small_conv_layer.ifmap_elements * 4
        assert layout.b_bytes == small_conv_layer.filter_elements * 4


class TestIfmapAddresses:
    def test_bchw_ordering(self):
        """Pointwise, stride 1: A[m, k] is IFmap (b, c=k, h, w) for pixel m."""
        layer = ConvLayerConfig.square("bchw", 2, in_channels=3, in_size=5,
                                       out_channels=8, filter_size=1)
        a, _ = operand_matrix(layer, "a")
        plane = layer.in_height * layer.in_width
        assert a[1, 0] == 1 * 4                               # next column
        assert a[layer.in_width, 0] == layer.in_width * 4     # next row
        assert a[0, 1] == plane * 4                           # next channel
        assert a[plane, 0] == layer.in_channels * plane * 4   # next image

    def test_padding_positions_are_invalid(self):
        layer = LAYERS["padded3x3"]
        a, _ = operand_matrix(layer, "a")
        # output pixel (0, 0) with filter tap (0, 0) reads row -1, col -1;
        # tap (1, 1) reads the real element (0, 0).
        assert a[0, 0] == INVALID_ADDRESS
        assert a[0, layer.filter_width + 1] == 0
        # output pixel (1, Wo - 1) with tap (1, 2) reads row 1, col Wi.
        assert a[2 * layer.out_width - 1, layer.filter_width + 2] \
            == INVALID_ADDRESS
        assert a[2 * layer.out_width - 1, layer.filter_width + 1] \
            != INVALID_ADDRESS

    def test_addresses_within_ifmap_region(self):
        for layer in LAYERS.values():
            a, layout = operand_matrix(layer, "a")
            valid = a[a != INVALID_ADDRESS]
            assert valid.size
            assert np.all(valid >= layout.a_base)
            assert np.all(valid < layout.a_base + layout.a_bytes)
            assert np.all(valid % 4 == 0)

    def test_distinct_elements_have_distinct_addresses(self,
                                                       small_pointwise_layer):
        """Pointwise stride 1: the A matrix is a permutation of the IFmap."""
        a, _ = operand_matrix(small_pointwise_layer, "a")
        assert np.unique(a).size == a.size == small_pointwise_layer.ifmap_elements


class TestFilterAddresses:
    def test_k_is_the_inner_dimension(self, small_conv_layer):
        b, layout = operand_matrix(small_conv_layer, "b")
        k_total = small_conv_layer.in_channels * small_conv_layer.filter_pixels
        assert b[0, 0] == layout.b_base
        assert b[0, 1] - b[0, 0] == 4
        assert b[1, 0] - b[0, 0] == k_total * 4

    def test_out_of_range_invalid(self, small_conv_layer):
        trace, grid = forward_trace(small_conv_layer)
        n = small_conv_layer.out_channels
        tile = tile_of(trace, "b", 0, 0)
        assert grid.tile.blk_n > n
        assert np.all(tile[n:] == INVALID_ADDRESS)
        assert np.all(tile[:n] != INVALID_ADDRESS)

    def test_addresses_within_filter_region(self):
        for layer in LAYERS.values():
            b, layout = operand_matrix(layer, "b")
            assert np.all(b >= layout.b_base)
            assert np.all(b < layout.total_bytes)
            assert np.unique(b).size == b.size == layer.filter_elements
