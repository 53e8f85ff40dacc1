"""Property: the batched trace equals the per-tile oracle on drawn geometries.

:func:`sim_reference.assert_batch_matches_tiles` restates the warp map and
the coalescing per tile (``warp_of``/``coalesce``) and shares no coalescing
code with :meth:`GemmTraceGenerator._build_access_batch`, which collapses
each warp's runs of equal sectors in warp-major lane order before its sort.
Geometries are drawn where that collapse is most exposed: conv strides 1-4,
padding 0-3 and filters 1-7 over output rows narrower than a warp (rows wrap
inside a warp, and image boundaries fall inside tiles), all three training
passes, dense and batched-GEMM workloads, both L1 request sizes (TITAN Xp
128 B, V100 32 B), and CTA tiles whose height is not a multiple of 32 (a
column's last warp is short).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.layer import (BatchedGemmLayerConfig, ConvLayerConfig,
                              LinearLayerConfig)
from repro.core.tiling import CtaTile, build_grid
from repro.core.workload import TRAINING_PASSES, lower_pass
from repro.gpu import TESLA_V100, TITAN_XP
from repro.sim.im2col import GemmTraceGenerator
from sim_reference import assert_batch_matches_tiles

PROPERTY_SETTINGS = settings(max_examples=250, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def conv_layers(draw):
    filter_size = draw(st.integers(1, 7))
    padding = draw(st.integers(0, 3))
    stride = draw(st.integers(1, 4))
    in_size = draw(st.integers(max(1, filter_size - 2 * padding), 24))
    return ConvLayerConfig.square(
        "drawn", batch=draw(st.integers(1, 3)),
        in_channels=draw(st.integers(1, 6)), in_size=in_size,
        out_channels=draw(st.integers(1, 70)), filter_size=filter_size,
        stride=stride, padding=padding)


dense_layers = st.one_of(
    st.builds(LinearLayerConfig, name=st.just("fc"),
              batch=st.integers(1, 40), in_features=st.integers(1, 90),
              out_features=st.integers(1, 150),
              rows_per_sample=st.integers(1, 3)),
    st.builds(BatchedGemmLayerConfig, name=st.just("bgemm"),
              batch=st.integers(1, 2), groups_per_sample=st.integers(1, 3),
              m=st.integers(1, 80), n=st.integers(1, 70),
              k=st.integers(1, 40)))

#: the stock tile of the drawn GEMM, or one with column heights that are
#: not multiples of a warp.
odd_tiles = st.sampled_from([
    None,
    CtaTile(blk_m=48, blk_n=16, blk_k=4, warp_m=16, warp_n=16),
    CtaTile(blk_m=96, blk_n=40, blk_k=2, warp_m=32, warp_n=8),
    CtaTile(blk_m=16, blk_n=64, blk_k=8, warp_m=16, warp_n=32),
])


@PROPERTY_SETTINGS
@given(layer=st.one_of(conv_layers(), dense_layers),
       pass_kind=st.sampled_from(TRAINING_PASSES),
       gpu=st.sampled_from([TITAN_XP, TESLA_V100]),
       tile=odd_tiles, data=st.data())
def test_batched_trace_matches_per_tile_oracle(layer, pass_kind, gpu, tile,
                                               data):
    workload = lower_pass(layer, pass_kind)
    grid = build_grid(workload)
    tile = tile or grid.tile
    trace = GemmTraceGenerator(workload, tile, gpu)
    gemm = workload.gemm
    loops = -(-gemm.k // tile.blk_k)
    k_offsets = sorted(data.draw(st.sets(
        st.integers(0, loops - 1), min_size=1, max_size=3)))
    k_offsets = [loop * tile.blk_k for loop in k_offsets]
    for operand, rows, blk in (("a", gemm.m, tile.blk_m),
                               ("b", gemm.n, tile.blk_n)):
        ctas = -(-rows // blk) * workload.groups
        coords = sorted(data.draw(st.sets(
            st.integers(0, ctas - 1), min_size=1, max_size=3)))
        assert_batch_matches_tiles(trace, operand, coords, k_offsets)
