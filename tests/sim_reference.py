"""Scalar reference simulator: the test oracle for the vectorized engine.

:class:`ReferenceSimulator` replays the per-sector loop: one tile at a time,
each tile's unique sectors one at a time through OrderedDict LRU models, over
the same scheduler, timing and extrapolation helpers as
:class:`repro.sim.engine.ConvLayerSimulator`.  It shares no cache or
coalescing code with production: tile addresses come from the generator's
one address builder (:meth:`GemmTraceGenerator.tile_addresses`), and the
warp map, coalescing and replacement are restated here.  The production
engine must reproduce its :class:`SimTraffic`, time and CTA accounting bit
for bit (tests/test_sim_engine.py, test_sim_workload.py,
test_sim_dense_gemm.py).

The module also holds the closed-form BCHW/KCRS tensor addresses of a
forward convolution, which the generator's tiles are checked against
(tests/test_sim_address.py).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.layer import ConvLayerConfig
from repro.core.tiling import build_grid
from repro.core.workload import GemmWorkload
from repro.gpu.spec import WARP_SIZE, GpuSpec
from repro.sim.address import INVALID_ADDRESS
from repro.sim.dram import DramChannel
from repro.sim.engine import ConvLayerSimulator, SimResult
from repro.sim.im2col import GemmTraceGenerator
from repro.sim.scheduler import CtaScheduler


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
class LruModel:
    """Independent OrderedDict model of fully associative LRU."""

    def __init__(self, capacity_sectors: int) -> None:
        self.capacity = capacity_sectors
        self.entries: "OrderedDict[int, None]" = OrderedDict()

    def access(self, sector: int) -> bool:
        if sector in self.entries:
            self.entries.move_to_end(sector)
            return True
        self.entries[sector] = None
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return False


class SetAssocModel:
    """Independent OrderedDict model of set-indexed LRU."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, sector: int) -> bool:
        entries = self.sets[sector % self.num_sets]
        if sector in entries:
            entries.move_to_end(sector)
            return True
        entries[sector] = None
        if len(entries) > self.ways:
            entries.popitem(last=False)
        return False


def set_assoc_model(capacity_bytes: int, sector_bytes: int,
                    ways: int) -> SetAssocModel:
    """A set-indexed LRU of the given size; ways never exceed the sectors."""
    sectors = max(1, capacity_bytes // sector_bytes)
    ways = min(ways, sectors)
    return SetAssocModel(max(1, sectors // ways), ways)


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TileRecord:
    """Memory accesses of one input tile during one main-loop iteration."""

    #: coalesced L1 requests: distinct (warp, request block) pairs.
    l1_requests: int
    #: distinct (warp, sector) pairs: what a sectored memory system fetches.
    l1_sectors: int
    #: unique sector indices the tile touches, sorted.
    sectors: np.ndarray
    #: loads actually issued (predicated-off padding excluded).
    elements: int

    def fetch_bytes(self, accounting: str, gpu: GpuSpec) -> float:
        """L1 traffic of this tile under the chosen accounting granularity."""
        if accounting == "request":
            return float(self.l1_requests * gpu.l1_request_bytes)
        return float(self.l1_sectors * gpu.sector_bytes)


def warp_of(workload: GemmWorkload, operand: str, blk_own: int,
            blk_k: int) -> np.ndarray:
    """Warp index of each element of a flattened (own-major, K-minor) tile.

    Segment loads hand consecutive lanes consecutive elements of that order
    (``32 / blkK`` own-axis rows per warp): every B tile, the A tiles of
    dense forward/dgrad GEMMs (row-major along K) and the conv wgrad A tile
    (dO^T, contiguous along K).  Every other A tile is loaded column by
    column, one warp per 32 rows of one K column.
    """
    if operand == "a":
        if workload.layout == "dense":
            segments = workload.pass_kind != "wgrad"
        else:
            segments = (workload.pass_kind == "wgrad"
                        and workload.a.l1_pattern == "contiguous")
    else:
        segments = True
    if segments:
        return np.arange(blk_own * blk_k) // WARP_SIZE
    row, col = np.indices((blk_own, blk_k))
    return (col * blk_own + row // WARP_SIZE).ravel()


def coalesce(addresses: np.ndarray, warps: np.ndarray,
             gpu: GpuSpec) -> TileRecord:
    """Per-tile coalescing of one flattened tile's byte addresses."""
    valid = addresses != INVALID_ADDRESS
    addresses = addresses[valid].astype(np.int64)
    warps = warps[valid].astype(np.int64)

    def distinct_per_warp(block_bytes: int) -> int:
        # (warp, block) packed into one key; blocks fit well below 2**40.
        return int(np.unique(warps * (1 << 40)
                             + addresses // block_bytes).size)

    return TileRecord(l1_requests=distinct_per_warp(gpu.l1_request_bytes),
                      l1_sectors=distinct_per_warp(gpu.sector_bytes),
                      sectors=np.unique(addresses // gpu.sector_bytes),
                      elements=int(np.count_nonzero(valid)))


def tile_of(trace: GemmTraceGenerator, operand: str, coord: int,
            k_offset: int) -> np.ndarray:
    """One tile's byte addresses as a ``(blk_own, blk_k)`` array."""
    blk_own = trace.tile.blk_m if operand == "a" else trace.tile.blk_n
    return trace.tile_addresses(operand, [coord], [k_offset]).reshape(
        blk_own, trace.tile.blk_k)


def tile_record(trace: GemmTraceGenerator, operand: str, coord: int,
                k_offset: int) -> TileRecord:
    """Coalesced accesses of one (coord, k_offset) tile of one operand."""
    addresses = tile_of(trace, operand, coord, k_offset)
    return coalesce(addresses.ravel(),
                    warp_of(trace.workload, operand, *addresses.shape),
                    trace.gpu)


def assert_batch_matches_tiles(trace: GemmTraceGenerator, operand: str,
                               coords, k_offsets) -> None:
    """The batched coalescing equals :func:`tile_record`, tile by tile."""
    generate = trace.a_tile_batch if operand == "a" else trace.b_tile_batch
    batch = generate(coords, k_offsets)
    assert batch.l1_requests.size == len(coords) * len(k_offsets)
    for ci, coord in enumerate(coords):
        for ki, k_offset in enumerate(k_offsets):
            index = ci * len(k_offsets) + ki
            ref = tile_record(trace, operand, coord, k_offset)
            assert batch.l1_requests[index] == ref.l1_requests
            assert batch.l1_sectors[index] == ref.l1_sectors
            assert batch.elements[index] == ref.elements
            lo, hi = batch.offsets[index], batch.offsets[index + 1]
            assert np.array_equal(batch.sectors[lo:hi], ref.sectors)


# ----------------------------------------------------------------------
# Forward convolution tensors, closed form
# ----------------------------------------------------------------------
def ifmap_address(layer: ConvLayerConfig, batch: int, channel: int,
                  row: int, col: int) -> int:
    """Byte address of one BCHW IFmap element; padding is INVALID_ADDRESS.

    ``row``/``col`` index the *unpadded* feature map, so negative or
    out-of-range values denote zero padding.
    """
    if not (0 <= row < layer.in_height and 0 <= col < layer.in_width
            and 0 <= batch < layer.batch):
        return int(INVALID_ADDRESS)
    index = (((batch * layer.in_channels + channel) * layer.in_height + row)
             * layer.in_width + col)
    return index * layer.dtype_bytes


def filter_address(layer: ConvLayerConfig, filter_base: int,
                   out_channel: int, channel: int, f_row: int,
                   f_col: int) -> int:
    """Byte address of one KCRS filter element placed at ``filter_base``."""
    index = (((out_channel * layer.in_channels + channel)
              * layer.filter_height + f_row) * layer.filter_width + f_col)
    return filter_base + index * layer.dtype_bytes


def forward_a_address(layer: ConvLayerConfig, m: int, k: int) -> int:
    """Forward A (im2col IFmap) element (m, k): output pixel m, filter tap k."""
    gemm = layer.gemm_shape()
    if m >= gemm.m or k >= gemm.k:
        return int(INVALID_ADDRESS)
    batch, pixel = divmod(m, layer.out_height * layer.out_width)
    out_row, out_col = divmod(pixel, layer.out_width)
    channel, tap = divmod(k, layer.filter_height * layer.filter_width)
    f_row, f_col = divmod(tap, layer.filter_width)
    return ifmap_address(layer, batch, channel,
                         out_row * layer.stride - layer.padding + f_row,
                         out_col * layer.stride - layer.padding + f_col)


def forward_b_address(layer: ConvLayerConfig, filter_base: int, n: int,
                      k: int) -> int:
    """Forward B (filter) element (n, k): output channel n, filter tap k."""
    gemm = layer.gemm_shape()
    if n >= gemm.n or k >= gemm.k:
        return int(INVALID_ADDRESS)
    channel, tap = divmod(k, layer.filter_height * layer.filter_width)
    f_row, f_col = divmod(tap, layer.filter_width)
    return filter_address(layer, filter_base, n, channel, f_row, f_col)


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
class ReferenceSimulator(ConvLayerSimulator):
    """:class:`ConvLayerSimulator` with the scalar per-sector main loop."""

    def _simulate(self, workload: GemmWorkload) -> SimResult:
        """Per-tile, per-sector simulation loop (reference implementation)."""
        gpu = self.gpu
        config = self.config
        grid = build_grid(workload, tile_hw=config.cta_tile_hw)
        tile = grid.tile
        trace = GemmTraceGenerator(workload, tile, gpu)
        scheduler = CtaScheduler(grid, gpu, order=config.scheduling,
                                 dtype_bytes=workload.dtype_bytes)

        l1_caches = [set_assoc_model(gpu.l1_size, gpu.sector_bytes,
                                     config.l1_ways)
                     for _ in range(gpu.num_sm)]
        if config.l2_fully_associative:
            l2_cache = LruModel(max(1, gpu.l2_size // gpu.sector_bytes))
        else:
            l2_cache = set_assoc_model(gpu.l2_size, gpu.sector_bytes,
                                       config.l2_ways)
        dram = DramChannel(gpu)

        b_sector_boundary = trace.layout.b_base // gpu.sector_bytes

        # A tiles depend only on (cta_m, k_offset) and B tiles only on
        # (cta_n, k_offset); memoize them (the same CTA row recurs both
        # within and across waves under column scheduling).
        tiles: Dict[Tuple[str, int, int], TileRecord] = {}

        def record(operand: str, coord: int, k_offset: int) -> TileRecord:
            key = (operand, coord, k_offset)
            if key not in tiles:
                tiles[key] = tile_record(trace, operand, coord, k_offset)
            return tiles[key]

        t_compute = self._compute_time_per_loop(workload, tile)

        l1_bytes = 0.0
        l2_bytes = 0.0
        dram_a_bytes = 0.0
        dram_b_bytes = 0.0
        l1_requests = 0.0
        simulated_ctas = 0
        simulated_time = 0.0

        k_offsets = [loop * tile.blk_k for loop in range(grid.main_loops_per_cta)]
        budget = config.max_ctas if config.max_ctas is not None else grid.num_ctas

        for wave in scheduler.waves():
            if simulated_ctas >= budget:
                break
            per_sm = wave.per_sm()
            wave_time = 0.0
            for k_offset in k_offsets:
                loop_l1_per_sm: Dict[int, float] = {}
                loop_l2_total = 0.0
                loop_dram_total = 0.0
                for sm, ctas in per_sm.items():
                    sm_l1_bytes = 0.0
                    for cta_m, cta_n in ctas:
                        a_access = record("a", cta_m, k_offset)
                        b_access = record("b", cta_n, k_offset)
                        l1_requests += (a_access.l1_requests
                                        + b_access.l1_requests)
                        sm_l1_bytes += sum(
                            access.fetch_bytes(config.l1_accounting, gpu)
                            for access in (a_access, b_access))

                        for sectors in (a_access.sectors, b_access.sectors):
                            missed: List[int] = [
                                sector for sector in sectors.tolist()
                                if not l1_caches[sm].access(sector)]
                            loop_l2_total += len(missed) * gpu.sector_bytes
                            for sector in missed:
                                if not l2_cache.access(sector):
                                    loop_dram_total += gpu.sector_bytes
                                    if sector >= b_sector_boundary:
                                        dram_b_bytes += gpu.sector_bytes
                                    else:
                                        dram_a_bytes += gpu.sector_bytes
                    loop_l1_per_sm[sm] = sm_l1_bytes
                    l1_bytes += sm_l1_bytes
                l2_bytes += loop_l2_total

                wave_time += self._loop_time(
                    per_sm, loop_l1_per_sm, loop_l2_total, loop_dram_total,
                    t_compute, dram)
            simulated_ctas += wave.num_ctas
            simulated_time += wave_time

        dram.read(dram_a_bytes + dram_b_bytes)

        scale = grid.num_ctas / max(1, simulated_ctas)
        traffic = self._extrapolate_traffic(
            workload, grid, scale,
            l1_bytes, l2_bytes, dram_a_bytes, dram_b_bytes, l1_requests)
        time_seconds = self._total_time(workload, simulated_time, scale)

        return SimResult(
            layer=workload.layer,
            gpu=self.gpu,
            grid=grid,
            traffic=traffic,
            time_seconds=time_seconds,
            simulated_ctas=simulated_ctas,
            scale_factor=scale,
            pass_kind=workload.pass_kind,
        )
