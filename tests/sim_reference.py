"""Scalar reference simulator: the test oracle for the vectorized engine.

:class:`ReferenceSimulator` replays the original per-sector loop — one
``cache.access`` call per sector, tile traces from the scalar
``*_tile_access`` generators — over the same scheduler, timing and
extrapolation helpers as :class:`repro.sim.engine.ConvLayerSimulator`.
The production engine must reproduce its :class:`SimTraffic`, time and CTA
accounting bit for bit (tests/test_sim_engine.py, test_sim_workload.py,
test_sim_dense_gemm.py).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.tiling import build_grid
from repro.core.workload import GemmWorkload
from repro.sim.cache import LruCache, SetAssociativeCache
from repro.sim.dram import DramChannel
from repro.sim.engine import ConvLayerSimulator, SimResult
from repro.sim.im2col import GemmTraceGenerator, TileAccess
from repro.sim.scheduler import CtaScheduler


class ReferenceSimulator(ConvLayerSimulator):
    """:class:`ConvLayerSimulator` with the scalar per-sector main loop."""

    def _simulate(self, workload: GemmWorkload) -> SimResult:
        """Original per-sector simulation loop (reference implementation)."""
        gpu = self.gpu
        config = self.config
        grid = build_grid(workload, tile_hw=config.cta_tile_hw)
        tile = grid.tile
        trace = GemmTraceGenerator(workload, tile, gpu)
        scheduler = CtaScheduler(grid, gpu, order=config.scheduling,
                                 dtype_bytes=workload.dtype_bytes)

        l1_caches = [SetAssociativeCache(gpu.l1_size, gpu.sector_bytes,
                                         ways=config.l1_ways)
                     for _ in range(gpu.num_sm)]
        if config.l2_fully_associative:
            l2_cache = LruCache(gpu.l2_size, gpu.sector_bytes)
        else:
            l2_cache = SetAssociativeCache(gpu.l2_size, gpu.sector_bytes,
                                           ways=config.l2_ways)
        dram = DramChannel(gpu)

        b_sector_boundary = trace.layout.b_base // gpu.sector_bytes

        # B tiles depend only on (cta_n, k_offset); memoize them.
        b_tiles: Dict[Tuple[int, int], TileAccess] = {}

        def b_tile(cta_n: int, k_offset: int) -> TileAccess:
            key = (cta_n, k_offset)
            if key not in b_tiles:
                b_tiles[key] = trace.b_tile_access(cta_n, k_offset)
            return b_tiles[key]

        # A tiles depend only on (cta_m, k_offset); memoize them too (the
        # same CTA row recurs both within and across waves under column
        # scheduling).
        a_tiles: Dict[Tuple[int, int], TileAccess] = {}

        def a_tile(cta_m: int, k_offset: int) -> TileAccess:
            key = (cta_m, k_offset)
            if key not in a_tiles:
                a_tiles[key] = trace.a_tile_access(cta_m, k_offset)
            return a_tiles[key]

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
                        a_access = a_tile(cta_m, k_offset)
                        b_access = b_tile(cta_n, k_offset)
                        l1_requests += (a_access.l1_requests
                                        + b_access.l1_requests)
                        cta_l1 = sum(access.fetch_bytes(config.l1_accounting,
                                                        gpu.l1_request_bytes,
                                                        gpu.sector_bytes)
                                     for access in (a_access, b_access))
                        sm_l1_bytes += cta_l1

                        for sectors in (a_access.sectors, b_access.sectors):
                            if sectors.size == 0:
                                continue
                            cache = l1_caches[sm]
                            missed: List[int] = []
                            for sector in sectors.tolist():
                                if not cache.access(sector):
                                    missed.append(sector)
                            if not missed:
                                continue
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
        time_seconds = self._total_time(workload, grid, simulated_time, scale,
                                        dram)

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
