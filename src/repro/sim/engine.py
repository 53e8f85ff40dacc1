"""Trace-driven GEMM-layer simulator (the "measured" substrate).

The paper validates DeLTA against hardware profiling of cuDNN kernels.  In
this reproduction the measured reference is produced by this simulator, which
executes the blocked im2col GEMM access stream through:

1. warp-level address generation and coalescing (:mod:`repro.sim.im2col`),
2. a private sector-granularity L1 cache per SM (:mod:`repro.sim.cache`),
3. a shared L2 cache, and
4. a DRAM channel with bandwidth accounting and a load-dependent latency
   model (:mod:`repro.sim.dram`),

while scheduling CTAs onto SMs in waves (:mod:`repro.sim.scheduler`).  The
simulator is completely independent of the analytical equations, so comparing
DeLTA's estimates against its measurements is a meaningful accuracy check.

The hot path is vectorized end to end: tile traces are generated in batches
and memoized per (CTA coordinate, K offset), every SM's L1 accesses of one
main-loop iteration go through a single batched set-associative kernel, and
the L1 miss stream is classified by the L2's batched LRU kernel, so per-loop
work is a handful of array operations instead of per-sector Python calls.
This is the simulator's only access path.  The test oracle
(``tests/sim_reference.py``) replays the same tile addresses sector by
sector through its own OrderedDict LRU models and per-tile ``np.unique``
coalescing, sharing no cache or coalescing code with this engine; both
produce bit-identical :class:`SimTraffic` results (see
tests/test_sim_engine.py).

Even so, exact cache simulation of a full mini-batch-256 layer remains far
more expensive than the analytical model, so the engine simulates a
configurable number of CTA waves exactly and extrapolates (the access pattern
is homogeneous across waves).  Benchmarks use a reduced mini-batch; see
DESIGN.md for why that preserves the comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.layer import LayerConfig
from ..core.tiling import GemmGrid, build_grid
from ..core.workload import GemmWorkload, PassKind, as_workload
from ..gpu.spec import GpuSpec
from ..obs import spans as obs_spans
from .cache import LruCache, SetAssociativeCache, SetAssociativeCacheBank
from .dram import DramChannel
from .im2col import GemmTraceGenerator, TileAccessBatch
from .scheduler import CtaScheduler, SchedulingOrder

#: K offsets per batched trace-generation call (bounds peak lattice memory).
_K_CHUNK = 16

#: dense sector->stamp maps beyond this many sectors fall back to the dict
#: path of :class:`LruCache` (keeps L2 state memory bounded for huge layers).
_MAX_DENSE_SECTORS = 1 << 25


def _timed(kernel: Callable, totals: List[float], slot: int) -> Callable:
    """``kernel`` wrapped to add its wall seconds to ``totals[slot]``."""
    def call(*args):
        started = time.perf_counter()
        try:
            return kernel(*args)
        finally:
            totals[slot] += time.perf_counter() - started
    return call


@dataclass(frozen=True)
class SimulatorConfig:
    """Fidelity/tractability knobs of the simulator.

    Invalid combinations fail eagerly at construction rather than deep inside
    the simulation loop.
    """

    #: per-layer CTA budget: simulates whole waves until at least this many
    #: CTAs ran, then extrapolates (None = all CTAs).
    max_ctas: Optional[int] = 240
    #: L1 traffic accounting granularity: "sector" counts the 32 B sectors a
    #: warp request actually moves (sectored hardware); "request" charges the
    #: full L1 request size for every distinct block a warp touches (the
    #: granularity the paper's model assumes).
    l1_accounting: str = "sector"
    #: CTA scheduling order (the paper assumes column-wise).
    scheduling: SchedulingOrder = "column"
    #: associativity of the per-SM L1 caches.
    l1_ways: int = 8
    #: use a fully associative LRU for L2 (fast path) instead of set-assoc.
    l2_fully_associative: bool = True
    l2_ways: int = 16
    #: CTA tile family (128 for the stock kernels, 256 for scaled designs).
    cta_tile_hw: int = 128

    def __post_init__(self) -> None:
        if self.l1_accounting not in ("sector", "request"):
            raise ValueError(
                f"unknown L1 accounting mode {self.l1_accounting!r}; "
                "expected 'sector' or 'request'")
        if self.scheduling not in ("column", "row"):
            raise ValueError(
                f"unknown scheduling order {self.scheduling!r}; "
                "expected 'column' or 'row'")
        if self.l1_ways <= 0:
            raise ValueError("l1_ways must be positive")
        if self.l2_ways <= 0:
            raise ValueError("l2_ways must be positive")
        if self.cta_tile_hw <= 0:
            raise ValueError("cta_tile_hw must be positive")
        if self.max_ctas is not None and self.max_ctas <= 0:
            raise ValueError("max_ctas must be positive (or None for all)")


@dataclass(frozen=True)
class SimTraffic:
    """Measured (simulated) traffic of one GEMM workload, in bytes.

    ``dram_ifmap_bytes`` is the M-side (``a``) operand's DRAM traffic and
    ``dram_filter_bytes`` the N-side (``b``) operand's; the field names keep
    the forward-pass vocabulary (for dgrad/wgrad workloads ``a`` is the
    output-gradient matrix).
    """

    l1_bytes: float
    l2_bytes: float
    dram_bytes: float
    dram_ifmap_bytes: float
    dram_filter_bytes: float
    l1_requests: float

    @property
    def l1_miss_rate(self) -> float:
        return self.l2_bytes / self.l1_bytes if self.l1_bytes else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.dram_bytes / self.l2_bytes if self.l2_bytes else 0.0

    def level_bytes(self, level: str) -> float:
        try:
            return {"l1": self.l1_bytes, "l2": self.l2_bytes,
                    "dram": self.dram_bytes}[level.lower()]
        except KeyError:
            raise ValueError(f"unknown memory level {level!r}") from None


@dataclass(frozen=True)
class SimResult:
    """Complete simulation outcome for one workload on one GPU."""

    layer: LayerConfig
    gpu: GpuSpec
    grid: GemmGrid
    traffic: SimTraffic
    time_seconds: float
    #: CTAs simulated exactly before extrapolation.
    simulated_ctas: int
    #: extrapolation factor applied to per-CTA quantities.
    scale_factor: float
    #: the training pass the simulated GEMM implements.
    pass_kind: PassKind = "forward"

    @property
    def cycles(self) -> float:
        return self.time_seconds * self.gpu.core_clock_hz


class ConvLayerSimulator:
    """Simulate one GEMM workload (conv, linear or batched) on a GPU."""

    def __init__(self, gpu: GpuSpec,
                 config: SimulatorConfig = SimulatorConfig()) -> None:
        self.gpu = gpu
        self.config = config

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, source: Union[LayerConfig, GemmWorkload]) -> SimResult:
        """Simulate one workload (or a layer's forward pass) and return
        traffic and execution time."""
        workload = as_workload(source)
        with obs_spans.trace_deep("sim.run", workload=workload.name,
                                  m=workload.gemm.m, n=workload.gemm.n,
                                  k=workload.gemm.k):
            return self._simulate(workload)

    # ------------------------------------------------------------------
    # Vectorized pipeline
    # ------------------------------------------------------------------
    def _simulate(self, workload: GemmWorkload) -> SimResult:
        gpu = self.gpu
        config = self.config
        grid = build_grid(workload, tile_hw=config.cta_tile_hw)
        tile = grid.tile
        trace = GemmTraceGenerator(workload, tile, gpu)
        scheduler = CtaScheduler(grid, gpu, order=config.scheduling,
                                 dtype_bytes=workload.dtype_bytes)
        sector_bytes = gpu.sector_bytes

        l1_bank = SetAssociativeCacheBank(gpu.num_sm, gpu.l1_size,
                                          sector_bytes, ways=config.l1_ways)
        if config.l2_fully_associative:
            universe = trace.layout.total_bytes // sector_bytes + 1
            l2_cache = LruCache(
                gpu.l2_size, sector_bytes,
                sector_universe=universe if universe <= _MAX_DENSE_SECTORS
                else None)
        else:
            l2_cache = SetAssociativeCache(gpu.l2_size, sector_bytes,
                                           ways=config.l2_ways)
        dram = DramChannel(gpu)
        # Under deep tracing each wave's L1 and L2 kernel seconds are summed
        # onto its ``sim.kernels`` span; otherwise the kernels run bare.
        l1_access = l1_bank.access_block
        l2_access = l2_cache.access_block
        kernel_seconds = [0.0, 0.0]
        if obs_spans.deep_tracing():
            l1_access = _timed(l1_access, kernel_seconds, 0)
            l2_access = _timed(l2_access, kernel_seconds, 1)
        b_sector_boundary = trace.layout.b_base // sector_bytes
        t_compute = self._compute_time_per_loop(workload, tile)

        k_offsets = [loop * tile.blk_k for loop in range(grid.main_loops_per_cta)]
        num_loops = len(k_offsets)
        budget = config.max_ctas if config.max_ctas is not None else grid.num_ctas

        # Memoized per-coordinate records spanning every K offset: per-loop
        # unique-sector views, plus the per-loop L1 request counts and
        # precomputed fetch bytes under the configured accounting mode.
        a_tiles: Dict[int, Tuple[List[np.ndarray], np.ndarray,
                                 np.ndarray]] = {}
        b_tiles: Dict[int, Tuple[List[np.ndarray], np.ndarray,
                                 np.ndarray]] = {}

        def materialize(store, generator,
                        coords: List[int]) -> List[TileAccessBatch]:
            chunks = []
            for start in range(0, num_loops, _K_CHUNK):
                chunk = k_offsets[start:start + _K_CHUNK]
                chunks.append((len(chunk), generator(coords, chunk)))
            for position, coord in enumerate(coords):
                requests_parts = []
                fetch_parts = []
                sector_views: List[np.ndarray] = []
                for chunk_len, batch in chunks:
                    lo = position * chunk_len
                    hi = lo + chunk_len
                    requests_parts.append(batch.l1_requests[lo:hi])
                    if config.l1_accounting == "request":
                        fetch_parts.append(batch.l1_requests[lo:hi]
                                           * float(gpu.l1_request_bytes))
                    else:
                        fetch_parts.append(batch.l1_sectors[lo:hi]
                                           * float(sector_bytes))
                    bounds = batch.offsets[lo:hi + 1].tolist()
                    sector_views.extend(
                        batch.sectors[bounds[i]:bounds[i + 1]]
                        for i in range(chunk_len))
                store[coord] = (sector_views,
                                np.concatenate(requests_parts),
                                np.concatenate(fetch_parts))
            return [batch for _, batch in chunks]

        l1_bytes = 0.0
        l2_bytes = 0.0
        dram_a_bytes = 0.0
        dram_b_bytes = 0.0
        l1_requests = 0.0
        simulated_ctas = 0
        simulated_time = 0.0
        empty = np.empty(0, dtype=np.int64)

        for wave_index, wave in enumerate(scheduler.waves()):
            if simulated_ctas >= budget:
                break
            per_sm = wave.per_sm()
            sms = list(per_sm)
            new_ms = sorted({m for ctas in per_sm.values() for m, _ in ctas}
                            - set(a_tiles))
            new_ns = sorted({n for ctas in per_sm.values() for _, n in ctas}
                            - set(b_tiles))
            # Spans are per wave, never per loop or inside the cache kernels:
            # wave counts are small so the (deep-only) overhead stays out of
            # the benchmarked hot path.
            with obs_spans.trace_deep("sim.im2col", wave=wave_index,
                                      m_tiles=len(new_ms),
                                      n_tiles=len(new_ns)) as im2col_span:
                batches = []
                if new_ms:
                    batches += materialize(a_tiles, trace.a_tile_batch, new_ms)
                if new_ns:
                    batches += materialize(b_tiles, trace.b_tile_batch, new_ns)
                if im2col_span is not None:
                    im2col_span.attrs.update(
                        lattice_elements=sum(b.lattice_elements
                                             for b in batches),
                        sorted_keys=sum(b.sorted_keys for b in batches))

            with obs_spans.trace_deep("sim.kernels", wave=wave_index,
                                      ctas=wave.num_ctas,
                                      loops=num_loops) as kernels_span:
                if kernels_span is not None:
                    kernel_seconds[:] = (0.0, 0.0)
                    l1_before = (l1_bank.stats.accesses,
                                 l1_bank.stats.misses)
                # Wave-static per-loop aggregates (exact integer-valued
                # floats, so the summation order cannot change the totals).
                sm_fetch: Dict[int, np.ndarray] = {}
                requests_per_loop = np.zeros(num_loops, dtype=np.int64)
                for sm in sms:
                    fetch_total = np.zeros(num_loops)
                    for cta_m, cta_n in per_sm[sm]:
                        fetch_total += a_tiles[cta_m][2] + b_tiles[cta_n][2]
                        requests_per_loop += (a_tiles[cta_m][1]
                                              + b_tiles[cta_n][1])
                    sm_fetch[sm] = fetch_total
                    l1_bytes += float(fetch_total.sum())
                l1_requests += float(requests_per_loop.sum())

                # Per-loop (sm, sector-array) segment lists, resolved once.
                loop_segments: List[List[Tuple[int, np.ndarray]]] = \
                    [[] for _ in range(num_loops)]
                for sm in sms:
                    for cta_m, cta_n in per_sm[sm]:
                        for views in (a_tiles[cta_m][0], b_tiles[cta_n][0]):
                            for loop, piece in enumerate(views):
                                if piece.size:
                                    loop_segments[loop].append((sm, piece))

                wave_time = 0.0
                for loop in range(num_loops):
                    loop_l1_per_sm = {sm: float(sm_fetch[sm][loop])
                                      for sm in sms}
                    segments = [piece for _, piece in loop_segments[loop]]
                    owners = [sm for sm, _ in loop_segments[loop]]
                    lengths = [piece.size for piece in segments]

                    if segments:
                        sectors = np.concatenate(segments)
                        owner_ids = np.repeat(
                            np.asarray(owners, dtype=np.int64),
                            np.asarray(lengths, dtype=np.int64))
                        l1_hits = l1_access(owner_ids, sectors)
                        missed = sectors[~l1_hits]
                    else:
                        missed = empty
                    loop_l2_total = float(missed.size * sector_bytes)
                    l2_bytes += loop_l2_total

                    if missed.size:
                        l2_hits = l2_access(missed)
                        dram_missed = missed[~l2_hits]
                    else:
                        dram_missed = empty
                    loop_dram_total = float(dram_missed.size * sector_bytes)
                    b_misses = int(np.count_nonzero(
                        dram_missed >= b_sector_boundary))
                    dram_b_bytes += b_misses * sector_bytes
                    dram_a_bytes += ((dram_missed.size - b_misses)
                                     * sector_bytes)

                    wave_time += self._loop_time(
                        per_sm, loop_l1_per_sm, loop_l2_total,
                        loop_dram_total, t_compute, dram)
                if kernels_span is not None:
                    kernels_span.attrs.update(
                        l1_ms=kernel_seconds[0] * 1e3,
                        l2_ms=kernel_seconds[1] * 1e3,
                        l1_accesses=l1_bank.stats.accesses - l1_before[0],
                        l1_misses=l1_bank.stats.misses - l1_before[1])
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

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    def _compute_time_per_loop(self, workload: GemmWorkload, tile) -> float:
        """Per-loop compute/SMEM stream time (independent of traffic)."""
        gpu = self.gpu
        dtype = workload.dtype_bytes
        macs_per_second_per_sm = gpu.macs_per_second / gpu.num_sm
        t_cs = tile.macs_per_loop / macs_per_second_per_sm
        smem_store_bytes = tile.input_elements_per_loop * dtype
        smem_load_bytes = ((tile.warp_m + tile.warp_n) * tile.blk_k
                           * tile.num_warps * dtype)
        t_sas = (smem_store_bytes / gpu.smem_st_bw_per_sm
                 + smem_load_bytes / gpu.smem_ld_bw_per_sm)
        return max(t_cs, t_sas)

    def _loop_time(self, per_sm: Dict[int, list], loop_l1_per_sm: Dict[int, float],
                   loop_l2_total: float, loop_dram_total: float,
                   t_compute: float, dram: DramChannel) -> float:
        """Execution time of one lockstep main-loop iteration of a wave."""
        gpu = self.gpu
        # Compute / SMEM side: each SM runs its resident CTAs back to back.
        compute_time = max((len(ctas) * t_compute for ctas in per_sm.values()),
                           default=t_compute)
        # L1 bandwidth per SM.
        l1_time = max((bytes_ / gpu.l1_bw_per_sm
                       for bytes_ in loop_l1_per_sm.values()), default=0.0)
        # Shared L2 / DRAM bandwidth across the wave.
        l2_time = loop_l2_total / gpu.l2_bw
        dram_bw_time = loop_dram_total / gpu.dram_bw
        # Latency exposure: with few resident CTAs the global load latency of
        # one iteration cannot be hidden by the other CTAs' compute.
        active = max((len(ctas) for ctas in per_sm.values()), default=1)
        offered = loop_dram_total / max(t_compute * active, 1e-12)
        latency_seconds = dram.latency_cycles(offered) / gpu.core_clock_hz
        per_cta_dram = loop_dram_total / max(1, sum(len(c) for c in per_sm.values()))
        load_time = latency_seconds + per_cta_dram / (gpu.dram_bw / gpu.num_sm)
        if load_time > active * t_compute:
            latency_bound = load_time
        else:
            latency_bound = 0.0
        return max(compute_time, l1_time, l2_time, dram_bw_time, latency_bound)

    def _total_time(self, workload: GemmWorkload, simulated_time: float,
                    scale: float) -> float:
        """Extrapolated execution time including prologue and epilogue."""
        gpu = self.gpu
        prologue = gpu.lat_dram_cycles / gpu.core_clock_hz
        epilogue = workload.out_elements * workload.dtype_bytes / gpu.dram_bw
        return prologue + simulated_time * scale + epilogue

    # ------------------------------------------------------------------
    # Extrapolation
    # ------------------------------------------------------------------
    def _extrapolate_traffic(self, workload: GemmWorkload, grid: GemmGrid,
                             scale: float, l1_bytes: float, l2_bytes: float,
                             dram_a: float, dram_b: float,
                             l1_requests: float) -> SimTraffic:
        """Scale sampled per-CTA traffic to the whole workload.

        L1 and L2 traffic are per-CTA streams and scale linearly.  The A
        operand's DRAM traffic also scales linearly (each wave touches fresh
        data under column-wise scheduling) but is capped at one full tensor
        read per CTA column.  B-operand DRAM traffic is compulsory when the
        sampled waves show no refetching, in which case it is left unscaled.
        """
        dtype = workload.dtype_bytes
        a_cap = (workload.a.tensor_elements * dtype) * grid.ctas_n
        dram_a_scaled = min(dram_a * scale, max(a_cap, dram_a))

        b_footprint = workload.b.tensor_elements * dtype
        if dram_b <= b_footprint * 1.05:
            dram_b_scaled = dram_b
        else:
            dram_b_scaled = dram_b * scale

        return SimTraffic(
            l1_bytes=l1_bytes * scale,
            l2_bytes=l2_bytes * scale,
            dram_bytes=dram_a_scaled + dram_b_scaled,
            dram_ifmap_bytes=dram_a_scaled,
            dram_filter_bytes=dram_b_scaled,
            l1_requests=l1_requests * scale,
        )
