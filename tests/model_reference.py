"""Scalar reference performance model: the test oracle for the batched path.

Production evaluates the Section V equations in one place,
:func:`repro.core.batched._performance_grid`.  This module keeps the scalar
transcription of the same equations, one workload per call:

* the main-loop stream times (Eq. 11-13) and pure bandwidth-transfer times
  (Eq. 18 inputs) as :class:`StreamTimes`;
* :class:`PerformanceModel`, which evaluates every bottleneck candidate
  (Eq. 14-18) and returns a :class:`ReferenceEstimate` that also carries the
  streams and the per-candidate times;
* :func:`evaluate_point`, the one-point DSE metrics walk (layers outer,
  passes inner, running float sums) that ``repro.dse.evaluate_points`` must
  reproduce.

Production results must equal these bit for bit (test_batched_core.py,
test_model_fanout.py and the DSE determinism and store suites).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.analysis.frontier import design_cost
from repro.core.bottleneck import Bottleneck
from repro.core.layer import LayerConfig
from repro.core.performance import ExecutionEstimate
from repro.core.tiling import CtaTile, active_ctas_per_sm
from repro.core.traffic import TrafficEstimate, TrafficModel
from repro.core.workload import (GemmWorkload, as_workload, expand_passes,
                                 lower_pass)
from repro.dse.batch import _workload_layers
from repro.dse.space import DesignPoint
from repro.gpu.spec import GpuSpec
from repro.networks.registry import registry_generation


# ----------------------------------------------------------------------
# Execution streams of the software-pipelined GEMM main loop (Eq. 11-13)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StreamTimes:
    """Per-main-loop execution time (seconds) of each stream and resource."""

    #: global load stream (Eq. 11): latency + transfer of the slowest level.
    gls: float
    #: shared memory access stream (Eq. 12).
    sas: float
    #: compute stream (Eq. 13).
    cs: float
    #: pure transfer times per level, without pipeline latency (Eq. 18 inputs).
    l1_bw: float
    l2_bw: float
    dram_bw: float
    #: per-level load times including pipeline latency (Eq. 11 terms).
    gls_l1: float
    gls_l2: float
    gls_dram: float

    @property
    def compute_or_smem(self) -> float:
        """max(tCS, tSAS): the non-memory-system critical path per loop."""
        return max(self.cs, self.sas)


def gls_time(traffic: TrafficEstimate, gpu: GpuSpec) -> tuple:
    """Eq. 11: per-loop global load time and its per-level components."""
    clock = gpu.core_clock_hz
    lat_l1 = gpu.lat_l1_cycles / clock
    lat_l2 = gpu.lat_l2_cycles / clock
    lat_dram = gpu.lat_dram_cycles / clock

    l1_bw = gpu.l1_bw_per_sm
    l2_bw_per_sm = gpu.l2_bw / gpu.num_sm
    dram_bw_per_sm = gpu.dram_bw / gpu.num_sm

    t_l1 = lat_l1 + traffic.l1_bytes_per_loop / l1_bw
    t_l2 = lat_l2 + traffic.l2_bytes_per_loop / l2_bw_per_sm
    t_dram = lat_dram + traffic.dram_bytes_per_loop / dram_bw_per_sm
    return max(t_l1, t_l2, t_dram), t_l1, t_l2, t_dram


def sas_time(tile: CtaTile, gpu: GpuSpec, dtype_bytes: int) -> float:
    """Eq. 12: per-loop shared memory store + load time."""
    store_bytes = (tile.blk_m + tile.blk_n) * tile.blk_k * dtype_bytes
    load_bytes = ((tile.warp_m + tile.warp_n) * tile.blk_k
                  * tile.num_warps * dtype_bytes)
    return (store_bytes / gpu.smem_st_bw_per_sm
            + load_bytes / gpu.smem_ld_bw_per_sm)


def cs_time(tile: CtaTile, gpu: GpuSpec) -> float:
    """Eq. 13: per-loop compute (MAC) time on one SM."""
    macs = tile.macs_per_loop
    macs_per_second_per_sm = gpu.macs_per_second / gpu.num_sm
    return macs / macs_per_second_per_sm


def bandwidth_times(traffic: TrafficEstimate, gpu: GpuSpec) -> tuple:
    """Pure per-loop transfer times at L1 (per SM), L2 and DRAM (per-SM share)."""
    t_l1 = traffic.l1_bytes_per_loop / gpu.l1_bw_per_sm
    t_l2 = traffic.l2_bytes_per_loop / (gpu.l2_bw / gpu.num_sm)
    t_dram = traffic.dram_bytes_per_loop / (gpu.dram_bw / gpu.num_sm)
    return t_l1, t_l2, t_dram


def compute_stream_times(traffic: TrafficEstimate, gpu: GpuSpec) -> StreamTimes:
    """All per-main-loop stream times for one layer on one GPU."""
    tile = traffic.grid.tile
    dtype_bytes = traffic.workload.dtype_bytes
    t_gls, gls_l1, gls_l2, gls_dram = gls_time(traffic, gpu)
    t_sas = sas_time(tile, gpu, dtype_bytes)
    t_cs = cs_time(tile, gpu)
    bw_l1, bw_l2, bw_dram = bandwidth_times(traffic, gpu)
    return StreamTimes(
        gls=t_gls,
        sas=t_sas,
        cs=t_cs,
        l1_bw=bw_l1,
        l2_bw=bw_l2,
        dram_bw=bw_dram,
        gls_l1=gls_l1,
        gls_l2=gls_l2,
        gls_dram=gls_dram,
    )


# ----------------------------------------------------------------------
# Execution time and bottleneck (Eq. 14-18)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceEstimate(ExecutionEstimate):
    """An :class:`ExecutionEstimate` plus the oracle's intermediate values."""

    streams: StreamTimes
    #: per-candidate execution times (seconds) keyed by bottleneck label.
    candidates: Dict[Bottleneck, float]


@dataclass(frozen=True)
class PerformanceModel:
    """Scalar DeLTA execution time and bottleneck model (Section V)."""

    gpu: GpuSpec
    traffic_model: Optional[TrafficModel] = None

    def _traffic_model(self) -> TrafficModel:
        return self.traffic_model or TrafficModel(gpu=self.gpu)

    def _prologue_time(self, traffic: TrafficEstimate) -> float:
        """Eq. 14 (staging the input tiles, ``(blkM + blkN) x blkK``)."""
        gpu = self.gpu
        tile = traffic.grid.tile
        dtype = traffic.workload.dtype_bytes
        clock = gpu.core_clock_hz
        input_bytes = tile.input_elements_per_loop * dtype
        warp_load_bytes = ((tile.warp_m + tile.warp_n) * tile.blk_k
                           * tile.num_warps * dtype)
        dram_term = (gpu.lat_dram_cycles / clock
                     + input_bytes / (gpu.dram_bw / gpu.num_sm))
        smem_store_term = (gpu.lat_smem_cycles / clock
                           + input_bytes / gpu.smem_st_bw_per_sm)
        smem_load_term = warp_load_bytes / gpu.smem_ld_bw_per_sm
        return dram_term + smem_store_term + smem_load_term

    def _epilogue_time(self, traffic: TrafficEstimate,
                       bottleneck_bw: Optional[float] = None) -> float:
        """Eq. 15."""
        tile = traffic.grid.tile
        dtype = traffic.workload.dtype_bytes
        output_bytes = tile.output_elements * dtype
        bw = bottleneck_bw if bottleneck_bw is not None else self.gpu.dram_bw
        return output_bytes / bw

    def estimate(self, source: Union[LayerConfig, GemmWorkload],
                 traffic: Optional[TrafficEstimate] = None
                 ) -> ReferenceEstimate:
        """Predict execution time and bottleneck for one workload."""
        gpu = self.gpu
        workload = as_workload(source)
        if traffic is None:
            traffic = self._traffic_model().estimate(workload)
        streams = compute_stream_times(traffic, gpu)
        grid = traffic.grid
        tile = grid.tile

        loops = grid.main_loops_per_cta
        num_ctas = grid.num_ctas
        ctas_per_sm = math.ceil(num_ctas / gpu.num_sm)
        active = min(active_ctas_per_sm(tile, gpu, workload.dtype_bytes),
                     ctas_per_sm)

        t_prologue = self._prologue_time(traffic)
        t_epilogue = self._epilogue_time(traffic)

        candidates: Dict[Bottleneck, float] = {}

        # Eq. 16 -- compute or shared-memory bound (cases 1 and 3).
        t_cs_total = t_prologue + (streams.cs * loops + t_epilogue) * ctas_per_sm
        t_sas_total = t_prologue + (streams.sas * loops + t_epilogue) * ctas_per_sm
        candidates[Bottleneck.MAC_BW] = t_cs_total
        candidates[Bottleneck.SMEM_BW] = t_sas_total

        # Eq. 17 -- global load latency bound (case 2): each wave of active
        # CTAs exposes a full tGLS per loop.
        waves_per_sm = max(1.0, ctas_per_sm / active)
        t_lat_total = (t_prologue
                       + ((streams.gls + streams.compute_or_smem) * loops
                          + t_epilogue) * waves_per_sm)
        candidates[Bottleneck.DRAM_LAT] = t_lat_total

        # Eq. 18 -- memory bandwidth bound (case 4), one per level.
        level_bw = {
            Bottleneck.L1_BW: (streams.l1_bw, gpu.l1_bw_per_sm),
            Bottleneck.L2_BW: (streams.l2_bw, gpu.l2_bw),
            Bottleneck.DRAM_BW: (streams.dram_bw, gpu.dram_bw),
        }
        for label, (per_loop, epilogue_bw) in level_bw.items():
            t_epi = self._epilogue_time(traffic, bottleneck_bw=epilogue_bw)
            candidates[label] = (t_prologue
                                 + (per_loop * loops + t_epi) * ctas_per_sm)

        bottleneck = max(candidates, key=lambda key: candidates[key])
        return ReferenceEstimate(
            workload=workload,
            gpu=gpu,
            traffic=traffic,
            time_seconds=candidates[bottleneck],
            bottleneck=bottleneck,
            active_ctas=active,
            ctas_per_sm=ctas_per_sm,
            streams=streams,
            candidates=dict(candidates),
        )


# ----------------------------------------------------------------------
# One design point, one workload at a time (DSE metrics)
# ----------------------------------------------------------------------

def evaluate_point(base_gpu: GpuSpec, point: DesignPoint, *,
                   unique: bool = True,
                   layer_stride: int = 1) -> Dict[str, object]:
    """DSE metrics of one design point through the scalar model.

    Returns the same flat metrics dict as ``repro.dse.evaluate_points``
    (plus the Fig. 16c-style ``bottlenecks`` time shares).  ``layer_stride``
    > 1 subsamples the workload's layers, as the successive-halving proxy
    does.
    """
    gpu = point.option.apply(base_gpu)
    model = PerformanceModel(
        gpu, TrafficModel(gpu=gpu, cta_tile_hw=point.option.cta_tile_hw))
    layers = _workload_layers(point.network, point.batch, point.dtype_bytes,
                              unique, registry_generation())
    if layer_stride > 1:
        layers = layers[::layer_stride] or layers[:1]
    pass_kinds = expand_passes(point.passes)
    estimates = []
    for layer in layers:
        if pass_kinds == ("forward",):
            estimates.append(model.estimate(layer))
        else:
            for pass_kind in pass_kinds:
                estimates.append(model.estimate(lower_pass(layer, pass_kind)))
    total = sum(est.time_seconds for est in estimates)
    shares: Counter = Counter()
    for est in estimates:
        # zero-time estimates carry no share; including them would add a
        # spurious zero-share bottleneck category.
        if est.time_seconds <= 0:
            continue
        shares[est.bottleneck] += est.time_seconds
    bottlenecks = ({key.value: value / total for key, value in shares.items()}
                   if total > 0 else {})
    flops = sum(est.workload.flops for est in estimates)
    dram_bytes = sum(est.traffic.dram_bytes for est in estimates)
    l2_bytes = sum(est.traffic.l2_bytes for est in estimates)
    return {
        "time_s": total,
        "throughput_tflops": (flops / total / 1e12) if total > 0 else 0.0,
        "dram_gb": dram_bytes / 1e9,
        "l2_gb": l2_bytes / 1e9,
        "resource_cost": design_cost(point.option),
        "layers": len(layers),
        "gemms": len(estimates),
        "bottlenecks": bottlenecks,
    }
