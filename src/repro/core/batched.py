"""Batched (structure-of-arrays) evaluation of the DeLTA performance model.

This module is the one implementation of the paper's Section V execution-time
model (stream times Eq. 11-13, prologue/epilogue Eq. 14-15 and the bottleneck
candidates Eq. 16-18).  Every estimate goes through :func:`_performance_grid`:

* :class:`BatchedGpuSpec` holds one array per scaled :class:`GpuSpec`
  resource, with each element derived exactly the way
  :meth:`GpuSpec.scaled` + :meth:`DesignOption.apply` derive the scalar spec
  (including the ``!= 1.0`` guards and ``int(round(...))`` quantization).
  :func:`single_design` is the one-design batch of a plain GPU, which is how
  :class:`~repro.core.model.DeltaModel` evaluates requests, training steps
  and validation.
* :class:`WorkloadStack` packs the GPU-independent scalars of W lowered
  workloads (per-loop traffic volumes, tile geometry, occupancy footprints)
  into (W, 1) column arrays, one stack per CTA-tile family.  The *traffic*
  model needs no vectorization at all: its only GPU inputs are
  ``l1_request_bytes`` and ``sector_bytes``, which :meth:`GpuSpec.scaled`
  never changes, so one scalar traffic estimate per (workload, tile family)
  covers every design in the batch.
* :func:`estimate_grid` evaluates the full (workload x design) grid of a DSE
  sweep in one shot and classifies the bottleneck of every cell.

The scalar transcription of the equations lives on as a test oracle
(``tests/model_reference.py``).  Bit-identity notes: every candidate time is
computed with the same float64 operations in the same order as the oracle's
scalar expressions, the candidate stacking order matches the oracle's
candidate dict (so the first-max tie-break equals ``max(dict, key=...)``'s),
and integer quantization uses ``np.rint`` (round-half-even, same as Python's
``round``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from ..gpu.design_options import DesignOption
from ..gpu.spec import GpuSpec
from .bottleneck import Bottleneck
from .traffic import TrafficEstimate, TrafficModel
from .workload import GemmWorkload

#: candidate stacking order (Eq. 16, 17, then Eq. 18 per level); the first
#: maximum wins ties, so on equal times the earlier label is reported.
CANDIDATE_ORDER: Tuple[Bottleneck, ...] = (
    Bottleneck.MAC_BW,
    Bottleneck.SMEM_BW,
    Bottleneck.DRAM_LAT,
    Bottleneck.L1_BW,
    Bottleneck.L2_BW,
    Bottleneck.DRAM_BW,
)

#: supported CTA tile height/width families (see ``select_cta_tile``).
CTA_TILE_FAMILIES: Tuple[int, ...] = (128, 256)

#: the :class:`DesignOption` fields of one design-matrix row, in column
#: order: the eight resource multipliers, then the CTA tile.
DESIGN_FIELDS: Tuple[str, ...] = (
    "num_sm", "mac_bw", "regs", "smem_size", "smem_bw",
    "l1_bw", "l2_bw", "dram_bw", "cta_tile_hw")

_OPTION_FIELDS = operator.attrgetter(*DESIGN_FIELDS)


def design_matrix(options: Sequence[DesignOption]) -> np.ndarray:
    """The ``(N, 9)`` float64 design matrix of N design options."""
    return np.array([_OPTION_FIELDS(opt) for opt in options],
                    dtype=np.float64).reshape(len(options),
                                              len(DESIGN_FIELDS))


def _scaled_int(base: int, mult: np.ndarray) -> np.ndarray:
    """Vectorized ``int(round(base * mult))`` (round-half-even, like Python)."""
    return np.rint(base * mult).astype(np.int64)


@dataclass(frozen=True)
class BatchedGpuSpec:
    """Structure-of-arrays view of N scaled GPU designs over one baseline.

    Every array has one element per design, derived from ``base`` exactly as
    :meth:`DesignOption.apply` derives the scalar :class:`GpuSpec`.
    Unscaled resources (clock, latencies, request/sector geometry) stay
    scalars on ``base``.
    """

    base: GpuSpec
    #: the raw per-design multipliers (used by e.g. the cost proxy).
    num_sm_mult: np.ndarray
    mac_bw_mult: np.ndarray
    regs_mult: np.ndarray
    smem_size_mult: np.ndarray
    smem_bw_mult: np.ndarray
    l1_bw_mult: np.ndarray
    l2_bw_mult: np.ndarray
    dram_bw_mult: np.ndarray
    #: True where the design's GEMM kernel uses the 256-wide CTA tile.
    cta256: np.ndarray
    #: scaled resources (same semantics as the GpuSpec fields).
    num_sm: np.ndarray
    fp32_flops: np.ndarray
    register_file_bytes: np.ndarray
    smem_bytes: np.ndarray
    smem_st_bytes_per_cycle: np.ndarray
    smem_ld_bytes_per_cycle: np.ndarray
    l1_bw_per_sm: np.ndarray
    l2_bw: np.ndarray
    dram_bw: np.ndarray

    def __len__(self) -> int:
        return int(self.num_sm.shape[0])

    @classmethod
    def from_options(cls, base: GpuSpec,
                     design: np.ndarray) -> "BatchedGpuSpec":
        """Batch N designs over one baseline GPU.

        ``design`` is an ``(N, 9)`` design matrix (:data:`DESIGN_FIELDS`
        columns, see :func:`design_matrix`).  Replicates
        :meth:`GpuSpec.scaled` element-wise: ``num_sm`` is only
        requantized when its multiplier differs from 1.0 (the scalar guard),
        the MAC multiplier compounds ``mac_bw * num_sm`` multipliers, and
        capacity fields quantize with round-half-even.
        """
        (num_sm_mult, mac_bw_mult, regs_mult, smem_size_mult, smem_bw_mult,
         l1_bw_mult, l2_bw_mult, dram_bw_mult, tiles_f) = np.asarray(
             design, dtype=np.float64).T
        tiles = tiles_f.astype(np.int64)
        unsupported = set(tiles.tolist()) - set(CTA_TILE_FAMILIES)
        if unsupported:
            raise ValueError(
                f"unsupported CTA tile height/width {sorted(unsupported)}")

        # num_sm: quantized only when actually scaled (scalar `!= 1.0` guard).
        num_sm = np.where(
            num_sm_mult != 1.0,
            np.maximum(1, _scaled_int(base.num_sm, num_sm_mult)),
            base.num_sm).astype(np.int64)
        # MAC throughput compounds per-SM width and SM count multipliers.
        mac_mult = mac_bw_mult * num_sm_mult
        fp32_flops = np.where(mac_mult != 1.0,
                              base.fp32_flops * mac_mult, base.fp32_flops)
        return cls(
            base=base,
            num_sm_mult=num_sm_mult,
            mac_bw_mult=mac_bw_mult,
            regs_mult=regs_mult,
            smem_size_mult=smem_size_mult,
            smem_bw_mult=smem_bw_mult,
            l1_bw_mult=l1_bw_mult,
            l2_bw_mult=l2_bw_mult,
            dram_bw_mult=dram_bw_mult,
            cta256=tiles == 256,
            num_sm=num_sm,
            fp32_flops=fp32_flops,
            register_file_bytes=_scaled_int(base.register_file_bytes,
                                            regs_mult),
            smem_bytes=_scaled_int(base.smem_bytes, smem_size_mult),
            smem_st_bytes_per_cycle=(base.smem_st_bytes_per_cycle
                                     * smem_bw_mult),
            smem_ld_bytes_per_cycle=(base.smem_ld_bytes_per_cycle
                                     * smem_bw_mult),
            l1_bw_per_sm=base.l1_bw_per_sm * l1_bw_mult,
            l2_bw=base.l2_bw * l2_bw_mult,
            dram_bw=base.dram_bw * dram_bw_mult,
        )


@dataclass(frozen=True)
class WorkloadStack:
    """GPU-independent scalars of W workloads as (W, 1) column arrays.

    One stack per CTA-tile family: the tile geometry (and hence the traffic)
    of a workload depends on which kernel family the design uses, so a stack
    is built from the W scalar :class:`TrafficEstimate` objects of one
    family.  Broadcasting a stack against a :class:`BatchedGpuSpec`'s (N,)
    rows yields the full (W, N) evaluation grid in one set of array ops.
    """

    #: per-main-loop traffic volumes (Eq. 11 inputs).
    l1_bytes_per_loop: np.ndarray
    l2_bytes_per_loop: np.ndarray
    dram_bytes_per_loop: np.ndarray
    #: grid geometry.
    main_loops_per_cta: np.ndarray
    num_ctas: np.ndarray
    #: tile quantities (dtype-scaled bytes / MACs).
    macs_per_loop: np.ndarray
    smem_store_bytes: np.ndarray
    smem_load_bytes: np.ndarray
    input_bytes: np.ndarray
    output_bytes: np.ndarray
    smem_bytes_per_cta: np.ndarray
    registers_bytes_per_cta: np.ndarray
    #: whole-workload traffic totals (for metric accumulation).
    dram_bytes: np.ndarray
    l2_bytes: np.ndarray
    #: MAC work per workload (design- and family-independent), shape (W,).
    flops: np.ndarray

    @classmethod
    def from_traffic(cls, traffics: Sequence[TrafficEstimate]
                     ) -> "WorkloadStack":
        def col(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype).reshape(-1, 1)

        tiles = [traffic.grid.tile for traffic in traffics]
        dtypes = [traffic.workload.dtype_bytes for traffic in traffics]
        return cls(
            l1_bytes_per_loop=col([t.l1_bytes_per_loop for t in traffics],
                                  np.float64),
            l2_bytes_per_loop=col([t.l2_bytes_per_loop for t in traffics],
                                  np.float64),
            dram_bytes_per_loop=col([t.dram_bytes_per_loop for t in traffics],
                                    np.float64),
            main_loops_per_cta=col([t.grid.main_loops_per_cta
                                    for t in traffics], np.int64),
            num_ctas=col([t.grid.num_ctas for t in traffics], np.int64),
            macs_per_loop=col([tile.macs_per_loop for tile in tiles],
                              np.int64),
            smem_store_bytes=col(
                [(tile.blk_m + tile.blk_n) * tile.blk_k * dtype
                 for tile, dtype in zip(tiles, dtypes)], np.int64),
            smem_load_bytes=col(
                [(tile.warp_m + tile.warp_n) * tile.blk_k * tile.num_warps
                 * dtype for tile, dtype in zip(tiles, dtypes)], np.int64),
            input_bytes=col([tile.input_elements_per_loop * dtype
                             for tile, dtype in zip(tiles, dtypes)],
                            np.int64),
            output_bytes=col([tile.output_elements * dtype
                              for tile, dtype in zip(tiles, dtypes)],
                             np.int64),
            smem_bytes_per_cta=col(
                [max(1, tile.smem_bytes_per_cta(dtype))
                 for tile, dtype in zip(tiles, dtypes)], np.int64),
            registers_bytes_per_cta=col(
                [max(1, tile.registers_bytes_per_cta(dtype))
                 for tile, dtype in zip(tiles, dtypes)], np.int64),
            dram_bytes=col([t.dram_bytes for t in traffics], np.float64),
            l2_bytes=col([t.l2_bytes for t in traffics], np.float64),
            flops=np.array([t.workload.flops for t in traffics],
                           dtype=np.int64),
        )


def build_stacks(traffic_grid: Sequence[Dict[int, TrafficEstimate]]
                 ) -> Dict[int, "WorkloadStack"]:
    """One :class:`WorkloadStack` per CTA-tile family for W workloads.

    ``traffic_grid`` holds one ``{tile_hw: TrafficEstimate}`` dict per
    workload (see :func:`traffic_by_family`).  Build once per workload
    signature and reuse across batches — the stacks are GPU-independent.
    """
    return {hw: WorkloadStack.from_traffic([grid[hw] for grid in traffic_grid])
            for hw in CTA_TILE_FAMILIES}


@lru_cache(maxsize=64)
def single_design(gpu: GpuSpec) -> BatchedGpuSpec:
    """The one-design batch of ``gpu`` itself (unit multipliers, 128 tile).

    Memoized per GPU: building a batch costs tens of microseconds, more
    than evaluating a small network on it.
    """
    return BatchedGpuSpec.from_options(
        gpu, design_matrix((DesignOption(name=gpu.name),)))


def _performance_grid(gpus: BatchedGpuSpec, stack: WorkloadStack
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """The Section V performance model over a (W, N) grid.

    Returns ``(times, bottleneck_index, active_ctas, ctas_per_sm)``, each
    (W, N): the execution time of the most-loaded SM, the index into
    :data:`CANDIDATE_ORDER` of the bounding resource, the CTAs resident per
    SM used by the latency-hiding analysis, and the CTAs the most-loaded SM
    executes (``ceil(NumCTA / NumSM)``).

    Eq. 14 note: the paper's printed prologue volume is ``blkM x blkN``; the
    prologue actually stages the *input* tiles (``(blkM + blkN) x blkK``
    elements), which is what ``input_bytes`` holds.  The difference is
    negligible: the prologue is charged once per layer.
    """
    base = gpus.base
    clock = base.core_clock_hz

    num_sm = gpus.num_sm
    l1_bw = gpus.l1_bw_per_sm
    l2_bw_per_sm = gpus.l2_bw / num_sm
    dram_bw_per_sm = gpus.dram_bw / num_sm
    smem_st_bw = gpus.smem_st_bytes_per_cycle * clock
    smem_ld_bw = gpus.smem_ld_bytes_per_cycle * clock

    # Stream times (Eq. 11-13).
    lat_l1 = base.lat_l1_cycles / clock
    lat_l2 = base.lat_l2_cycles / clock
    lat_dram = base.lat_dram_cycles / clock
    t_l1 = lat_l1 + stack.l1_bytes_per_loop / l1_bw
    t_l2 = lat_l2 + stack.l2_bytes_per_loop / l2_bw_per_sm
    t_dram = lat_dram + stack.dram_bytes_per_loop / dram_bw_per_sm
    gls = np.maximum(np.maximum(t_l1, t_l2), t_dram)

    sas = (stack.smem_store_bytes / smem_st_bw
           + stack.smem_load_bytes / smem_ld_bw)
    macs_per_second_per_sm = (gpus.fp32_flops / 2.0) / num_sm
    cs = stack.macs_per_loop / macs_per_second_per_sm

    # Pure bandwidth-transfer times (Eq. 18 inputs).
    bw_l1 = stack.l1_bytes_per_loop / l1_bw
    bw_l2 = stack.l2_bytes_per_loop / l2_bw_per_sm
    bw_dram = stack.dram_bytes_per_loop / dram_bw_per_sm

    # Occupancy (active_ctas_per_sm / ctas_per_sm, integer math).
    by_smem = gpus.smem_bytes // stack.smem_bytes_per_cta
    by_regs = gpus.register_file_bytes // stack.registers_bytes_per_cta
    active_cap = np.maximum(
        1, np.minimum(np.minimum(by_smem, by_regs), base.max_ctas_per_sm))
    loops = stack.main_loops_per_cta
    ctas_per_sm = np.ceil(stack.num_ctas / num_sm).astype(np.int64)
    active = np.minimum(active_cap, ctas_per_sm)

    # Prologue / epilogue (Eq. 14, 15).
    dram_term = lat_dram + stack.input_bytes / dram_bw_per_sm
    smem_store_term = (base.lat_smem_cycles / clock
                       + stack.input_bytes / smem_st_bw)
    smem_load_term = stack.smem_load_bytes / smem_ld_bw
    t_prologue = dram_term + smem_store_term + smem_load_term
    t_epilogue = stack.output_bytes / gpus.dram_bw

    # Candidates (Eq. 16-18), in CANDIDATE_ORDER.
    waves_per_sm = np.maximum(1.0, ctas_per_sm / active)
    candidates = (
        t_prologue + (cs * loops + t_epilogue) * ctas_per_sm,
        t_prologue + (sas * loops + t_epilogue) * ctas_per_sm,
        t_prologue + ((gls + np.maximum(cs, sas)) * loops
                      + t_epilogue) * waves_per_sm,
        t_prologue + (bw_l1 * loops
                      + stack.output_bytes / l1_bw) * ctas_per_sm,
        t_prologue + (bw_l2 * loops
                      + stack.output_bytes / gpus.l2_bw) * ctas_per_sm,
        t_prologue + (bw_dram * loops + t_epilogue) * ctas_per_sm,
    )
    # Running max + descending first-match scan: equivalent to stacking and
    # argmax-ing (first max wins on ties, like the scalar ``max(dict)``), but
    # every pass is contiguous instead of strided across a stacked axis.
    times = candidates[0]
    for candidate in candidates[1:]:
        times = np.maximum(times, candidate)
    index = np.zeros(times.shape, dtype=np.int64)
    for i in range(len(candidates) - 1, -1, -1):
        index = np.where(candidates[i] == times, i, index)
    return times, index, active, ctas_per_sm


def traffic_by_family(base_gpu: GpuSpec, workload: GemmWorkload
                      ) -> Dict[int, TrafficEstimate]:
    """Scalar traffic of one workload for each CTA-tile family.

    Computed against the *baseline* GPU: traffic only reads
    ``l1_request_bytes``/``sector_bytes``, which design scaling never
    changes, so these estimates are valid for every design in a batch.
    """
    return {hw: TrafficModel(gpu=base_gpu, cta_tile_hw=hw).estimate(workload)
            for hw in CTA_TILE_FAMILIES}


@dataclass(frozen=True)
class BatchedEstimates:
    """Time, bottleneck and traffic of W workloads on N designs.

    Every array is (W, N): one row per workload in evaluation order, one
    column per design of the :class:`BatchedGpuSpec`.
    """

    #: execution time (seconds) of the most-loaded SM.
    times: np.ndarray
    #: index into :data:`CANDIDATE_ORDER` of the bounding resource.
    bottleneck_index: np.ndarray
    #: DRAM / L2 traffic (bytes); traffic depends on the design only through
    #: its CTA tile family, so rows hold the per-family scalar selected per
    #: design.
    dram_bytes: np.ndarray
    l2_bytes: np.ndarray


def _take(gpus: BatchedGpuSpec, idx: np.ndarray) -> BatchedGpuSpec:
    """Design-column subset of a batch (same baseline GPU)."""
    return BatchedGpuSpec(base=gpus.base, **{
        f.name: getattr(gpus, f.name)[idx]
        for f in fields(BatchedGpuSpec) if f.name != "base"})


def estimate_grid(gpus: BatchedGpuSpec, *,
                  stacks: Dict[int, WorkloadStack]) -> BatchedEstimates:
    """Evaluate W workloads x N designs in one vectorized pass.

    ``stacks`` holds one :class:`WorkloadStack` per CTA-tile family (see
    :func:`build_stacks`).  Each family present in the batch is evaluated on
    its own design columns only; the grid math is elementwise over designs,
    so this yields bitwise the same values as computing every family
    everywhere and selecting afterwards, at a fraction of the array work.
    """
    # The outputs are allocated only after every family's grid has run:
    # allocating them first made evaluate_points ~30% slower on the
    # 41472-point perfbench grid (2-vCPU x86 host), as the grid's
    # temporaries then stopped reusing freed memory.
    parts = []
    for hw in CTA_TILE_FAMILIES:
        idx = np.nonzero(gpus.cta256 == (hw == 256))[0]
        if idx.size:
            # [:2] drops the occupancy arrays at once (peak memory).
            parts.append((idx, stacks[hw],
                          *_performance_grid(_take(gpus, idx), stacks[hw])[:2]))
    shape = (stacks[CTA_TILE_FAMILIES[0]].num_ctas.shape[0], len(gpus))
    times = np.empty(shape, dtype=np.float64)
    index = np.empty(shape, dtype=np.int64)
    dram = np.empty(shape, dtype=np.float64)
    l2 = np.empty(shape, dtype=np.float64)
    for idx, stack, family_times, family_index in parts:
        times[:, idx] = family_times
        index[:, idx] = family_index
        dram[:, idx] = stack.dram_bytes
        l2[:, idx] = stack.l2_bytes
    return BatchedEstimates(times=times, bottleneck_index=index,
                            dram_bytes=dram, l2_bytes=l2)
