"""Facade combining the per-level traffic models into a single estimate.

:class:`TrafficModel` evaluates the L1 (Section IV-A), L2 (IV-B) and DRAM
(IV-C) models for one GEMM workload on a GPU and returns a
:class:`TrafficEstimate` with per-level totals, per-main-loop volumes (used by
the performance model of Section V) and derived miss rates.  Entry points
accept either a :class:`~repro.core.workload.GemmWorkload` or a
:class:`~repro.core.layer.ConvLayerConfig` (lowered to its forward pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..gpu.spec import GpuSpec
from .dram import DramModelOptions, DramTraffic, estimate_dram_traffic
from .l1 import L1Traffic, ReplicationMode, estimate_l1_traffic
from .l2 import L2ModelOptions, L2Traffic, estimate_l2_traffic
from .layer import ConvLayerConfig, LayerConfig
from .tiling import GemmGrid, build_grid
from .workload import GemmWorkload, as_workload


@dataclass(frozen=True)
class TrafficEstimate:
    """Traffic at every level of the memory hierarchy for one workload."""

    workload: GemmWorkload
    gpu: GpuSpec
    grid: GemmGrid
    l1: L1Traffic
    l2: L2Traffic
    dram: DramTraffic

    @property
    def layer(self) -> LayerConfig:
        """The layer the workload was lowered from."""
        return self.workload.layer

    @property
    def pass_kind(self) -> str:
        return self.workload.pass_kind

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def l1_bytes(self) -> float:
        return self.l1.total_bytes

    @property
    def l2_bytes(self) -> float:
        return self.l2.total_bytes

    @property
    def dram_bytes(self) -> float:
        return self.dram.total_bytes

    def level_bytes(self, level: str) -> float:
        """Traffic at a named level: ``"l1"``, ``"l2"`` or ``"dram"``."""
        try:
            return {"l1": self.l1_bytes, "l2": self.l2_bytes,
                    "dram": self.dram_bytes}[level.lower()]
        except KeyError:
            raise ValueError(f"unknown memory level {level!r}") from None

    # ------------------------------------------------------------------
    # Per-main-loop volumes (inputs to the performance model, Eq. 11)
    # ------------------------------------------------------------------
    @property
    def total_main_loops(self) -> int:
        return self.grid.total_main_loops

    @property
    def l1_bytes_per_loop(self) -> float:
        return self.l1_bytes / self.total_main_loops

    @property
    def l2_bytes_per_loop(self) -> float:
        return self.l2_bytes / self.total_main_loops

    @property
    def dram_bytes_per_loop(self) -> float:
        return self.dram_bytes / self.total_main_loops

    # ------------------------------------------------------------------
    # Derived miss rates (used for Fig. 4 style analysis)
    # ------------------------------------------------------------------
    @property
    def l1_miss_rate(self) -> float:
        """Fraction of L1 traffic that reaches L2."""
        if self.l1_bytes <= 0:
            return 0.0
        return min(1.0, self.l2_bytes / self.l1_bytes)

    @property
    def l2_miss_rate(self) -> float:
        """Fraction of L2 traffic that reaches DRAM."""
        if self.l2_bytes <= 0:
            return 0.0
        return min(1.0, self.dram.total_bytes / self.l2_bytes)


@dataclass(frozen=True)
class TrafficModel:
    """DeLTA's memory traffic model (Section IV)."""

    gpu: GpuSpec
    l2_options: L2ModelOptions = field(default_factory=L2ModelOptions)
    dram_options: DramModelOptions = field(default_factory=DramModelOptions)
    #: how often each input matrix is streamed through L1 (see repro.core.l1).
    l1_replication: ReplicationMode = "per-cta"
    #: CTA tile height/width family used by the GEMM kernel (128 or 256).
    cta_tile_hw: int = 128

    def estimate(self, source: Union[LayerConfig, GemmWorkload],
                 grid: Optional[GemmGrid] = None) -> TrafficEstimate:
        """Estimate L1, L2 and DRAM traffic for one workload."""
        workload = as_workload(source)
        if grid is None:
            grid = build_grid(workload, tile_hw=self.cta_tile_hw)
        l1 = estimate_l1_traffic(workload, grid, self.gpu,
                                 replication=self.l1_replication)
        l2 = estimate_l2_traffic(workload, grid, self.l2_options)
        dram = estimate_dram_traffic(workload, grid, self.dram_options)
        # Traffic can only shrink as it moves up the hierarchy; the analytical
        # approximations occasionally violate this for degenerate layers, so
        # clamp to keep downstream consumers (miss rates, bottleneck search)
        # well defined.
        l2_clamped = l2
        if l2.total_bytes > l1.total_bytes:
            scale = l1.total_bytes / l2.total_bytes
            l2_clamped = L2Traffic(
                ifmap_bytes=l2.ifmap_bytes * scale,
                filter_bytes=l2.filter_bytes * scale,
                ifmap_elements_per_loop=l2.ifmap_elements_per_loop * scale,
                filter_elements_per_loop=l2.filter_elements_per_loop * scale,
            )
        dram_clamped = dram
        if dram.total_bytes > l2_clamped.total_bytes:
            scale = l2_clamped.total_bytes / dram.total_bytes
            dram_clamped = DramTraffic(
                ifmap_bytes=dram.ifmap_bytes * scale,
                filter_bytes=dram.filter_bytes * scale,
            )
        return TrafficEstimate(
            workload=workload,
            gpu=self.gpu,
            grid=grid,
            l1=l1,
            l2=l2_clamped,
            dram=dram_clamped,
        )
