"""GPU device specification used by the DeLTA model and the simulator.

All bandwidths are expressed in bytes per second and all latencies in core
clock cycles, matching the way the paper parameterizes the model (Table I and
Section V).  A :class:`GpuSpec` is an immutable value object; derived
quantities (per-SM bandwidths, MACs per second, ...) are exposed as
properties so the rest of the library never repeats unit conversions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


GIGA = 1.0e9
KIB = 1024
MIB = 1024 * 1024
FP32_BYTES = 4
WARP_SIZE = 32


@dataclass(frozen=True)
class GpuSpec:
    """Hardware parameters of one GPU device.

    Attributes mirror Table I of the paper plus the memory latencies that the
    paper measures with micro-benchmarks (Section VI and Appendix B).
    """

    name: str
    num_sm: int
    core_clock_hz: float
    #: peak FP32 throughput of the whole device, in FLOP/s (2 FLOPs per MAC).
    fp32_flops: float
    #: register file capacity per SM, bytes.
    register_file_bytes: int
    #: shared memory capacity per SM, bytes.
    smem_bytes: int
    #: L1 bandwidth per SM, bytes/s.
    l1_bw_per_sm: float
    #: aggregate L2 bandwidth, bytes/s.
    l2_bw: float
    #: aggregate DRAM bandwidth (effective, as measured), bytes/s.
    dram_bw: float
    #: L2 capacity, bytes.
    l2_size: int
    #: L1 capacity per SM, bytes (used only by the simulator substrate).
    l1_size: int = 32 * KIB
    #: granularity of one L1 request produced by a fully coalesced warp, bytes.
    l1_request_bytes: int = 128
    #: minimum memory transaction (sector) size, bytes.
    sector_bytes: int = 32
    #: cache line size, bytes.
    line_bytes: int = 128
    #: pipeline (unloaded) latencies, in core cycles.
    lat_l1_cycles: float = 32.0
    lat_l2_cycles: float = 220.0
    lat_dram_cycles: float = 500.0
    lat_smem_cycles: float = 24.0
    #: shared memory store / load bandwidth per SM, bytes per cycle.
    smem_st_bytes_per_cycle: float = 128.0
    smem_ld_bytes_per_cycle: float = 256.0
    #: maximum CTAs resident on one SM imposed by the hardware scheduler.
    max_ctas_per_sm: int = 32

    def __post_init__(self) -> None:
        if self.num_sm <= 0:
            raise ValueError("num_sm must be positive")
        if self.core_clock_hz <= 0:
            raise ValueError("core_clock_hz must be positive")
        if self.fp32_flops <= 0:
            raise ValueError("fp32_flops must be positive")
        if self.l1_request_bytes % self.sector_bytes != 0:
            raise ValueError("l1_request_bytes must be a multiple of sector_bytes")
        if self.line_bytes % self.sector_bytes != 0:
            raise ValueError("line_bytes must be a multiple of sector_bytes")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def macs_per_second(self) -> float:
        """Peak multiply-accumulate rate of the whole device (MAC/s)."""
        return self.fp32_flops / 2.0

    @property
    def macs_per_cycle_per_sm(self) -> float:
        """Peak MAC rate of one SM, per core clock cycle."""
        return self.macs_per_second / (self.num_sm * self.core_clock_hz)

    @property
    def l1_bw_bytes_per_cycle(self) -> float:
        """L1 bandwidth of one SM in bytes per core cycle."""
        return self.l1_bw_per_sm / self.core_clock_hz

    @property
    def dram_bw_bytes_per_cycle(self) -> float:
        """Aggregate DRAM bandwidth in bytes per core cycle."""
        return self.dram_bw / self.core_clock_hz

    @property
    def smem_st_bw_per_sm(self) -> float:
        """Shared-memory store bandwidth of one SM, bytes/s."""
        return self.smem_st_bytes_per_cycle * self.core_clock_hz

    @property
    def smem_ld_bw_per_sm(self) -> float:
        """Shared-memory load bandwidth of one SM, bytes/s."""
        return self.smem_ld_bytes_per_cycle * self.core_clock_hz

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes

    # ------------------------------------------------------------------
    # Scaling helpers (used by the design-space exploration, Fig. 16)
    # ------------------------------------------------------------------
    def scaled(self, **multipliers: float) -> "GpuSpec":
        """Return a copy with selected resources multiplied.

        Recognized keys: ``num_sm``, ``mac_bw``, ``regs``, ``smem_size``,
        ``smem_bw``, ``l1_bw``, ``l2_bw``, ``dram_bw``, ``l2_size``.
        Unknown keys raise ``ValueError`` so typos in design-option tables are
        caught early.
        """
        known = {
            "num_sm", "mac_bw", "regs", "smem_size", "smem_bw",
            "l1_bw", "l2_bw", "dram_bw", "l2_size",
        }
        unknown = set(multipliers) - known
        if unknown:
            raise ValueError(f"unknown scaling keys: {sorted(unknown)}")

        changes = {}
        num_sm_mult = multipliers.get("num_sm", 1.0)
        if num_sm_mult != 1.0:
            changes["num_sm"] = max(1, int(round(self.num_sm * num_sm_mult)))
        # MAC throughput scales with both per-SM MAC width and SM count.
        mac_mult = multipliers.get("mac_bw", 1.0) * num_sm_mult
        if mac_mult != 1.0:
            changes["fp32_flops"] = self.fp32_flops * mac_mult
        if "regs" in multipliers:
            changes["register_file_bytes"] = int(
                round(self.register_file_bytes * multipliers["regs"]))
        if "smem_size" in multipliers:
            changes["smem_bytes"] = int(round(self.smem_bytes * multipliers["smem_size"]))
        if "smem_bw" in multipliers:
            changes["smem_st_bytes_per_cycle"] = (
                self.smem_st_bytes_per_cycle * multipliers["smem_bw"])
            changes["smem_ld_bytes_per_cycle"] = (
                self.smem_ld_bytes_per_cycle * multipliers["smem_bw"])
        if "l1_bw" in multipliers:
            changes["l1_bw_per_sm"] = self.l1_bw_per_sm * multipliers["l1_bw"]
        if "l2_bw" in multipliers:
            changes["l2_bw"] = self.l2_bw * multipliers["l2_bw"]
        if "dram_bw" in multipliers:
            changes["dram_bw"] = self.dram_bw * multipliers["dram_bw"]
        if "l2_size" in multipliers:
            changes["l2_size"] = int(round(self.l2_size * multipliers["l2_size"]))
        return dataclasses.replace(self, **changes)

    def with_name(self, name: str) -> "GpuSpec":
        """Return a copy renamed to ``name`` (useful for scaled variants)."""
        return dataclasses.replace(self, name=name)
