"""DRAM channel model: byte accounting plus a load-dependent latency curve.

The simulator only needs two things from DRAM: how many bytes crossed the
channel (traffic accounting, Fig. 11/20) and how the access turnaround latency
grows as the offered load approaches the effective channel bandwidth
(Fig. 18).  The latency curve uses an M/D/1-style queueing delay on top of the
unloaded pipeline latency, which reproduces the flat-then-exponential shape
the paper measures with its micro-benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.spec import GpuSpec


@dataclass
class DramChannel:
    """Accounting model of the GPU's DRAM channels."""

    gpu: GpuSpec
    bytes_read: float = 0.0

    def read(self, num_bytes: float) -> None:
        if num_bytes < 0:
            raise ValueError("cannot read a negative number of bytes")
        self.bytes_read += num_bytes

    # ------------------------------------------------------------------
    # Latency model (Fig. 18)
    # ------------------------------------------------------------------
    #: queueing-delay weight relative to the unloaded latency; calibrated so
    #: the saturated latency is ~4-5x the unloaded latency, matching the
    #: knee of the paper's measured curves (Fig. 18).
    QUEUE_WEIGHT = 0.2

    def latency_cycles(self, offered_bandwidth: float,
                       utilization_cap: float = 0.98) -> float:
        """Turnaround latency (cycles) at a given offered bandwidth (bytes/s).

        Below ~70% utilization the latency stays at the unloaded pipeline
        value; as the offered load approaches the effective bandwidth the
        queueing delay grows as ``rho^2 / (1 - rho)`` (an M/D/1-style knee
        scaled by :data:`QUEUE_WEIGHT`), reproducing the flat-then-exponential
        shape of the measured curve.
        """
        if offered_bandwidth < 0:
            raise ValueError("offered bandwidth must be non-negative")
        base = self.gpu.lat_dram_cycles
        peak = self.gpu.dram_bw
        if peak <= 0:
            return base
        rho = min(offered_bandwidth / peak, utilization_cap)
        if rho <= 0:
            return base
        queueing = base * self.QUEUE_WEIGHT * rho * rho / (1.0 - rho)
        return base + queueing
