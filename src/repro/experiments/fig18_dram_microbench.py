"""Fig. 18: DRAM latency and effective bandwidth micro-benchmark.

The paper measures, for each GPU, the DRAM turnaround latency while sweeping
the offered traffic: the latency is flat (the unloaded pipeline latency) until
the offered load approaches the effective channel bandwidth, then rises
sharply.  The annotated numbers are ~500 cycles / 430 GB/s (TITAN Xp),
~580 cycles / 550 GB/s (P100) and ~500 cycles / 850 GB/s (V100).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..gpu.devices import all_devices
from ..gpu.spec import GpuSpec
from ..sim.microbench import measure_dram_latency_curve
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig18"
TITLE = "Fig. 18: DRAM latency vs offered bandwidth"


@register_experiment(EXPERIMENT_ID, title=TITLE, fast=True)
def run(devices: Optional[Sequence[GpuSpec]] = None,
        num_points: int = 48) -> Report:
    """Sweep offered DRAM bandwidth on every device and record the latency."""
    devices = list(devices) if devices is not None else list(all_devices())

    rows = []
    series = {}
    summary = {}
    for gpu in devices:
        curve = measure_dram_latency_curve(gpu, num_points=num_points)
        rows.append({
            "gpu": gpu.name,
            "unloaded_latency_cycles": curve.unloaded_latency_cycles,
            "effective_bandwidth_gbps": curve.effective_bandwidth_gbps,
        })
        summary[f"{gpu.name} unloaded latency (cycles)"] = curve.unloaded_latency_cycles
        summary[f"{gpu.name} effective BW (GB/s)"] = curve.effective_bandwidth_gbps
        series[f"{gpu.name} latency vs offered bandwidth"] = curve.as_series()
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
