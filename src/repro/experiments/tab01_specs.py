"""Table I: GPU device specifications used in the evaluation."""

from __future__ import annotations

from typing import Sequence

from ..gpu.devices import all_devices
from ..gpu.spec import GIGA, KIB, MIB, GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "tab01"
TITLE = "Table I: GPU device specifications"


def _spec_row(gpu: GpuSpec) -> dict:
    return {
        "Specification": gpu.name,
        "NumSM": gpu.num_sm,
        "Core clock (GHz)": gpu.core_clock_hz / 1e9,
        "BW_MAC FP32 (GFLOPS)": gpu.fp32_flops / GIGA,
        "Regs (KB/SM)": gpu.register_file_bytes / KIB,
        "SMEM (KB/SM)": gpu.smem_bytes / KIB,
        "BW_L1 (GB/s/SM)": gpu.l1_bw_per_sm / GIGA,
        "BW_L2 (GB/s)": gpu.l2_bw / GIGA,
        "BW_DRAM (GB/s)": gpu.dram_bw / GIGA,
        "L2 size (MB)": gpu.l2_size / MIB,
        "L1 request (B)": gpu.l1_request_bytes,
    }


@register_experiment(EXPERIMENT_ID, title=TITLE, fast=True)
def run(devices: Sequence[GpuSpec] | None = None) -> Report:
    """Reproduce Table I for the evaluated devices."""
    devices = list(devices) if devices is not None else list(all_devices())
    rows = [_spec_row(gpu) for gpu in devices]
    summary = {
        "devices": ", ".join(gpu.name for gpu in devices),
        "peak_flops_ratio_v100_vs_titanxp": (
            devices[-1].fp32_flops / devices[0].fp32_flops if len(devices) > 1 else 1.0),
    }
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, summary=summary)
