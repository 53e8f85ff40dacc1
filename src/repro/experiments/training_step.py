"""Training-step breakdown: fwd/dgrad/wgrad time and traffic per network.

The paper models DNN *training*: each convolution layer runs three im2col
GEMMs per step (Section II).  This experiment lowers every layer of the
benchmark CNNs onto the pass-aware workload IR and reports, per network and
GPU, the predicted time and DRAM traffic of each pass plus the full
training-step total, together with a batch-size sweep of the step time.
The evaluation is model-only, so it runs in well under a second.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.model import DeltaModel
from ..core.workload import TRAINING_PASSES
from ..gpu.devices import get_device
from ..gpu.spec import GpuSpec
from ..networks.registry import PAPER_NETWORK_ORDER, get_network
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "training"
TITLE = "Training-step breakdown: fwd/dgrad/wgrad time and traffic"

#: batch sizes swept for the step-time series.
SWEEP_BATCHES = (32, 64, 128, 256)


@register_experiment(EXPERIMENT_ID, title=TITLE, fast=True)
def run(devices: Optional[Sequence[GpuSpec]] = None,
        networks: Optional[Sequence[str]] = None,
        batch: int = 256,
        sweep_batches: Sequence[int] = SWEEP_BATCHES) -> Report:
    """Per-pass training-step estimates for every benchmark network."""
    if devices is None:
        devices = [get_device("titanxp"), get_device("v100")]
    if networks is None:
        networks = list(PAPER_NETWORK_ORDER)

    rows = []
    series = {}
    slowest_pass_counts: dict = {}
    for gpu in devices:
        model = DeltaModel(gpu)
        for name in networks:
            network = get_network(name, batch=batch)
            step = model.estimate_training_step(network)
            times = step.time_by_pass
            dram = step.traffic_by_pass("dram")
            row = {"network": network.name, "gpu": gpu.name, "batch": batch}
            for pass_kind in TRAINING_PASSES:
                row[f"{pass_kind}_ms"] = times[pass_kind] * 1e3
            row["step_ms"] = step.total_time_seconds * 1e3
            for pass_kind in TRAINING_PASSES:
                row[f"{pass_kind}_dram_gb"] = dram[pass_kind] / 1e9
            row["backward_to_forward"] = (
                (times["dgrad"] + times["wgrad"]) / times["forward"]
                if times["forward"] > 0 else float("inf"))
            rows.append(row)
            slowest = max(TRAINING_PASSES, key=lambda kind: times[kind])
            slowest_pass_counts[slowest] = slowest_pass_counts.get(slowest, 0) + 1

            sweep = []
            for sweep_batch in sweep_batches:
                swept = model.estimate_training_step(
                    network.with_batch(sweep_batch))
                sweep.append((sweep_batch, swept.total_time_seconds * 1e3))
            series[f"{network.name} step time on {gpu.name} (ms)"] = sweep

    ratios = [row["backward_to_forward"] for row in rows]
    summary = {
        "networks x gpus": len(rows),
        "batch": batch,
        "mean backward/forward time ratio": sum(ratios) / len(ratios),
        "most common slowest pass": max(slowest_pass_counts,
                                        key=slowest_pass_counts.get),
    }
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
