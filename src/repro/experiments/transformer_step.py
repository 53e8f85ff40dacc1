"""Transformer training-step breakdown over the GEMM-native lowering.

Beyond-the-paper experiment: the pass-aware workload IR speaks pure GEMM, so
the same per-level traffic and performance models that reproduce the paper's
CNN numbers estimate transformer encoder training — the FC and attention
GEMMs that dominate modern workloads.  The experiment reports, per GPU, the
fwd/dgrad/wgrad split of one BERT-base-style training step, the share of step
time spent in attention (batched) GEMMs versus dense projections, and a
sequence-length sweep of the step time.  Model-only: it runs in well under a
second.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.layer import BatchedGemmLayerConfig
from ..core.model import DeltaModel
from ..core.workload import TRAINING_PASSES
from ..gpu.devices import get_device
from ..gpu.spec import GpuSpec
from ..networks.transformer import make_transformer_encoder
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "transformer"
TITLE = "Transformer training step: GEMM-native encoder breakdown"

#: sequence lengths swept for the step-time series.
SWEEP_SEQ_LENS = (128, 256, 512)


@register_experiment(EXPERIMENT_ID, title=TITLE, fast=True)
def run(devices: Optional[Sequence[GpuSpec]] = None,
        batch: int = 16, num_layers: int = 12, hidden: int = 768,
        heads: int = 12, ffn: int = 3072, seq_len: int = 512,
        sweep_seq_lens: Sequence[int] = SWEEP_SEQ_LENS) -> Report:
    """Per-pass training-step estimates for a BERT-base-style encoder."""
    if devices is None:
        devices = [get_device("titanxp"), get_device("v100")]

    rows = []
    series = {}
    for gpu in devices:
        model = DeltaModel(gpu)
        network = make_transformer_encoder(
            batch, num_layers=num_layers, hidden=hidden, heads=heads,
            ffn=ffn, seq_len=seq_len)
        step = model.estimate_training_step(network)
        times = step.time_by_pass
        attention_s = sum(
            record.time_seconds for record in step.records
            if isinstance(record.estimate.workload.layer,
                          BatchedGemmLayerConfig))
        row = {"network": network.name, "gpu": gpu.name, "batch": batch,
               "seq_len": seq_len}
        for pass_kind in TRAINING_PASSES:
            row[f"{pass_kind}_ms"] = times[pass_kind] * 1e3
        row["step_ms"] = step.total_time_seconds * 1e3
        row["attention_share"] = (attention_s / step.total_time_seconds
                                  if step.total_time_seconds > 0 else 0.0)
        row["dram_gb"] = step.total_traffic_bytes("dram") / 1e9
        rows.append(row)

        sweep = []
        for sweep_seq in sweep_seq_lens:
            swept = model.estimate_training_step(make_transformer_encoder(
                batch, num_layers=num_layers, hidden=hidden, heads=heads,
                ffn=ffn, seq_len=sweep_seq))
            sweep.append((sweep_seq, swept.total_time_seconds * 1e3))
        series[f"{network.name} step time on {gpu.name} (ms)"] = sweep

    summary = {
        "gpus": len(rows),
        "batch": batch,
        "seq_len": seq_len,
        "encoder layers": num_layers,
        "mean attention share": sum(r["attention_share"] for r in rows) / len(rows),
    }
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
