"""Fig. 13: execution time estimates and bottlenecks on TITAN Xp.

For every evaluated layer, the figure plots DeLTA's predicted execution time
normalized to the measured time on TITAN Xp, annotated with the predicted
performance bottleneck.  The paper reports a GMAE of 6.0% with arithmetic
throughput (MAC_BW) as the dominant bottleneck (~90% of layers).
"""

from __future__ import annotations

from collections import Counter

from ..analysis.validation import QUICK_VALIDATION, ValidationConfig, validation_report
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig13"
TITLE = "Fig. 13: normalized execution time and bottlenecks (TITAN Xp)"


@register_experiment(EXPERIMENT_ID, title=TITLE, uses_validation=True,
                     default_gpus=("titanxp",))
def run(gpu: GpuSpec = TITAN_XP,
        config: ValidationConfig = QUICK_VALIDATION,
        experiment_id: str = EXPERIMENT_ID,
        title: str = TITLE,
        session=None) -> Report:
    """Validate execution-time estimates on one GPU (used by Fig. 13 and 14)."""
    report = validation_report(gpu, config, session=session)

    rows = []
    for record in report.records:
        rows.append({
            "network": record.network,
            "layer": record.layer.name,
            "model_ms": record.model_time * 1e3,
            "measured_ms": record.measured_time * 1e3,
            "time_ratio": record.time_ratio,
            "bottleneck": record.bottleneck.value,
        })

    time_stats = report.time_summary()
    bottlenecks = Counter(record.bottleneck for record in report.records)
    compute_bound = sum(count for key, count in bottlenecks.items()
                        if not key.is_memory_bound)
    summary = {
        "gpu": gpu.name,
        "time_gmae": time_stats.gmae,
        "time_stdev": time_stats.stdev_ratio,
        "layers": len(rows),
        "compute_bound_fraction": compute_bound / max(1, len(rows)),
        "bottleneck_counts": ", ".join(
            f"{key.value}:{count}" for key, count in sorted(
                bottlenecks.items(), key=lambda item: -item[1])),
    }
    series = {
        "normalized execution time": [
            (f"{row['network']}/{row['layer']}", row["time_ratio"]) for row in rows],
    }
    return make_result(experiment_id, title, rows=rows, series=series,
                       summary=summary)
