"""Fig. 20 (Appendix D): absolute L1/L2/DRAM traffic, model vs measured.

Unlike Fig. 11 (normalized ratios), this figure compares the absolute traffic
volumes in bytes on TITAN Xp; traffic spans more than two orders of magnitude
across layers and the model tracks the measured volumes at every level.
"""

from __future__ import annotations


from ..analysis.metrics import AccuracySummary
from ..analysis.validation import (
    MEMORY_LEVELS,
    QUICK_VALIDATION,
    ValidationConfig,
    validation_report,
)
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GIGA, GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig20"
TITLE = "Fig. 20: absolute memory traffic, DeLTA vs measured (TITAN Xp)"


@register_experiment(EXPERIMENT_ID, title=TITLE, uses_validation=True,
                     default_gpus=("titanxp",))
def run(gpu: GpuSpec = TITAN_XP,
        config: ValidationConfig = QUICK_VALIDATION,
        session=None) -> Report:
    """Tabulate absolute traffic volumes per layer and memory level."""
    report = validation_report(gpu, config, session=session)

    rows = []
    for record in report.records:
        row = {"network": record.network, "layer": record.layer.name}
        for level in MEMORY_LEVELS:
            row[f"{level}_measured_gb"] = record.measured_traffic[level] / GIGA
            row[f"{level}_model_gb"] = record.model_traffic[level] / GIGA
        rows.append(row)

    summary = {"gpu": gpu.name, "layers": len(rows)}
    series = {}
    for level in MEMORY_LEVELS:
        ratios = [record.traffic_ratio(level) for record in report.records
                  if record.measured_traffic[level] > 0]
        stats = AccuracySummary.from_ratios(ratios)
        summary[f"{level.upper()} GMAE"] = stats.gmae
        series[f"{level.upper()} traffic (measured GB)"] = [
            (f"{r['network']}/{r['layer']}", r[f"{level}_measured_gb"]) for r in rows]
        series[f"{level.upper()} traffic (model GB)"] = [
            (f"{r['network']}/{r['layer']}", r[f"{level}_model_gb"]) for r in rows]
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
