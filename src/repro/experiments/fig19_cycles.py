"""Fig. 19 (Appendix C): absolute execution cycles, model vs measured.

The appendix compares DeLTA's estimated execution cycles to the measured
cycles on TITAN Xp for the conv layers of the four CNNs; layer runtimes differ
by an order of magnitude across configurations and DeLTA tracks them
regardless of the absolute scale.
"""

from __future__ import annotations


from ..analysis.metrics import AccuracySummary
from ..analysis.validation import QUICK_VALIDATION, ValidationConfig, validation_report
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig19"
TITLE = "Fig. 19: execution cycles, DeLTA vs measured (TITAN Xp)"


@register_experiment(EXPERIMENT_ID, title=TITLE, uses_validation=True,
                     default_gpus=("titanxp",))
def run(gpu: GpuSpec = TITAN_XP,
        config: ValidationConfig = QUICK_VALIDATION,
        session=None) -> Report:
    """Tabulate estimated and measured cycles for the evaluated layers."""
    report = validation_report(gpu, config, session=session)

    rows = []
    ratios = []
    for record in report.records:
        rows.append({
            "network": record.network,
            "layer": record.layer.name,
            "measured_cycles": record.measured_cycles,
            "model_cycles": record.model_cycles,
            "ratio": record.time_ratio,
        })
        if record.measured_time > 0:
            ratios.append(record.time_ratio)

    stats = AccuracySummary.from_ratios(ratios)
    cycle_range = [row["measured_cycles"] for row in rows]
    summary = {
        "gpu": gpu.name,
        "cycles_gmae": stats.gmae,
        "min_measured_cycles": min(cycle_range),
        "max_measured_cycles": max(cycle_range),
        "dynamic_range": max(cycle_range) / max(1.0, min(cycle_range)),
    }
    series = {
        "measured cycles": [(f"{r['network']}/{r['layer']}", r["measured_cycles"])
                            for r in rows],
        "DeLTA cycles": [(f"{r['network']}/{r['layer']}", r["model_cycles"])
                         for r in rows],
    }
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
