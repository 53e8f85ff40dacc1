"""Fig. 15: execution-time accuracy distributions and prior-model comparison.

Panel (a) shows the distribution of normalized execution-time estimates on the
three GPUs; panel (b) compares DeLTA against the prior fixed-miss-rate models
for a sweep of miss rates (0.3, 0.5, 0.7, 1.0) on TITAN Xp.  With the
miss-rate 1.0 assumption the prior models over-predict execution time by ~1.8x
on average and up to ~7x.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.metrics import AccuracySummary
from ..analysis.validation import QUICK_VALIDATION, ValidationConfig, validation_report
from ..core.baselines import PAPER_MISS_RATES, FixedMissRateModel
from ..gpu.devices import TITAN_XP, all_devices
from ..gpu.spec import GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig15"
TITLE = "Fig. 15: execution time estimate distributions and fixed-miss-rate comparison"


def _distribution(ratios: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(ratios)
    count = len(ordered)
    if count == 0:
        return {}

    def quantile(q: float) -> float:
        index = min(count - 1, max(0, int(round(q * (count - 1)))))
        return ordered[index]

    return {
        "min": ordered[0],
        "p25": quantile(0.25),
        "median": quantile(0.5),
        "p75": quantile(0.75),
        "max": ordered[-1],
    }


@register_experiment(EXPERIMENT_ID, title=TITLE, uses_validation=True,
                     default_gpus=("titanxp", "p100", "v100"))
def run(devices: Optional[Sequence[GpuSpec]] = None,
        baseline_gpu: GpuSpec = TITAN_XP,
        miss_rates: Sequence[float] = PAPER_MISS_RATES,
        config: ValidationConfig = QUICK_VALIDATION,
        session=None) -> Report:
    """Build both panels of Fig. 15."""
    devices = list(devices) if devices is not None else list(all_devices())

    rows: List[dict] = []
    summary: Dict[str, object] = {}

    # Panel (a): DeLTA accuracy distribution per GPU.
    for gpu in devices:
        report = validation_report(gpu, config, session=session)
        ratios = report.time_ratios()
        stats = AccuracySummary.from_ratios(ratios)
        distribution = _distribution(ratios)
        rows.append({"model": "DeLTA", "gpu": gpu.name, **distribution})
        summary[f"DeLTA {gpu.name} GMAE"] = stats.gmae

    # Panel (b): fixed-miss-rate models on the baseline GPU.
    baseline_report = validation_report(baseline_gpu, config, session=session)
    for miss_rate in miss_rates:
        prior = FixedMissRateModel(baseline_gpu, miss_rate=miss_rate)
        estimates = prior.estimate_many(
            [record.layer for record in baseline_report.records])
        ratios = [estimate.time_seconds / record.measured_time
                  for record, estimate in zip(baseline_report.records,
                                              estimates)
                  if record.measured_time > 0]
        distribution = _distribution(ratios)
        rows.append({"model": f"MR{miss_rate}", "gpu": baseline_gpu.name,
                     **distribution})
        summary[f"MR{miss_rate} mean_ratio"] = (
            sum(ratios) / len(ratios) if ratios else float("nan"))
        summary[f"MR{miss_rate} max_ratio"] = max(ratios) if ratios else float("nan")

    delta_mean = summary[f"DeLTA {baseline_gpu.name} GMAE"]
    summary["prior_mr1.0_overprediction_vs_delta"] = (
        summary["MR1.0 mean_ratio"] if "MR1.0 mean_ratio" in summary else None)
    summary["delta_baseline_gmae"] = delta_mean
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, summary=summary)
