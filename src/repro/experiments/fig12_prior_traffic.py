"""Fig. 12: L2 and DRAM traffic — DeLTA vs. the prior fixed-miss-rate method.

Prior GPU analytical models assume a 100% cache miss rate, i.e. every L1 load
also reaches L2 and DRAM.  The figure compares, for every evaluated layer, the
traffic each methodology predicts normalized to the measurement on TITAN Xp:
DeLTA stays near 1x while the prior method over-predicts by one to two orders
of magnitude for layers with large filters, and is close only for 1x1 layers.
"""

from __future__ import annotations


from ..analysis.metrics import geometric_mean
from ..analysis.validation import QUICK_VALIDATION, ValidationConfig, validation_report
from ..core.baselines import FixedMissRateTrafficModel
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig12"
TITLE = "Fig. 12: L2 and DRAM traffic, DeLTA vs prior fixed-miss-rate methodology"


@register_experiment(EXPERIMENT_ID, title=TITLE, uses_validation=True,
                     default_gpus=("titanxp",))
def run(gpu: GpuSpec = TITAN_XP,
        config: ValidationConfig = QUICK_VALIDATION,
        session=None) -> Report:
    """Compare normalized traffic of DeLTA and the miss-rate-1.0 baseline."""
    report = validation_report(gpu, config, session=session)
    prior = FixedMissRateTrafficModel(gpu, l1_miss_rate=1.0, l2_miss_rate=1.0)

    rows = []
    delta_ratios = {"l2": [], "dram": []}
    prior_ratios = {"l2": [], "dram": []}
    for record in report.records:
        prior_traffic = prior.estimate(record.layer)
        measured_l2 = record.measured_traffic["l2"]
        measured_dram = record.measured_traffic["dram"]
        if measured_l2 <= 0 or measured_dram <= 0:
            continue
        row = {
            "network": record.network,
            "layer": record.layer.name,
            "filter": f"{record.layer.filter_height}x{record.layer.filter_width}",
            "delta_l2_ratio": record.traffic_ratio("l2"),
            "prior_l2_ratio": prior_traffic.l2_bytes / measured_l2,
            "delta_dram_ratio": record.traffic_ratio("dram"),
            "prior_dram_ratio": prior_traffic.dram_bytes / measured_dram,
        }
        rows.append(row)
        delta_ratios["l2"].append(row["delta_l2_ratio"])
        delta_ratios["dram"].append(row["delta_dram_ratio"])
        prior_ratios["l2"].append(row["prior_l2_ratio"])
        prior_ratios["dram"].append(row["prior_dram_ratio"])

    summary = {
        "gpu": gpu.name,
        "delta_l2_geomean_ratio": geometric_mean(delta_ratios["l2"]),
        "prior_l2_geomean_ratio": geometric_mean(prior_ratios["l2"]),
        "delta_dram_geomean_ratio": geometric_mean(delta_ratios["dram"]),
        "prior_dram_geomean_ratio": geometric_mean(prior_ratios["dram"]),
        "prior_dram_max_ratio": max(prior_ratios["dram"]),
        "prior_overprediction_vs_delta_dram": (
            geometric_mean(prior_ratios["dram"]) / geometric_mean(delta_ratios["dram"])),
    }
    series = {
        "DeLTA normalized DRAM traffic": [
            (f"{row['network']}/{row['layer']}", row["delta_dram_ratio"])
            for row in rows],
        "Prior methodology normalized DRAM traffic": [
            (f"{row['network']}/{row['layer']}", row["prior_dram_ratio"])
            for row in rows],
    }
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
