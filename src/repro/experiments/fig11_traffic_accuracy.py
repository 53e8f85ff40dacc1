"""Fig. 11: L1, L2 and DRAM traffic estimates normalized to measurements.

For every evaluated layer and every GPU, the figure plots DeLTA's traffic
estimate divided by the measured traffic at each memory level; the paper
reports small GMAE (a few percent) with a moderate spread.  The measurement
here is the simulator substrate, run at a reduced scale (see
``ValidationConfig``); the comparison shape -- ratios clustered around 1.0 at
every level, largest spread at L2 -- is preserved.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.validation import (
    MEMORY_LEVELS,
    QUICK_VALIDATION,
    ValidationConfig,
    validation_report,
)
from ..gpu.devices import all_devices
from ..gpu.spec import GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig11"
TITLE = "Fig. 11: normalized L1/L2/DRAM traffic estimates (model / measured)"


@register_experiment(EXPERIMENT_ID, title=TITLE, uses_validation=True,
                     default_gpus=("titanxp", "p100", "v100"))
def run(devices: Optional[Sequence[GpuSpec]] = None,
        config: ValidationConfig = QUICK_VALIDATION,
        session=None) -> Report:
    """Validate traffic estimates against the simulator on every device."""
    devices = list(devices) if devices is not None else list(all_devices())

    rows = []
    series = {}
    summary = {}
    for gpu in devices:
        report = validation_report(gpu, config, session=session)
        for record in report.records:
            row = {"gpu": gpu.name, "network": record.network,
                   "layer": record.layer.name}
            for level in MEMORY_LEVELS:
                row[f"{level}_ratio"] = record.traffic_ratio(level)
            rows.append(row)
        for level in MEMORY_LEVELS:
            stats = report.traffic_summary(level)
            summary[f"{gpu.name} {level.upper()} GMAE"] = stats.gmae
            summary[f"{gpu.name} {level.upper()} stdev"] = stats.stdev_ratio
            series[f"{gpu.name} normalized {level.upper()} traffic"] = [
                (f"{record.network}/{record.layer.name}",
                 record.traffic_ratio(level))
                for record in report.records
            ]
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
