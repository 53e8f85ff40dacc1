"""Fig. 17: traffic-model sensitivity to the convolution configuration.

Starting from a reference synthetic layer (256 input channels, 13x13 IFmap,
128 output channels, 3x3 filter, stride 1), the experiment sweeps the output
channel count, input channel count, feature size and mini-batch size and
reports the model/measured traffic ratio at each level.  The paper's headline:
the ratios stay close to 1.0 across all sweeps, with mild over-prediction for
small feature maps and narrow CTA tiles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.metrics import AccuracySummary
from ..analysis.sensitivity import reference_layer, run_all_sweeps
from ..analysis.validation import MEMORY_LEVELS
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from ..sim.engine import SimulatorConfig
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig17"
TITLE = "Fig. 17: traffic sensitivity to conv layer configuration"


@register_experiment(EXPERIMENT_ID, title=TITLE)
def run(gpu: GpuSpec = TITAN_XP,
        sweeps: Optional[Dict[str, Sequence[int]]] = None,
        max_ctas: int = 60,
        batch: Optional[int] = None,
        session=None) -> Report:
    """Run all four sensitivity sweeps of Fig. 17.

    ``batch`` overrides the reference layer's mini-batch (the batch-size
    panel still sweeps its own values); measurements route through the
    session's memo and disk cache.
    """
    base = reference_layer(batch) if batch is not None else None
    results = run_all_sweeps(gpu, sweeps=sweeps,
                             simulator_config=SimulatorConfig(max_ctas=max_ctas),
                             base=base, session=session)

    rows = []
    series = {}
    summary: Dict[str, object] = {"gpu": gpu.name}
    for parameter, sweep in results.items():
        for point in sweep.points:
            rows.append({"parameter": parameter, **point.as_row()})
        for level in MEMORY_LEVELS:
            ratios = [r for r in sweep.ratios(level) if r > 0]
            if ratios:
                stats = AccuracySummary.from_ratios(ratios)
                summary[f"{parameter} {level.upper()} GMAE"] = stats.gmae
            series[f"{parameter}: normalized {level.upper()} traffic"] = list(
                zip(sweep.values(), sweep.ratios(level)))
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
