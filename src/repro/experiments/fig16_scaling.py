"""Fig. 16: GPU resource scaling study on ResNet152.

Panel (a) lists the nine design options (multipliers over the TITAN Xp
baseline), panel (b) their speedup on the full ResNet152 layer list — since
the FC-tail fix that includes the tiny ``fc`` classifier GEMM (~0.07% of the
network's MACs) alongside the 155 convolutions — and panel (c) the
distribution of performance bottlenecks per option.
The paper's headline observations:

* conventional scaling (2x/4x SMs, options 1-2) yields ~1.9x / ~3.4x;
* adding MAC throughput alone (options 3-4) saturates around 2x;
* balanced scaling (option 5) matches option 2 with far fewer resources;
* the large-tile, high-DRAM-bandwidth design (option 9) reaches ~6.4x.

The experiment is a 9-point exhaustive search space on the generic driver
(:func:`repro.dse.explore`): each paper column becomes a
:class:`~repro.dse.DesignPoint` lowered through ``DesignOption.apply``.  The
numbers are pinned bit for bit to the original hand-enumerated study's
output, frozen in ``tests/golden_fig16.json``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..dse.drivers import ExhaustiveDriver
from ..dse.runner import explore
from ..dse.space import space_from_options
from ..gpu.design_options import DesignOption, PAPER_DESIGN_OPTIONS
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from .base import ExperimentResult, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig16"
TITLE = "Fig. 16: GPU resource scaling study (ResNet152, all layers)"


@register_experiment(EXPERIMENT_ID, title=TITLE, fast=True)
def run(baseline: GpuSpec = TITAN_XP,
        options: Sequence[DesignOption] = PAPER_DESIGN_OPTIONS,
        batch: int = 256, network: str = "resnet152",
        session: Optional[object] = None) -> ExperimentResult:
    """Run the design-space exploration of Fig. 16 (ResNet152 by default)."""
    space = space_from_options(tuple(options), network=network, batch=batch)
    exploration = explore(space, driver=ExhaustiveDriver(),
                          base_gpu=baseline, objectives=("time",),
                          unique=False, session=session)

    option_rows = [option.as_row() for option in options]
    speedup_rows = []
    bottleneck_rows = []
    for result in exploration.results:
        speedup_rows.append({
            "option": result.point.name,
            "speedup": exploration.speedup(result),
            "total_time_ms": float(result.metrics["time_s"]) * 1e3,
        })
        shares = result.metrics["bottlenecks"]
        bottleneck_rows.append({
            "option": result.point.name,
            **{name: shares[name] for name in sorted(shares)},
        })

    baseline_result = next(iter(exploration.baselines.values()))
    speedups = {row["option"]: row["speedup"] for row in speedup_rows}
    summary = {
        "baseline": baseline.name,
        "layers": baseline_result.metrics["layers"],
        "batch": batch,
        "best_option": max(speedups, key=speedups.get),
        "best_speedup": max(speedups.values()),
        "option2_speedup": speedups.get("2"),
        "option5_speedup": speedups.get("5"),
        "option9_speedup": speedups.get("9"),
    }
    series = {"speedup vs TITAN Xp": [(name, value) for name, value in speedups.items()]}
    rows = option_rows + speedup_rows + bottleneck_rows
    return make_result(EXPERIMENT_ID, TITLE, rows=rows, series=series,
                       summary=summary)
