"""DSE: design-space exploration beyond the paper's nine columns.

Where Fig. 16a scales a TITAN Xp along nine hand-picked design options, this
experiment searches a declarative GPU x workload space (by default the
162-point :func:`repro.dse.default_space` grid over SM count, MAC throughput,
L2/DRAM bandwidth and the CTA tile) and reports the Pareto frontier over
throughput, DRAM traffic per step and a resource-cost proxy, plus the ranked
"what to scale next" recommendation derived from time-weighted bottleneck
shares.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.frontier import resolve_objectives, scale_next_rows
from ..dse.drivers import build_driver
from ..dse.runner import explore
from ..dse.space import SearchSpace, default_space
from ..dse.store import ResultStore
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "dse"
TITLE = "DSE: Pareto frontier of the GPU design space (beyond Fig. 16a)"


@register_experiment(EXPERIMENT_ID, title=TITLE, fast=True)
def run(baseline: GpuSpec = TITAN_XP, network: str = "resnet152",
        batch: int = 64, passes: str = "forward",
        space: Optional[SearchSpace] = None, driver: str = "grid",
        budget: Optional[int] = None, seed: int = 0,
        objectives: Sequence[str] = ("throughput", "dram", "cost"),
        store_path: Optional[str] = None,
        session: Optional[object] = None) -> Report:
    """Explore a GPU design space and report its Pareto frontier."""
    if space is None:
        space = default_space(networks=(network,), batches=(batch,),
                              passes=passes)
    resolved = resolve_objectives(tuple(objectives))
    store = ResultStore(store_path) if store_path else None
    try:
        exploration = explore(space, driver=build_driver(driver, budget=budget,
                                                         seed=seed),
                              base_gpu=baseline, objectives=resolved,
                              store=store, session=session)
    finally:
        if store is not None:
            store.close()

    frontier_rows: Tuple = tuple(exploration.frontier_rows())
    recommendation_rows = tuple(scale_next_rows(
        [result.metrics for result in exploration.frontier_results()]))
    stats = exploration.stats
    best = frontier_rows[0] if frontier_rows else None
    summary = {
        "baseline": baseline.name,
        "space points": len(space),
        "points planned": stats.planned,
        "points evaluated": stats.evaluated,
        "cache hits": stats.memo_hits + stats.store_hits,
        "frontier size": len(exploration.frontier),
        "objectives": "/".join(obj.name for obj in resolved),
        "best design": best["design"] if best else "n/a",
        "best speedup": best.get("speedup") if best else None,
        "scale next": (recommendation_rows[0]["scale_next"]
                       if recommendation_rows else "n/a"),
    }
    series = {
        "frontier: resource cost vs speedup": [
            (row["cost"], row["speedup"])
            for row in frontier_rows if "speedup" in row
        ],
    }
    rows = list(frontier_rows) + list(recommendation_rows)
    return make_result(EXPERIMENT_ID, TITLE, rows=rows,
                       series={k: v for k, v in series.items() if v},
                       summary=summary)
