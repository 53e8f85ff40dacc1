"""Design-space exploration: searchable GPU x workload spaces with Pareto
frontiers and a resumable result store.

Quick start::

    from repro.dse import axis, grid, explore, RandomDriver, ResultStore

    space = grid({"num_sm": (1, 2, 4), "mac_bw": (1, 2, 4),
                  "dram_bw": (1, 1.5, 2), "cta_tile": (128, 256)},
                 network="resnet152", batch=64)
    result = explore(space, driver=RandomDriver(budget=32, seed=7),
                     store=ResultStore("sweep.jsonl"))
    for row in result.frontier_rows():
        print(row["design"], row["speedup"], row["cost"])

The pieces compose: a :class:`~repro.dse.space.SearchSpace` declares *what*
points exist, a driver picks *which* are evaluated, the
:class:`~repro.dse.store.ResultStore` remembers *what already ran*, and
:func:`~repro.dse.runner.explore` ties them to the analytic model (fanning
evaluation out over a :class:`repro.api.Session`'s process pool when one is
provided).  Objectives and frontier extraction live in
:mod:`repro.analysis.frontier`.
"""

from ..analysis.frontier import (
    DEFAULT_OBJECTIVE_NAMES,
    OBJECTIVES,
    Objective,
    design_cost,
    dominates,
    pareto_frontier,
    resolve_objectives,
    scale_next_rows,
)
from .drivers import (
    ExhaustiveDriver,
    RandomDriver,
    SuccessiveHalvingDriver,
    build_driver,
    driver_names,
)
from .batch import evaluate_points
from .runner import (
    Exploration,
    ExplorationStats,
    PointFailure,
    PointResult,
    confirm_frontier,
    explore,
    store_key,
    store_keys,
    workload_fingerprint,
)
from .space import (
    AXIS_KEYS,
    GPU_AXIS_KEYS,
    WORKLOAD_AXIS_KEYS,
    Axis,
    DesignPoint,
    ExplicitSpace,
    GridSpace,
    SearchSpace,
    UnionSpace,
    ZipSpace,
    axis,
    default_space,
    grid,
    parse_axis,
    space_from_options,
    union,
    zip_axes,
)
from .store import (ResultStore, StaleStoreError, StoreLockedError,
                    is_failure_record)

__all__ = [
    "Axis",
    "axis",
    "AXIS_KEYS",
    "GPU_AXIS_KEYS",
    "WORKLOAD_AXIS_KEYS",
    "DesignPoint",
    "SearchSpace",
    "ExplicitSpace",
    "GridSpace",
    "ZipSpace",
    "UnionSpace",
    "grid",
    "zip_axes",
    "union",
    "space_from_options",
    "default_space",
    "parse_axis",
    "ExhaustiveDriver",
    "RandomDriver",
    "SuccessiveHalvingDriver",
    "build_driver",
    "driver_names",
    "ResultStore",
    "StaleStoreError",
    "StoreLockedError",
    "is_failure_record",
    "Exploration",
    "ExplorationStats",
    "PointResult",
    "PointFailure",
    "explore",
    "evaluate_points",
    "confirm_frontier",
    "store_key",
    "store_keys",
    "workload_fingerprint",
    "Objective",
    "OBJECTIVES",
    "DEFAULT_OBJECTIVE_NAMES",
    "resolve_objectives",
    "pareto_frontier",
    "dominates",
    "design_cost",
    "scale_next_rows",
]
