"""Objectives, Pareto frontiers and scaling recommendations for DSE sweeps.

The design-space exploration (:mod:`repro.dse`) evaluates every design point
into a flat metrics dict; this module turns those metrics into decisions:

* :data:`OBJECTIVES` — the named objectives a sweep can optimize
  (throughput, time, DRAM bytes per step, and a resource-cost proxy);
* :func:`pareto_frontier` — d-dimensional non-dominated filtering over any
  combination of objectives;
* :func:`design_cost` — the area/board-cost proxy of a
  :class:`~repro.gpu.design_options.DesignOption` (baseline = 1.0);
* :func:`scale_next_rows` — the ranked "what resource should the next design
  scale" report, derived from time-weighted bottleneck shares the same way
  Fig. 16c attributes per-option bottlenecks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..gpu.design_options import DesignOption


@dataclass(frozen=True)
class Objective:
    """One optimization target over the per-point metrics dict."""

    name: str
    #: key into the metrics dict produced by the point evaluation.
    metric: str
    #: "max" (bigger is better) or "min".
    direction: str
    label: str

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError(
                f"objective direction must be 'min' or 'max', "
                f"got {self.direction!r}")

    def oriented(self, value: float) -> float:
        """The value mapped so that *larger is always better*."""
        return value if self.direction == "max" else -value


#: named objectives accepted by requests/CLI (``--objectives``).
OBJECTIVES: Dict[str, Objective] = {
    "throughput": Objective("throughput", "throughput_tflops", "max",
                            "achieved TFLOP/s"),
    "time": Objective("time", "time_s", "min", "total step time (s)"),
    "dram": Objective("dram", "dram_gb", "min", "DRAM GB per step"),
    "cost": Objective("cost", "resource_cost", "min",
                      "resource cost (x baseline)"),
}

DEFAULT_OBJECTIVE_NAMES: Tuple[str, ...] = ("throughput", "dram", "cost")


def resolve_objectives(names: Sequence[str]) -> Tuple[Objective, ...]:
    """Map objective names to :class:`Objective` records (order-preserving)."""
    resolved = []
    for name in names:
        key = str(name).strip().lower()
        if key not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {name!r}; expected one of "
                f"{sorted(OBJECTIVES)}")
        resolved.append(OBJECTIVES[key])
    if not resolved:
        raise ValueError("at least one objective is required")
    return tuple(resolved)


def dominates(a: Mapping[str, float], b: Mapping[str, float],
              objectives: Sequence[Objective]) -> bool:
    """True if metrics ``a`` Pareto-dominates ``b``: no worse on every
    objective and strictly better on at least one."""
    strictly_better = False
    for objective in objectives:
        va = objective.oriented(float(a[objective.metric]))
        vb = objective.oriented(float(b[objective.metric]))
        if va < vb:
            return False
        if va > vb:
            strictly_better = True
    return strictly_better


def pareto_frontier(metric_rows: Sequence[Mapping[str, float]],
                    objectives: Sequence[Objective]) -> List[int]:
    """Indices of the non-dominated rows, in their original order.

    Duplicated metric vectors are all kept (they dominate nothing and are
    dominated by nothing), so equal-merit designs stay visible side by side.
    """
    # np.negative flips the sign bit exactly, so the oriented columns are
    # bitwise equal to the scalar Objective.oriented values.
    values = np.empty((len(metric_rows), len(objectives)))
    for j, objective in enumerate(objectives):
        values[:, j] = list(map(operator.itemgetter(objective.metric),
                                metric_rows))
        if objective.direction == "min":
            np.negative(values[:, j], out=values[:, j])
    return _pareto_frontier_vectorized(values)


def _pareto_frontier_vectorized(oriented) -> List[int]:
    """NumPy domination filter, identical to the O(n^2) pairwise loop
    (every row checked against every other with :func:`dominates`).

    ``oriented`` is an (n, d) array-like of larger-is-better values.

    Incremental archive algorithm: process points in blocks, drop every
    block point already dominated by the archive (domination is transitive,
    so "dominated by anything seen so far" == "dominated by an archive
    member"), then recompute the non-dominated set of archive + survivors
    with one small O((m+b)^2) broadcast — archive members dominated by a
    newcomer fall out here.  A row never dominates itself or its duplicates
    (no strict improvement), so no self-exclusion is needed and duplicated
    rows all survive — the exact semantics of the reference loop.  Typical
    cost is O(n * frontier) instead of O(n^2).

    Points are visited in descending order of their oriented-value sum: a
    dominator almost always has a larger sum than its dominatee, so strong
    points enter the archive before the points they dominate, the cheap
    archive prefilter absorbs almost everything, and the quadratic
    recompute rarely sees survivors.  The visit order is only a heuristic —
    the returned set is the exact non-dominated set either way.

    Strictness is one id compare per pair: rows are numbered by value
    (one ``lexsort``), and under ``all(a >= b)`` the rows differ — so ``a``
    strictly dominates — exactly when their ids differ.  That replaces the
    elementwise ``>`` broadcast.  (Float sums cannot serve here: rounding
    can make a dominator's sum equal its dominatee's.)

    Domination matrices are accumulated per objective with in-place ``&=``
    over 2-D comparisons — one contiguous column at a time — instead of one
    (m, b, d) broadcast with an ``.all(axis=2)`` reduce; skipping the 3-D
    temporary and the reduce pass is worth ~6x on the blocks this loop
    actually sees.
    """
    values = np.asarray(oriented, dtype=np.float64)
    count, width = values.shape
    sums = values.sum(axis=1)
    order = np.argsort(-sums, kind="stable")
    # number the rows by value (-0.0 == 0.0): equal ids <=> equal rows,
    # the exact strictness test under all(a >= b).
    by_value = np.lexsort(values.T)
    ranked = values[by_value]
    distinct = np.ones(count, dtype=bool)
    distinct[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(count, dtype=np.int64)
    ids[by_value] = np.cumsum(distinct)
    cols = [np.ascontiguousarray(values[:, j]) for j in range(width)]
    archive = np.empty(0, dtype=np.int64)
    # a small first block seeds the archive cheaply (its recompute is the
    # only one without a prefilter, and quadratic in the block size); later
    # blocks lean on the archive prefilter, so bigger is better there.
    start, block = 0, 64
    while start < count:
        cand = order[start:start + block]
        start += block
        block = 256
        if archive.size:
            cand = cand[~_dominated(cols, ids, archive, cand)]
            if cand.size == 0:
                continue
        combined = np.concatenate([archive, cand])
        archive = combined[~_dominated(cols, ids, combined, combined)]
    return [int(i) for i in np.sort(archive)]


def _dominated(cols, ids, rows, targets) -> np.ndarray:
    """Per target: is it Pareto-dominated by any of ``rows``?"""
    first = cols[0]
    dominated = first[rows][:, None] >= first[targets][None, :]
    for col in cols[1:]:
        dominated &= col[rows][:, None] >= col[targets][None, :]
    dominated &= ids[rows][:, None] != ids[targets][None, :]
    return dominated.any(axis=0)


# ----------------------------------------------------------------------
# Resource-cost proxy
# ----------------------------------------------------------------------

#: marginal cost of scaling each per-SM resource, relative to one whole
#: baseline SM (= 1.0).  MAC datapaths dominate SM area; register file and
#: shared memory are SRAM; bandwidths cost wires/banking.
_PER_SM_COST_WEIGHTS: Dict[str, float] = {
    "mac_bw": 0.35,
    "regs": 0.10,
    "smem_size": 0.08,
    "smem_bw": 0.07,
    "l1_bw": 0.05,
}
#: chip-level costs: L2 slices/crossbar and the DRAM interface (pins/PHY),
#: relative to the whole baseline device (= 1.0).
_CHIP_COST_WEIGHTS: Dict[str, float] = {
    "l2_bw": 0.18,
    "dram_bw": 0.22,
}


def design_cost(option: DesignOption) -> float:
    """Area/board-cost proxy of a design option; the baseline costs 1.0.

    The per-SM term scales with the SM count multiplier (more SMs replicate
    every per-SM resource), the chip-level term with the L2/DRAM bandwidth
    multipliers alone.  The CTA tile is a software choice and is free.  This
    is a deliberately simple, monotone proxy — good enough to rank "balanced
    vs brute-force" designs the way Section VII-C discusses them, not a
    silicon-area model.
    """
    per_sm = 1.0 + sum(weight * (getattr(option, key) - 1.0)
                       for key, weight in _PER_SM_COST_WEIGHTS.items())
    chip = sum(weight * (getattr(option, key) - 1.0)
               for key, weight in _CHIP_COST_WEIGHTS.items())
    return option.num_sm * per_sm + chip


# ----------------------------------------------------------------------
# "What to scale next" report
# ----------------------------------------------------------------------

#: the hardware resource whose scaling relieves each bottleneck category.
BOTTLENECK_RESOURCE: Dict[str, str] = {
    "MAC_BW": "mac_bw",
    "SMEM_BW": "smem_bw",
    "L1_BW": "l1_bw",
    "L2_BW": "l2_bw",
    "DRAM_BW": "dram_bw",
    "DRAM_LAT": "regs/smem_size (more resident CTAs) or cta_tile",
}


def scale_next_rows(results: Sequence[Mapping[str, object]],
                    top: int = 6) -> List[Dict[str, object]]:
    """Rank resources by how much execution time still waits on them.

    ``results`` are per-point metric dicts carrying a ``bottlenecks`` mapping
    (bottleneck name -> fraction of the point's time, as in Fig. 16c) and a
    ``time_s`` total.  Shares are aggregated weighted by each point's total
    time, so slow designs — the ones a next design step should fix — speak
    loudest.
    """
    weighted: Dict[str, float] = {}
    total_time = 0.0
    for metrics in results:
        time_s = float(metrics.get("time_s", 0.0))
        shares = metrics.get("bottlenecks", {})
        if not isinstance(shares, Mapping) or time_s <= 0:
            continue
        total_time += time_s
        for name, share in shares.items():
            weighted[name] = weighted.get(name, 0.0) + float(share) * time_s
    rows: List[Dict[str, object]] = []
    if total_time <= 0:
        return rows
    ranked = sorted(weighted.items(), key=lambda item: (-item[1], item[0]))
    for rank, (name, share_time) in enumerate(ranked[:top], start=1):
        rows.append({
            "rank": rank,
            "bottleneck": name,
            "time_share": share_time / total_time,
            "scale_next": BOTTLENECK_RESOURCE.get(name, "unknown"),
        })
    return rows
