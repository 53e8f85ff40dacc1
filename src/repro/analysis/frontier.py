"""Objectives, Pareto frontiers and scaling recommendations for DSE sweeps.

The design-space exploration (:mod:`repro.dse`) evaluates every design point
into a flat metrics dict; this module turns those metrics into decisions:

* :data:`OBJECTIVES` — the named objectives a sweep can optimize
  (throughput, time, DRAM bytes per step, and a resource-cost proxy);
* :func:`pareto_frontier` — d-dimensional non-dominated filtering over any
  combination of objectives (an exact sort-first skyline, see
  :func:`_skyline`);
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
    objective and strictly better on at least one.

    A NaN objective on either side compares false both ways, so a row with
    a NaN never dominates and is never dominated — the rule
    :func:`pareto_frontier` applies when it keeps NaN rows.
    """
    strictly_better = False
    for objective in objectives:
        va = objective.oriented(float(a[objective.metric]))
        vb = objective.oriented(float(b[objective.metric]))
        if not va >= vb:
            return False
        if va > vb:
            strictly_better = True
    return strictly_better


#: distinct rows the skyline loop filters per step.
SKYLINE_BLOCK = 512
#: archive rows with the most kills so far, tested against each block
#: before the whole archive is.
TOP_KILLERS = 32


def pareto_frontier(metric_rows: Sequence[Mapping[str, float]],
                    objectives: Sequence[Objective]) -> List[int]:
    """Indices of the non-dominated rows, in their original order.

    ``metric_rows`` is a sequence of metrics dicts or a column table with
    one array attribute per metric (a DSE
    :class:`~repro.dse.batch.MetricTable`), whose columns are read directly.
    Duplicated metric vectors are all kept (they dominate nothing and are
    dominated by nothing), so equal-merit designs stay visible side by side.
    A row with a NaN objective is kept too: as in :func:`dominates`, it
    neither dominates nor is dominated.
    """
    # np.negative flips the sign bit exactly, so the oriented columns are
    # bitwise equal to the scalar Objective.oriented values.
    values = np.empty((len(metric_rows), len(objectives)))
    for j, objective in enumerate(objectives):
        column = getattr(metric_rows, objective.metric, None)
        values[:, j] = (column if column is not None else
                        list(map(operator.itemgetter(objective.metric),
                                 metric_rows)))
        if objective.direction == "min":
            np.negative(values[:, j], out=values[:, j])
    return _skyline(values)


def _skyline(oriented) -> List[int]:
    """Exact sort-first skyline of an (n, d) array of larger-is-better
    values: the rows no other row dominates, in their original order.

    Identical to the O(n^2) pairwise loop (every row checked against every
    other with :func:`dominates`):

    * a row with a NaN is on the frontier (every compare with it is false);
    * the other rows are grouped by value (one ``lexsort``, so -0.0 == 0.0)
      and the distinct rows visited in descending lexicographic order.  A
      dominator is lexicographically larger than every row it dominates,
      so it is visited first: the archive of frontier rows only grows, two
      distinct rows need no strictness test, and the first objective needs
      no compare at all;
    * each block of :data:`SKYLINE_BLOCK` distinct rows is tested against
      the :data:`TOP_KILLERS` archive rows that have dominated the most
      rows so far, the survivors against the whole archive, and those
      against the earlier rows of their own block (a dominator dropped by
      the archive is itself dominated, and so is what it dominates);
    * every original row whose value entered the archive is returned, so
      duplicates all stay.

    Dominance matrices are (archive, targets), accumulated per objective
    with in-place ``&=`` and reduced over the archive axis.
    """
    values = np.asarray(oriented, dtype=np.float64)
    nan_row = np.isnan(values).any(axis=1)
    width = values.shape[1]
    order = np.flatnonzero(~nan_row)
    order = order[np.lexsort([values[order, j]
                              for j in reversed(range(width))])[::-1]]
    # fresh: the first sorted row of each distinct value.
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for j in range(width):
        col = values[order, j]
        fresh[1:] |= col[1:] != col[:-1]
    # the first objective is already ordered; only the others are compared.
    tail = [values[order[fresh], j] for j in range(1, width)]
    kept = np.zeros(int(fresh.sum()), dtype=bool)
    kept[:1] = True  # the lexicographic maximum has no dominator
    if tail:
        _archive_filter(tail, kept)
    frontier = nan_row  # NaN rows stay on it
    frontier[order] = kept[np.cumsum(fresh) - 1]
    return np.flatnonzero(frontier).tolist()


def _archive_filter(tail, kept) -> None:
    """Mark in ``kept`` the distinct rows (descending lexicographic order,
    first column dropped) that no earlier row dominates."""
    count = len(kept)
    archive = [np.empty(count) for _ in tail]
    kills = np.zeros(count, dtype=np.int64)
    size = 0
    stages = []
    for start in range(0, count, SKYLINE_BLOCK):
        block = np.arange(start, min(start + SKYLINE_BLOCK, count))
        cand = [col[start:start + SKYLINE_BLOCK] for col in tail]
        for rows in stages:
            survive = _undominated(cand, [col[rows] for col in archive],
                                   kills, rows)
            block = block[survive]
            cand = [col[survive] for col in cand]
            if not len(block):
                break
        if len(block) > 1:
            # earlier[j, i]: row j comes before row i and covers it.
            earlier = ~np.tri(len(block), dtype=bool)
            for col in cand:
                earlier &= col[:, None] >= col
            survive = ~earlier.any(axis=0)
            block = block[survive]
            cand = [col[survive] for col in cand]
        kept[block] = True
        grown = size + len(block)
        for col, new in zip(archive, cand):
            col[size:grown] = new
        size = grown
        stages = [slice(0, size)]
        if size > TOP_KILLERS:
            stages.insert(0, _top_killers(kills, size))


def _top_killers(kills, size) -> np.ndarray:
    """Positions of the :data:`TOP_KILLERS` archive rows (of the first
    ``size``) with the most kills."""
    return np.argpartition(kills[:size],
                           size - TOP_KILLERS)[size - TOP_KILLERS:]


def _undominated(cand, archive, kills, rows) -> np.ndarray:
    """Mask of the candidates no ``archive`` row covers.

    Each kill is credited (``kills[rows]``) to the latest archive row that
    covers the candidate: later archive rows are weaker on the first
    objective, so their other objectives are the strong ones, and they
    cover the most of what is still to come.
    """
    covered = archive[0][:, None] >= cand[0]
    for col, target in zip(archive[1:], cand[1:]):
        covered &= col[:, None] >= target
    hit = covered.any(axis=0)
    last = len(covered) - 1 - covered[::-1, hit].argmax(axis=0)
    kills[rows] += np.bincount(last, minlength=len(covered))
    return ~hit


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
