"""``dse-sweep``: cold, persisted and resumed sweeps of one exhaustive grid.

The grid crosses the six design axes of ``benchmarks/test_perf_dse.py`` with
three networks and two pass mixes (41472 points).  The seed draws each
design axis's values from a fixed range at a fixed count; seed 0 keeps the
axis values of ``benchmarks/test_perf_dse.py``.  Every sweep is a closed loop
in this process: no pool, no session memo, the store on local disk.

One round is three ``explore`` calls over the same space: *cold* (no store),
*persist* (writing a fresh JSONL store) and *resume* (reading it back).  The
scalar model, the server and the simulator stay idle.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from typing import Dict, List, Optional, Tuple

from harness import (Budget, Outcome, WORK_DIR, best_total,
                     child_first_result, cold_starts, self_peak_rss_mb)
from tracer import Tracer

NETWORKS = ("alexnet", "resnet152", "bert-base")
PASSES = ("forward", "training")
BATCH = 32
CTA_TILES = (128, 256)
PHASES = ("cold", "persist", "resume")
#: rounds of each half of a traced run (untraced first, then traced).
TRACED_ROUNDS = 2

#: (axis, values at seed 0, upper end of the seeded range, step of the range).
#: Every seeded axis keeps the baseline multiplier 1.0 and draws the rest.
DESIGN_AXES = (
    ("num_sm", (1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4), 4.0, 0.125),
    ("mac_bw", (1, 2, 3, 4, 6, 8), 8.0, 0.25),
    ("l1_bw", (1, 2), 2.0, 0.125),
    ("l2_bw", (1, 1.25, 1.5, 2, 2.5, 3), 3.0, 0.125),
    ("dram_bw", (1, 1.25, 1.5, 2, 2.5, 3), 3.0, 0.125),
)

#: per-phase timing metrics: (metric suffix, span name, total or self time).
TIMINGS = (
    ("dse.space.points_ms", "dse.space.points", "ms"),
    ("dse.runner.store_keys_ms", "dse.runner.store_keys", "ms"),
    ("dse.batch.evaluate_points_ms", "dse.batch.evaluate_points", "ms"),
    ("core.batched.from_options_ms", "core.batched.from_options", "ms"),
    ("core.batched.estimate_grid_ms", "core.batched.estimate_grid", "ms"),
    ("dse.batch.assemble_ms", "dse.batch.evaluate_points", "self_ms"),
    ("analysis.frontier.pareto_frontier_ms",
     "analysis.frontier.pareto_frontier", "ms"),
    ("dse.store.put_many_ms", "dse.store.put_many", "ms"),
    ("dse.store.open_ms", "dse.store.open", "ms"),
    ("dse.store.get_ms", "dse.store.get", "ms"),
    ("dse.runner.explore_self_ms", "dse.runner.explore", "self_ms"),
)
#: per-phase counts, per sweep.
COUNTS = ("dse.space.points", "dse.batch.signatures", "core.batched.grid_cells",
          "analysis.frontier.frontier_size", "dse.store.bytes_written",
          "dse.runner.evaluated", "dse.runner.store_hits")


def design_axes(seed: int) -> Dict[str, Tuple[float, ...]]:
    """The seed's design-axis values (seed 0: the perf-test grid)."""
    if seed == 0:
        return {name: tuple(float(v) for v in values)
                for name, values, _, _ in DESIGN_AXES}
    rng = random.Random(seed)
    axes = {}
    for name, values, top, step in DESIGN_AXES:
        candidates = [1.0 + step * i
                      for i in range(1, round((top - 1.0) / step) + 1)]
        drawn = rng.sample(candidates, len(values) - 1)
        axes[name] = (1.0,) + tuple(sorted(drawn))
    return axes


def make_space(seed: int):
    from repro.dse import grid

    axes: Dict[str, tuple] = dict(design_axes(seed))
    axes["cta_tile"] = CTA_TILES
    axes["network"] = NETWORKS
    axes["passes"] = PASSES
    return grid(axes, batch=BATCH)


def first_result(seed: int) -> str:
    """The cold-start child's work: a first small sweep of the seed's grid."""
    from repro.dse import ExhaustiveDriver, explore

    exploration = explore(make_space(seed), driver=ExhaustiveDriver(limit=64))
    return f"{len(exploration.results)} points"


def _install(tracer: Tracer) -> None:
    from repro.core.batched import BatchedGpuSpec
    from repro.dse import batch, runner, space, store

    def signatures(args, kwargs, result):
        return {"dse.batch.signatures": len({
            (p.network, p.batch, p.passes, p.dtype_bytes) for p in args[1]})}

    tracer.wrap(space.GridSpace, "points", "dse.space.points",
                lambda a, k, r: {"dse.space.points": len(r)})
    tracer.wrap(runner, "store_keys", "dse.runner.store_keys")
    tracer.wrap(runner, "evaluate_points", "dse.batch.evaluate_points",
                signatures)
    tracer.wrap(BatchedGpuSpec, "from_options", "core.batched.from_options")
    tracer.wrap(batch, "estimate_grid", "core.batched.estimate_grid",
                lambda a, k, r: {"core.batched.grid_cells": r.times.size})
    tracer.wrap(runner, "pareto_frontier", "analysis.frontier.pareto_frontier",
                lambda a, k, r: {"analysis.frontier.frontier_size": len(r)})
    tracer.wrap(store.ResultStore, "put_many", "dse.store.put_many")
    tracer.wrap(store.ResultStore, "__init__", "dse.store.open")
    tracer.wrap(store.ResultStore, "get", "dse.store.get")
    tracer.wrap(runner, "explore", "dse.runner.explore")


def _round(seed: int, index: int, store_path: str,
           tracer: Optional[Tracer]) -> Dict[str, object]:
    """One cold/persist/resume round: phase times, stats and frontiers."""
    from repro.dse import ExhaustiveDriver, runner
    from repro.dse.store import ResultStore

    if os.path.exists(store_path):
        os.remove(store_path)
    seconds: Dict[str, float] = {}
    frontiers: Dict[str, Tuple[str, ...]] = {}
    stats: Dict[str, object] = {}
    for phase in PHASES:
        span = (tracer.span(phase, request=index) if tracer is not None
                else contextlib.nullcontext())
        with span:
            started = time.perf_counter()
            space = make_space(seed)
            if phase == "cold":
                exploration = runner.explore(space, driver=ExhaustiveDriver())
            else:
                with ResultStore(store_path) as store:
                    exploration = runner.explore(
                        space, driver=ExhaustiveDriver(), store=store)
            seconds[phase] = time.perf_counter() - started
            if tracer is not None:
                tracer.note({
                    "dse.store.bytes_written": (os.path.getsize(store_path)
                                                if phase == "persist" else 0),
                    "dse.runner.evaluated": exploration.stats.evaluated,
                    "dse.runner.store_hits": exploration.stats.store_hits,
                })
        frontiers[phase] = tuple(result.key for result
                                 in exploration.frontier_results())
        stats[phase] = exploration.stats
        del exploration
    store_bytes = os.path.getsize(store_path)
    os.remove(store_path)
    return {"seconds": seconds, "frontiers": frontiers, "stats": stats,
            "planned": stats["cold"].planned, "store_bytes": store_bytes}


def _check_round(outcome: Outcome, result: Dict[str, object],
                 reference: Tuple[str, ...]) -> None:
    """Resume evaluates nothing and hits every point; frontiers agree."""
    outcome.attempted += len(PHASES)
    frontiers = result["frontiers"]
    stats = result["stats"]
    bad = {phase for phase in PHASES if frontiers[phase] != reference}
    outcome.check("frontiers_identical", not bad)
    resumed = (stats["resume"].evaluated == 0
               and stats["resume"].store_hits == stats["persist"].evaluated
               and stats["persist"].evaluated >= result["planned"])
    outcome.check("resume_hits_every_point", resumed)
    if not resumed:
        bad.add("resume")
    outcome.failed += len(bad)


def _rate(rounds: List[Dict[str, object]]) -> float:
    """Design points per second over the three sweeps, each sweep at its
    fastest round."""
    return len(PHASES) * rounds[0]["planned"] / best_total(
        [[result["seconds"][phase] for phase in PHASES] for result in rounds])


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    os.makedirs(WORK_DIR, exist_ok=True)
    store_path = os.path.join(WORK_DIR, f"dse-{os.getpid()}.jsonl")
    if tracer is None:
        outcome.metrics["setup_s"] = cold_starts(
            lambda: child_first_result("dse-sweep", seed), outcome)

    budget = Budget(seconds, minimum=2,
                    fixed=TRACED_ROUNDS if tracer is not None else None)
    rounds: List[Dict[str, object]] = []
    while budget.more(len(rounds)):
        rounds.append(_round(seed, len(rounds), store_path, None))
    reference = rounds[0]["frontiers"]["cold"]
    for result in rounds:
        _check_round(outcome, result, reference)
    outcome.notes["rounds"] = (f"{len(rounds)} rounds of "
                               f"{rounds[0]['planned']} points x 3 sweeps")
    outcome.notes["samples"] = json.dumps([r["seconds"] for r in rounds])
    if tracer is None:
        outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
        outcome.metrics["items_per_s"] = _rate(rounds)
        return outcome

    _install(tracer)
    try:
        traced = [_round(seed, index, store_path, tracer)
                  for index in range(TRACED_ROUNDS)]
    finally:
        tracer.restore()
    for result in traced:
        _check_round(outcome, result, reference)
    metrics = outcome.metrics
    groups = tracer.groups()
    for phase in PHASES:
        metrics[f"dse_{phase}_points_per_s"] = rounds[0]["planned"] / min(
            result["seconds"][phase] for result in rounds)
        mine = [group for group in groups if group.name == phase]
        for metric, span, kind in TIMINGS:
            metrics[f"{phase}.{metric}"] = min(
                getattr(group, kind).get(span, 0.0) for group in mine)
        for count in COUNTS:
            metrics[f"{phase}.{count}"] = mine[0].counts.get(count, 0)
    metrics["dse_store_bytes_per_point"] = (rounds[0]["store_bytes"]
                                            / rounds[0]["planned"])
    metrics["trace.overhead_pct"] = (_rate(rounds) / _rate(traced) - 1) * 100
    return outcome
