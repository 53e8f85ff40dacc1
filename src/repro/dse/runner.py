"""The DSE orchestrator: space -> driver -> evaluation -> store -> frontier.

:func:`explore` is the one entry point: it asks the driver which design
points to evaluate, answers as many as possible from the session memo and the
resumable :class:`~repro.dse.store.ResultStore`, fans the rest out over the
session's shared process pool, and finishes with the Pareto frontier over the
requested objectives.

Every point is evaluated on its design option over the baseline GPU through
the batched array-of-points path (:mod:`repro.dse.batch`); the
Fig. 16 scaling study is this pipeline over the nine paper columns, pinned
bit for bit by ``tests/golden_fig16.json``.
Frontier points can optionally be *confirmed* against the trace-driven
simulator (:func:`confirm_frontier`), keeping the expensive engine off the
sweep's hot path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..analysis.frontier import (DEFAULT_OBJECTIVE_NAMES, Objective,
                                 pareto_frontier, resolve_objectives)
from ..core.model import DeltaModel
from ..core.workload import expand_passes
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from ..networks.registry import registry_generation
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..resilience import TaskFailure
from ..sim.engine import SimulatorConfig
from .batch import _workload_layers, evaluate_points
from .drivers import ExhaustiveDriver, SuccessiveHalvingDriver
from .space import GPU_AXIS_KEYS, DesignPoint, SearchSpace, signature_of
from .store import FAILURE_FIELD, ResultStore, is_failure_record

#: bump when the evaluation's metric semantics change (invalidates stores).
EVALUATION_SCHEMA = 2

#: design points per batched pool task; bounds the work lost when one point
#: in a chunk crashes the worker (the chunk is then retried point by point).
BATCH_CHUNK = 1024

#: successive halving's cheap proxy evaluates every this-many-th layer.
PROXY_LAYER_STRIDE = 4


# ----------------------------------------------------------------------
# Point evaluation (analytic model; picklable for process pools)
# ----------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _workload_fingerprint(network: str, batch: int, dtype_bytes: int,
                          passes: str, unique: bool, generation: int) -> str:
    layers = _workload_layers(network, batch, dtype_bytes, unique, generation)
    payload = {
        "layers": [layer.structural_key() for layer in layers],
        "passes": list(expand_passes(passes)),
        "unique": unique,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def workload_fingerprint(point: DesignPoint, unique: bool) -> str:
    """Content hash of the evaluated layers' structural keys + pass kinds.

    Built on the layers' ``structural_key`` — the same identity the
    session's simulation dedupe uses — so a change to a network definition,
    including a network registered again under the same name, changes the
    key and stale store entries are never reused.
    """
    return _workload_fingerprint(point.network, point.batch,
                                 point.dtype_bytes, point.passes, unique,
                                 registry_generation())


def _gpu_fingerprint(gpu: GpuSpec) -> Dict[str, object]:
    payload = dataclasses.asdict(gpu)
    payload.pop("name", None)  # content identity, not label
    return payload


#: the nine design fields of a point's option, in one C-level call.
_design_values = operator.attrgetter(*GPU_AXIS_KEYS, "cta_tile_hw")


def store_key(base_gpu: GpuSpec, point: DesignPoint, unique: bool) -> str:
    """Content key of one evaluation: baseline GPU x design point x workload."""
    return store_keys(base_gpu, [point], unique)[0]


def store_keys(base_gpu: GpuSpec, points: Sequence[DesignPoint],
               unique: bool) -> List[str]:
    """Content keys of many evaluations, one per point, in input order.

    Hashes one sha1 per workload signature over ``[EVALUATION_SCHEMA, gpu
    fingerprint, signature, workload fingerprint]`` (as JSON), then extends
    a copy of that hash with the ``repr`` of each point's nine design values.
    Option names are not hashed, so equal designs share a key.
    """
    gpu = _gpu_fingerprint(base_gpu)
    seeds: Dict[Tuple[str, int, str, int], "hashlib._Hash"] = {}
    # grid enumeration shares one option object across the workload axes,
    # so the design bytes are cached per option object.
    designs: Dict[int, bytes] = {}
    keys: List[str] = []
    for point in points:
        signature = signature_of(point)
        seed = seeds.get(signature)
        if seed is None:
            payload = [EVALUATION_SCHEMA, gpu, list(signature),
                       workload_fingerprint(point, unique)]
            seed = seeds[signature] = hashlib.sha1(
                json.dumps(payload, sort_keys=True).encode("utf-8"))
        option = point.option
        design = designs.get(id(option))
        if design is None:
            design = designs[id(option)] = repr(
                _design_values(option)).encode("utf-8")
        digest = seed.copy()
        digest.update(design)
        keys.append(digest.hexdigest())
    return keys


def _evaluate_batch_task(task) -> List[Dict[str, object]]:
    """Process-pool worker: evaluate one chunk of points as a batch.

    ``task`` is ``(base_gpu, points, unique, layer_stride)``; a stride above
    1 is successive halving's layer-subsampled proxy, whose fault sites carry
    a ``proxy:`` prefix.  Fires the per-point fault sites first, then
    evaluates the whole chunk through the array-of-points path.
    """
    base_gpu, points, unique, layer_stride = task
    if faults.active():
        prefix = "proxy:" if layer_stride > 1 else ""
        for point in points:
            faults.fire("dse", f"{prefix}{point.name}/{point.network}"
                               f"/b{point.batch}")
    return evaluate_points(base_gpu, points, unique=unique,
                           layer_stride=layer_stride)


# ----------------------------------------------------------------------
# Exploration result
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointResult:
    """One evaluated design point with its metrics and provenance."""

    point: DesignPoint
    key: str
    metrics: Dict[str, object]
    #: answered from the session memo or the result store (not re-evaluated).
    cached: bool = False
    #: simulator confirmation record (see :func:`confirm_frontier`).
    confirmation: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class PointFailure:
    """One design point whose evaluation permanently failed.

    ``explore`` records these (to the store, when one is attached) and keeps
    going: a crashing or erroring point never aborts the sweep.  ``cached``
    marks failures replayed from a memo/store on resume rather than freshly
    observed.
    """

    point: DesignPoint
    key: str
    failure: TaskFailure
    cached: bool = False

    def as_row(self) -> Dict[str, object]:
        return {
            "design": self.point.name,
            "network": self.point.network,
            "batch": self.point.batch,
            "kind": self.failure.kind,
            "error": f"{self.failure.error_type}: {self.failure.message}",
            "attempts": self.failure.attempts,
            "cached": self.cached,
        }


class ExplorationStats(obs_metrics.StatsView):
    """What one :func:`explore` call actually did.

    A registry-backed view (``repro_dse_*`` counters in ``registry``);
    the attribute API is unchanged.
    """

    _AREA = "dse"
    _FIELDS = {
        "planned": "design points the driver planned",
        "evaluated": "design points evaluated in this run",
        "memo_hits": "points answered from the session's in-memory memo",
        "store_hits": "points answered from the resumable result store",
        "proxy_evaluations":
            "cheap proxy evaluations used by successive halving",
        "failed": "evaluations that permanently failed in this run",
        "skipped_failures":
            "failure records replayed from the memo/store "
            "(skipped on resume)",
    }


@dataclass(frozen=True)
class Exploration:
    """Outcome of one design-space exploration."""

    base_gpu: GpuSpec
    objectives: Tuple[Objective, ...]
    results: Tuple[PointResult, ...]
    #: identity-design reference per workload signature (speedup = 1.0).
    baselines: Dict[Tuple[str, int, str, int], PointResult] = field(
        default_factory=dict)
    #: indices into ``results`` forming the Pareto frontier.
    frontier: Tuple[int, ...] = ()
    stats: ExplorationStats = field(default_factory=ExplorationStats)
    #: design points whose evaluation permanently failed (error-isolated).
    failures: Tuple[PointFailure, ...] = ()

    def speedup(self, result: PointResult) -> Optional[float]:
        """Speedup of one result over its workload's identity baseline."""
        baseline = self.baselines.get(result.point.workload_signature())
        if baseline is None:
            return None
        total = float(result.metrics["time_s"])
        if total <= 0:
            return float("inf")
        return float(baseline.metrics["time_s"]) / total

    def frontier_results(self) -> List[PointResult]:
        return [self.results[index] for index in self.frontier]

    def frontier_rows(self) -> List[Dict[str, object]]:
        """Frontier points as flat table rows, ranked by the first objective."""
        primary = self.objectives[0]
        ranked = sorted(
            self.frontier,
            key=lambda index: -primary.oriented(
                float(self.results[index].metrics[primary.metric])))
        rows = []
        for rank, index in enumerate(ranked, start=1):
            result = self.results[index]
            metrics = result.metrics
            shares = metrics.get("bottlenecks", {})
            dominant = max(shares, key=shares.get) if shares else "n/a"
            row: Dict[str, object] = {
                "rank": rank,
                "design": result.point.name,
                "network": result.point.network,
                "batch": result.point.batch,
                "passes": result.point.passes,
                "time_ms": float(metrics["time_s"]) * 1e3,
                "TFLOP/s": metrics["throughput_tflops"],
                "DRAM_GB": metrics["dram_gb"],
                "cost": metrics["resource_cost"],
                "bottleneck": dominant,
            }
            speedup = self.speedup(result)
            if speedup is not None:
                row["speedup"] = speedup
            if result.confirmation is not None:
                row["sim_time_ratio"] = result.confirmation["sim_model_ratio"]
            rows.append(row)
        return rows

    def failure_rows(self) -> List[Dict[str, object]]:
        """Failed design points as flat table rows."""
        return [failure.as_row() for failure in self.failures]


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------

def _evaluate_batch_local(base_gpu: GpuSpec, points: Sequence[DesignPoint],
                          unique: bool) -> List[object]:
    """In-process batched evaluation with per-point failure isolation.

    Fault sites fire per point before the batch call so an injected error
    poisons only its own point; if the batch evaluation itself fails, the
    chunk is re-run one point at a time so one bad point cannot take down
    its neighbours.
    """
    outcomes: List[object] = [None] * len(points)
    if faults.active():
        good: List[int] = []
        for i, point in enumerate(points):
            try:
                faults.fire("dse",
                            f"{point.name}/{point.network}/b{point.batch}")
                good.append(i)
            except Exception as exc:
                outcomes[i] = TaskFailure.from_exception(exc)
    else:
        good = list(range(len(points)))
    if good:
        try:
            fresh: List[object] = evaluate_points(
                base_gpu, [points[i] for i in good], unique=unique)
        except Exception:
            fresh = []
            for i in good:
                try:
                    fresh.extend(evaluate_points(base_gpu, [points[i]],
                                                 unique=unique))
                except Exception as exc:
                    fresh.append(TaskFailure.from_exception(exc))
        for i, outcome in zip(good, fresh):
            outcomes[i] = outcome
    return outcomes


def _chunk_tasks(base_gpu: GpuSpec, points: Sequence[DesignPoint],
                 unique: bool, layer_stride: int) -> List[Tuple]:
    """``BATCH_CHUNK``-point :func:`_evaluate_batch_task` tasks."""
    return [(base_gpu, tuple(points[start:start + BATCH_CHUNK]), unique,
             layer_stride)
            for start in range(0, len(points), BATCH_CHUNK)]


def _map_evaluations_batched(session, base_gpu: GpuSpec,
                             points: Sequence[DesignPoint],
                             unique: bool) -> List[object]:
    """Batched evaluation fan-out with chunk-level crash isolation.

    Chunks go through the session pool as single tasks; a chunk that fails
    (e.g. one point crashes the worker) is retried one point per task so
    only the genuinely bad point surfaces as a failure.
    """
    if session is None:
        return _evaluate_batch_local(base_gpu, points, unique)
    chunk_tasks = _chunk_tasks(base_gpu, points, unique, 1)
    chunk_outcomes = session.map_tasks(_evaluate_batch_task, chunk_tasks,
                                       return_failures=True, isolate=True)
    outcomes: List[object] = []
    for (_, chunk, _, _), outcome in zip(chunk_tasks, chunk_outcomes):
        if isinstance(outcome, TaskFailure):
            tasks = [(base_gpu, (point,), unique, 1) for point in chunk]
            outcomes.extend(
                single if isinstance(single, TaskFailure) else single[0]
                for single in session.map_tasks(
                    _evaluate_batch_task, tasks, return_failures=True,
                    isolate=True))
        else:
            outcomes.extend(outcome)
    return outcomes


def _score_proxy_batched(session, base_gpu: GpuSpec,
                         points: Sequence[DesignPoint],
                         unique: bool) -> List[Dict[str, object]]:
    """Batched proxy scoring for successive halving rungs.

    Proxy failures propagate: the proxy only ranks candidates, so there is
    no per-point isolation (``map_tasks`` without ``return_failures``).
    """
    if session is None:
        return _evaluate_batch_task(
            (base_gpu, points, unique, PROXY_LAYER_STRIDE))
    chunk_results = session.map_tasks(
        _evaluate_batch_task,
        _chunk_tasks(base_gpu, points, unique, PROXY_LAYER_STRIDE),
        isolate=True)
    return [metrics for chunk in chunk_results for metrics in chunk]


def explore(space: SearchSpace, *, driver=None, base_gpu: GpuSpec = TITAN_XP,
            objectives: Sequence[object] = DEFAULT_OBJECTIVE_NAMES,
            store: Optional[ResultStore] = None, session=None,
            unique: bool = True,
            include_baseline: bool = True) -> Exploration:
    """Run one design-space exploration end to end.

    ``session`` supplies process-pool parallelism, the resilience policy
    (timeout and retry budget) and the cross-request in-memory memo;
    ``store`` adds on-disk resumability.  Either (or both) may be omitted
    for a serial, stateless sweep.

    Points are evaluated in whole rungs through the vectorized
    array-of-points path (:mod:`repro.dse.batch`).

    Failures are isolated per point: an evaluation that still fails after the
    retry budget becomes a :class:`PointFailure` (recorded in the store when
    one is attached, and skipped on resume) while the sweep continues; the
    frontier is computed over the successful points only.
    """
    if driver is None:
        driver = ExhaustiveDriver()
    resolved = (objectives if objectives and
                isinstance(objectives[0], Objective)
                else resolve_objectives(objectives))
    stats = ExplorationStats()

    with obs_spans.trace("dse.plan", driver=type(driver).__name__):
        points = driver.plan(space)
    stats.planned = len(points)
    if isinstance(driver, SuccessiveHalvingDriver):
        primary = resolved[0]
        proxy_memo: Dict[str, Dict[str, object]] = {}

        def score_points(candidates: Sequence[DesignPoint]) -> List[float]:
            """Proxy scores for one rung: memoized (survivors re-scored by a
            later rung cost nothing) and fanned out over the session pool."""
            missing = [point for point in candidates
                       if point.point_hash() not in proxy_memo]
            with obs_spans.trace("dse.rung", candidates=len(candidates),
                                 fresh=len(missing)):
                if missing:
                    fresh = _score_proxy_batched(session, base_gpu,
                                                 missing, unique)
                    stats.proxy_evaluations += len(missing)
                    for point, metrics in zip(missing, fresh):
                        proxy_memo[point.point_hash()] = metrics
                # lower is better for the refine() sort.
                return [-primary.oriented(float(
                    proxy_memo[point.point_hash()][primary.metric]))
                    for point in candidates]

        points = driver.refine(points, score_points)

    baseline_points: Dict[Tuple[str, int, str, int], DesignPoint] = {}
    if include_baseline:
        for point in points:
            signature = signature_of(point)
            if signature not in baseline_points:
                baseline_points[signature] = point.baseline_point()

    all_points = list(points) + list(baseline_points.values())
    keys = store_keys(base_gpu, all_points, unique)

    # key -> record, None while the key's evaluation is pending.
    records: Dict[str, Optional[Dict[str, object]]] = {}
    cached_keys = set()
    pending: List[Tuple[str, DesignPoint]] = []
    # plain-int counters in the loop; folded into the registry-backed
    # stats once at the end (a counter write per point is measurable).
    memo_hits = store_hits = skipped_failures = 0
    for key, point in zip(keys, all_points):
        if key in records:
            continue
        record = session.dse_lookup(key) if session is not None else None
        if record is not None:
            memo_hits += 1
        elif store is not None:
            record = store.get(key)
            if record is not None:
                store_hits += 1
                if session is not None:
                    session.dse_record(key, record)
        records[key] = record
        if record is None:
            pending.append((key, point))
        else:
            cached_keys.add(key)
            skipped_failures += is_failure_record(record)
    stats.memo_hits += memo_hits
    stats.store_hits += store_hits
    stats.skipped_failures += skipped_failures

    if pending:
        with obs_spans.trace("dse.evaluate", points=len(pending),
                             memo_hits=stats.memo_hits,
                             store_hits=stats.store_hits):
            fresh = _map_evaluations_batched(
                session, base_gpu, [point for _, point in pending], unique)
        evaluated = failed = 0
        for (key, _), outcome in zip(pending, fresh):
            if isinstance(outcome, TaskFailure):
                outcome = {FAILURE_FIELD: outcome.as_record()}
                failed += 1
            else:
                evaluated += 1
            records[key] = outcome
            if session is not None:
                session.dse_record(key, outcome)
        stats.evaluated += evaluated
        stats.failed += failed
        if store is not None:
            store.put_many((key, records[key]) for key, _ in pending)
    if session is not None:
        session.stats.dse_points += stats.evaluated

    results_list: List[PointResult] = []
    failures_list: List[PointFailure] = []
    baselines: Dict[Tuple[str, int, str, int], PointResult] = {}
    for index, (key, point) in enumerate(zip(keys, all_points)):
        record = records[key]
        cached = key in cached_keys
        if is_failure_record(record):
            failures_list.append(PointFailure(
                point=point, key=key,
                failure=TaskFailure.from_record(record[FAILURE_FIELD]),
                cached=cached))
            continue
        result = PointResult(point=point, key=key, metrics=record,
                             cached=cached)
        if index < len(points):
            results_list.append(result)
        else:
            baselines[signature_of(point)] = result
    results = tuple(results_list)
    with obs_spans.trace("dse.frontier", results=len(results)):
        frontier = tuple(pareto_frontier(
            [result.metrics for result in results],
            resolved)) if results else ()
    return Exploration(base_gpu=base_gpu, objectives=tuple(resolved),
                       results=results, baselines=baselines,
                       frontier=frontier, stats=stats,
                       failures=tuple(failures_list))


# ----------------------------------------------------------------------
# Optional simulator confirmation of frontier points
# ----------------------------------------------------------------------

def confirm_frontier(exploration: Exploration, session, *, top: int = 3,
                     max_ctas: int = 30) -> Exploration:
    """Cross-check the top frontier points against the trace-driven simulator.

    Simulates the largest-MAC unique layer of each confirmed point's network
    on the point's scaled GPU (capped at ``max_ctas`` exact CTAs) and attaches
    the simulator/model time ratio to the result — a cheap sanity check that
    the analytic ranking is not an artifact, without dragging the simulator
    through the full sweep.
    """
    if top <= 0 or not exploration.frontier:
        return exploration
    primary = exploration.objectives[0]
    ranked = sorted(
        exploration.frontier,
        key=lambda index: -primary.oriented(
            float(exploration.results[index].metrics[primary.metric])))
    confirmed: Dict[int, Dict[str, float]] = {}
    for index in ranked[:top]:
        result = exploration.results[index]
        point = result.point
        layers = _workload_layers(point.network, point.batch,
                                  point.dtype_bytes, True,
                                  registry_generation())
        layer = max(layers, key=lambda l: l.macs)
        pass_kind = expand_passes(point.passes)[0]
        gpu = point.option.apply(exploration.base_gpu)
        config = SimulatorConfig(max_ctas=max_ctas,
                                 cta_tile_hw=point.option.cta_tile_hw)
        sim = session.simulate(gpu, layer, config, pass_kind=pass_kind)
        model = DeltaModel(gpu, cta_tile_hw=point.option.cta_tile_hw)
        est = model.estimate_pass(layer, pass_kind)
        confirmed[index] = {
            "layer": layer.name,
            "sim_time_s": sim.time_seconds,
            "model_time_s": est.time_seconds,
            "sim_model_ratio": (sim.time_seconds / est.time_seconds
                                if est.time_seconds > 0 else float("inf")),
        }
    results = tuple(
        dataclasses.replace(result, confirmation=confirmed.get(index))
        if index in confirmed else result
        for index, result in enumerate(exploration.results))
    return dataclasses.replace(exploration, results=results)
