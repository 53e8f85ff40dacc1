"""The DSE orchestrator: space -> driver -> evaluation -> store -> frontier.

:func:`explore` is the one entry point: it asks the driver which design
points to evaluate, answers as many as possible from the session memo and the
resumable :class:`~repro.dse.store.ResultStore`, evaluates the rest
(:func:`_evaluate_table`: on the session's shared process pool, or in
process without a session) and finishes with the Pareto frontier over the
requested objectives.

Every point is evaluated on its design over the baseline GPU through the
batched array-of-points path (:mod:`repro.dse.batch`); the sweep stays
columnar (design matrix, metric columns, bulk keys, columnar store chunks)
and :class:`PointResult` objects are built only for the rows read.  The
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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import faults
from ..analysis.frontier import (DEFAULT_OBJECTIVE_NAMES, Objective,
                                 pareto_frontier, resolve_objectives)
from ..core.batched import design_matrix
from ..core.model import DeltaModel
from ..core.workload import expand_passes
from ..gpu.design_options import DesignOption
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from ..networks.registry import registry_generation
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..resilience import TaskError, TaskFailure, run_chunk
from ..sim.engine import SimulatorConfig
from .batch import MetricTable, _workload_layers, evaluate_points
from .drivers import ExhaustiveDriver, SuccessiveHalvingDriver
from .space import DesignPoint, PointTable, SearchSpace, _row_bytes
from .store import ResultStore

#: bump when the evaluation's metric semantics change (invalidates stores).
EVALUATION_SCHEMA = 3

#: design points per batched pool task; bounds the work lost when one point
#: in a chunk crashes the worker (the chunk is then retried point by point).
BATCH_CHUNK = 1024

#: successive halving's cheap proxy evaluates every this-many-th layer.
PROXY_LAYER_STRIDE = 4

#: the identity design (speedup = 1): unit multipliers, the 128 CTA tile.
_IDENTITY_DESIGN = design_matrix([DesignOption(name="baseline")])[0]


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


def _gpu_fingerprint(gpu: GpuSpec) -> Dict[str, object]:
    payload = dataclasses.asdict(gpu)
    payload.pop("name", None)  # content identity, not label
    return payload


def store_keys(base_gpu: GpuSpec, points: Sequence[DesignPoint],
               unique: bool) -> List[str]:
    """Content keys of many evaluations, one per point, in input order.

    ``points`` is a :class:`~repro.dse.space.PointTable` (or design points).
    Hashes one sha1 per workload signature over ``[EVALUATION_SCHEMA, gpu
    fingerprint, signature, workload fingerprint]`` (as JSON), then extends
    a copy of that hash with the point's design-matrix row (nine
    little-endian float64s).  Option names are not hashed, so equal designs
    share a key.
    """
    table = PointTable.from_points(points)
    with obs_spans.trace_deep("dse.keys", points=len(table)):
        gpu = _gpu_fingerprint(base_gpu)
        generation = registry_generation()
        seeds = [hashlib.sha1(json.dumps(
            [EVALUATION_SCHEMA, gpu, list(signature),
             _workload_fingerprint(signature[0], signature[1], signature[3],
                                   signature[2], unique, generation)],
            sort_keys=True).encode("utf-8")) for signature in table.signatures]
        keys: List[str] = []
        append = keys.append
        for seed, row in zip(table.signature_index.tolist(),
                             _row_bytes(table.design)):
            digest = seeds[seed].copy()
            digest.update(row)
            append(digest.hexdigest())
        return keys


def _evaluate_batch_task(task) -> MetricTable:
    """One evaluation task: a chunk of points evaluated as a batch.

    ``task`` is ``(base_gpu, points, unique, layer_stride)`` with ``points``
    a :class:`~repro.dse.space.PointTable` slice; a stride above 1 is
    successive halving's layer-subsampled proxy, whose fault sites carry a
    ``proxy:`` prefix.  Fires each point's ``dse`` fault site
    (``name/network/bBATCH``) first, then evaluates the whole chunk through
    the array-of-points path.
    """
    base_gpu, points, unique, layer_stride = task
    table = PointTable.from_points(points)
    if faults.active():
        prefix = "proxy:" if layer_stride > 1 else ""
        for row in range(len(table)):
            network, batch = table.signatures[table.signature_index[row]][:2]
            faults.fire("dse", f"{prefix}{table.name(row)}/{network}/b{batch}")
    return evaluate_points(base_gpu, table, unique=unique,
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


class PointResults(Sequence):
    """The evaluated points of a sweep as columns: a lazy
    ``Sequence[PointResult]``.

    ``points`` and ``metrics`` are parallel tables, ``cached`` a bool
    column.  When the sweep hashed store keys, ``keys`` is ``(key_list,
    key_index)`` and row ``i``'s key is ``key_list[key_index[i]]``;
    otherwise :func:`store_keys` hashes just the rows read.  :meth:`take`
    builds many results with one bulk call.
    """

    def __init__(self, base_gpu: GpuSpec, unique: bool, points: PointTable,
                 metrics: MetricTable, cached: np.ndarray,
                 keys: Optional[Tuple[List[str], np.ndarray]] = None,
                 confirmations: Optional[Dict[int, Dict[str, float]]] = None
                 ) -> None:
        self.base_gpu = base_gpu
        self.unique = unique
        self.points = points
        self.metrics = metrics
        self.cached = cached
        self.keys = keys
        self.confirmations = confirmations or {}

    def __len__(self) -> int:
        return len(self.points)

    def take(self, rows: Sequence[int]) -> List[PointResult]:
        """The results of ``rows`` (row indices, in the order given)."""
        rows = [range(len(self))[row] for row in rows]
        points = self.points.take(rows)
        if self.keys is None:
            keys = store_keys(self.base_gpu, points, self.unique)
        else:
            key_list, key_index = self.keys
            keys = [key_list[i] for i in key_index[rows].tolist()]
        return [PointResult(point=point, key=key, metrics=metrics,
                            cached=cached,
                            confirmation=self.confirmations.get(row))
                for row, point, key, metrics, cached in zip(
                    rows, points, keys, self.metrics.take(rows),
                    self.cached[rows].tolist())]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        return self.take([index])[0]

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.take(range(len(self))))

    def with_confirmations(self, confirmations: Dict[int, Dict[str, float]]
                           ) -> "PointResults":
        return PointResults(self.base_gpu, self.unique, self.points,
                            self.metrics, self.cached, self.keys,
                            {**self.confirmations, **confirmations})


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
    results: PointResults
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
        return self.results.take(self.frontier)

    def ranked_frontier(self) -> List[Tuple[int, PointResult]]:
        """``(index, result)`` of the frontier, best first objective first
        (ties keep frontier order)."""
        primary = self.objectives[0]
        return sorted(
            zip(self.frontier, self.frontier_results()),
            key=lambda pair: -primary.oriented(
                float(pair[1].metrics[primary.metric])))

    def frontier_rows(self) -> List[Dict[str, object]]:
        """Frontier points as flat table rows, ranked by the first objective."""
        rows = []
        for rank, (_, result) in enumerate(self.ranked_frontier(), start=1):
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

#: a batch evaluation's outcome: the metrics of every row that did not fail
#: (in row order) and row -> failure for those that did.
Outcomes = Tuple[MetricTable, Dict[int, TaskFailure]]


def _evaluate_table(session, base_gpu: GpuSpec, table: PointTable,
                    unique: bool, layer_stride: int = 1) -> Outcomes:
    """Evaluate ``table`` in :func:`_evaluate_batch_task` chunks with
    per-point failure isolation: the one evaluation path of a sweep.

    With a session, ``BATCH_CHUNK``-point chunks run on its process pool
    under its timeout and retry budget (``isolate=True``: a point that
    crashes its worker cannot take the driver down).  Without one, the
    whole table is one in-process task run by
    :func:`repro.resilience.run_chunk` — a session with ``retries=0``.
    Either way a chunk that still fails is re-run one point per task (a
    session-less table larger than ``BATCH_CHUNK`` is first re-run in
    ``BATCH_CHUNK``-point pieces, so one bad point costs one piece of
    single-point tasks, not the whole table's), and only the genuinely bad
    points come back as failures.  The proxy of
    successive halving (``layer_stride > 1``) only ranks candidates, so a
    point failure there raises :class:`~repro.resilience.TaskError`.
    """
    def run(tasks: List[Tuple]) -> List:
        if session is not None:
            return session.map_tasks(_evaluate_batch_task, tasks,
                                     return_failures=True, isolate=True)
        return [TaskFailure.from_record(value) if status == "error"
                else value for status, value in run_chunk(
                    (_evaluate_batch_task, tasks))]

    pieces: List[MetricTable] = []
    failures: Dict[int, TaskFailure] = {}

    def evaluate(start: int, chunk: PointTable, size: int,
                 final: bool) -> None:
        """Run ``chunk`` as ``size``-point tasks.  A failed task is re-run
        in ``BATCH_CHUNK``-point pieces while it is larger, then one point
        per task, whose failure is final."""
        offsets = range(0, len(chunk), size)
        parts = [chunk[offset:offset + size] for offset in offsets]
        for offset, part, outcome in zip(offsets, parts, run(
                [(base_gpu, part, unique, layer_stride) for part in parts])):
            if not isinstance(outcome, TaskFailure):
                pieces.append(outcome)
            elif final:
                failures[start + offset] = outcome
            else:
                smaller = BATCH_CHUNK if len(part) > BATCH_CHUNK else 1
                evaluate(start + offset, part, smaller, final=smaller == 1)

    evaluate(0, table, BATCH_CHUNK if session is not None
             else max(1, len(table)), final=False)
    if failures and layer_stride > 1:
        raise TaskError(list(failures.values()),
                        context="successive-halving proxy")
    return MetricTable.concat(pieces), failures


def _baseline_table(planned: PointTable) -> PointTable:
    """One identity-design row per workload signature of ``planned``, in
    order of first appearance."""
    first = np.sort(np.unique(planned.signature_index, return_index=True)[1])
    return PointTable(np.tile(_IDENTITY_DESIGN, (len(first), 1)),
                      planned.signature_index[first], planned.signatures)


def explore(space: SearchSpace, *, driver=None, base_gpu: GpuSpec = TITAN_XP,
            objectives: Sequence[object] = DEFAULT_OBJECTIVE_NAMES,
            store: Optional[ResultStore] = None, session=None,
            unique: bool = True,
            include_baseline: bool = True) -> Exploration:
    """Run one design-space exploration end to end.

    ``session`` supplies process-pool parallelism, the resilience policy
    (timeout and retry budget) and the cross-request in-memory memo;
    ``store`` adds on-disk resumability.  Either (or both) may be omitted
    for a serial, stateless sweep: no session evaluates in process with the
    same chunk -> point failure isolation as a ``Session(retries=0)``.

    The sweep stays columnar from plan to frontier: the driver plans row
    indices into the space's :class:`~repro.dse.space.PointTable`, every
    distinct point is evaluated once in whole rungs through the vectorized
    array-of-points path (:mod:`repro.dse.batch`), content keys are hashed
    in bulk only when a memo or store is attached, and the frontier reads
    the metric columns.  Result objects are built for the rows read.

    Failures are isolated per point: an evaluation that still fails after the
    retry budget becomes a :class:`PointFailure` (recorded in the store when
    one is attached, and skipped on resume) while the sweep continues; the
    frontier is computed over the successful points only.  A failing
    successive-halving proxy raises :class:`~repro.resilience.TaskError`.
    """
    if driver is None:
        driver = ExhaustiveDriver()
    resolved = (objectives if objectives and
                isinstance(objectives[0], Objective)
                else resolve_objectives(objectives))
    stats = ExplorationStats()

    with obs_spans.trace("dse.plan", driver=type(driver).__name__):
        rows = driver.plan(space)
        table = space.table()
    stats.planned = len(rows)
    if isinstance(driver, SuccessiveHalvingDriver):
        primary = resolved[0]
        proxy_scores: Dict[int, float] = {}

        def score_rows(candidates: Sequence[int]) -> List[float]:
            """Proxy scores for one rung: memoized by row (survivors
            re-scored by a later rung cost nothing) and fanned out over the
            session pool."""
            missing = [row for row in candidates if row not in proxy_scores]
            with obs_spans.trace("dse.rung", candidates=len(candidates),
                                 fresh=len(missing)):
                if missing:
                    fresh, _ = _evaluate_table(
                        session, base_gpu, table.take(missing), unique,
                        PROXY_LAYER_STRIDE)
                    stats.proxy_evaluations += len(missing)
                    # lower is better for the refine() sort.
                    for row, value in zip(missing, getattr(
                            fresh, primary.metric).tolist()):
                        proxy_scores[row] = -primary.oriented(value)
                return [proxy_scores[row] for row in candidates]

        rows = driver.refine(rows, score_rows)

    planned = table.take(rows)
    everything = (PointTable.concat([planned, _baseline_table(planned)])
                  if include_baseline else planned)
    # every distinct point once, in order of first appearance.
    first, distinct_of = everything.content_index()
    keys = (store_keys(base_gpu, everything.take(first), unique)
            if session is not None or store is not None else None)

    def keys_of(points: np.ndarray) -> List[str]:
        return [keys[i] for i in points.tolist()]

    # (distinct points, their metrics) from the memo, the store and the
    # evaluation; failure payloads and cache provenance per distinct point.
    answered: List[Tuple[np.ndarray, MetricTable]] = []
    failures: Dict[int, Dict[str, object]] = {}
    cached = np.zeros(len(first), dtype=bool)
    pending = np.arange(len(first))
    lookups = ([("memo", session.dse_lookup)] if session is not None else []
               ) + ([("store", store.get_many)] if store is not None else [])
    for source, lookup in lookups:
        if not len(pending):
            break
        found, hit_table, failed = lookup(keys_of(pending))
        hits = pending[found]
        failed_points = pending[np.fromiter(failed, dtype=np.intp,
                                            count=len(failed))]
        answered.append((hits, hit_table))
        failures.update(zip(failed_points.tolist(), failed.values()))
        cached[hits] = cached[failed_points] = True
        if source == "memo":
            stats.memo_hits += len(hits) + len(failed_points)
        else:
            stats.store_hits += len(hits) + len(failed_points)
            if session is not None and (len(hits) or len(failed_points)):
                session.dse_record(keys_of(hits), hit_table,
                                   dict(zip(keys_of(failed_points),
                                            failed.values())))
        pending = pending[~cached[pending]]
    stats.skipped_failures += len(failures)

    if len(pending):
        with obs_spans.trace("dse.evaluate", points=len(pending),
                             memo_hits=stats.memo_hits,
                             store_hits=stats.store_hits):
            fresh, errors = _evaluate_table(
                session, base_gpu, everything.take(first[pending]), unique)
        failed_points = pending[np.fromiter(errors, dtype=np.intp,
                                            count=len(errors))]
        evaluated = pending[np.isin(pending, failed_points, invert=True)]
        answered.append((evaluated, fresh))
        records = [error.as_record() for error in errors.values()]
        failures.update(zip(failed_points.tolist(), records))
        stats.evaluated += len(evaluated)
        stats.failed += len(failed_points)
        if keys is not None:
            failed_keys = dict(zip(keys_of(failed_points), records))
            if session is not None:
                session.dse_record(keys_of(evaluated), fresh, failed_keys)
            if store is not None:
                store.put_many(keys_of(evaluated), fresh, failed_keys)
    if session is not None:
        session.stats.dse_points += stats.evaluated

    # the metrics row of every distinct point that has metrics.
    metrics = MetricTable.concat([part for _, part in answered])
    metrics_row = np.full(len(first), -1, dtype=np.intp)
    if answered:
        metrics_row[np.concatenate([hits for hits, _ in answered])] = \
            np.arange(len(metrics))

    def results_of(rows: np.ndarray) -> PointResults:
        distinct = distinct_of[rows]
        return PointResults(base_gpu, unique, everything.take(rows),
                            metrics.take(metrics_row[distinct]),
                            cached[distinct],
                            None if keys is None else (keys, distinct))

    ok = metrics_row[distinct_of] >= 0
    results = results_of(np.flatnonzero(ok[:len(planned)]))
    baseline_rows = np.flatnonzero(ok[len(planned):]) + len(planned)
    baselines = {
        everything.signatures[everything.signature_index[row]]: result
        for row, result in zip(baseline_rows.tolist(),
                               results_of(baseline_rows))}
    failed_rows = np.flatnonzero(~ok)
    failure_list: Tuple[PointFailure, ...] = ()
    if len(failed_rows):
        distinct = distinct_of[failed_rows].tolist()
        failure_list = tuple(
            PointFailure(point=point, key=key,
                         failure=TaskFailure.from_record(failures[index]),
                         cached=bool(cached[index]))
            for point, key, index in zip(
                everything.take(failed_rows),
                store_keys(base_gpu, everything.take(failed_rows), unique)
                if keys is None else [keys[i] for i in distinct],
                distinct))
    with obs_spans.trace("dse.frontier", results=len(results)):
        frontier = tuple(pareto_frontier(results.metrics, resolved)
                         ) if len(results) else ()
    return Exploration(base_gpu=base_gpu, objectives=tuple(resolved),
                       results=results, baselines=baselines,
                       frontier=frontier, stats=stats,
                       failures=failure_list)


# ----------------------------------------------------------------------
# Optional simulator confirmation of frontier points
# ----------------------------------------------------------------------

def confirm_frontier(exploration: Exploration, session, *, top: int = 3,
                     max_ctas: int = 30) -> Exploration:
    """Cross-check the top frontier points against the trace-driven simulator.

    Simulates the largest-MAC unique layer of each confirmed point's network
    on the point's scaled GPU (whole waves until at least ``max_ctas`` CTAs
    ran) and attaches the simulator/model time ratio to the result — a cheap
    sanity check that the analytic ranking is not an artifact, without
    dragging the simulator through the full sweep.
    """
    if top <= 0 or not exploration.frontier:
        return exploration
    confirmed: Dict[int, Dict[str, float]] = {}
    for index, result in exploration.ranked_frontier()[:top]:
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
    return dataclasses.replace(
        exploration, results=exploration.results.with_confirmations(confirmed))
