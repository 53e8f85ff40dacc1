"""The DSE orchestrator: space -> driver -> evaluation -> store -> frontier.

:func:`explore` is the one entry point: it asks the driver which design
points to evaluate, answers as many as possible from the session memo and the
resumable :class:`~repro.dse.store.ResultStore`, fans the rest out over the
session's shared process pool, and finishes with the Pareto frontier over the
requested objectives.

Every point is lowered through :meth:`DesignOption.apply` onto the baseline
GPU and evaluated with the analytic :class:`~repro.core.model.DeltaModel`
through the batched array-of-points path (:mod:`repro.dse.batch`); the
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
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..analysis.frontier import (DEFAULT_OBJECTIVE_NAMES, Objective,
                                 design_cost, pareto_frontier,
                                 resolve_objectives)
from ..core.model import DeltaModel
from ..core.workload import expand_passes
from ..gpu.devices import TITAN_XP
from ..gpu.spec import GpuSpec
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..resilience import TaskFailure
from ..sim.engine import SimulatorConfig
from .batch import _workload_layers, evaluate_points
from .drivers import ExhaustiveDriver, SuccessiveHalvingDriver
from .space import DesignPoint, SearchSpace
from .store import FAILURE_FIELD, ResultStore, is_failure_record

#: bump when the evaluation's metric semantics change (invalidates stores).
EVALUATION_SCHEMA = 1

#: design points per batched pool task; bounds the work lost when one point
#: in a chunk crashes the worker (the chunk is then retried point by point).
BATCH_CHUNK = 1024

#: C-level :meth:`DesignPoint.workload_signature` (hot sweep loops).
_signature_of = operator.attrgetter("network", "batch", "passes",
                                    "dtype_bytes")


# ----------------------------------------------------------------------
# Point evaluation (analytic model; picklable for process pools)
# ----------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _workload_fingerprint(network: str, batch: int, dtype_bytes: int,
                          passes: str, unique: bool) -> str:
    layers = _workload_layers(network, batch, dtype_bytes, unique)
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
    session's simulation dedupe uses — so a change to a network definition
    changes the key and stale store entries are never reused.
    """
    return _workload_fingerprint(point.network, point.batch,
                                 point.dtype_bytes, point.passes, unique)


def _gpu_fingerprint(gpu: GpuSpec) -> Dict[str, object]:
    payload = dataclasses.asdict(gpu)
    payload.pop("name", None)  # content identity, not label
    return payload


@lru_cache(maxsize=16)
def _gpu_fingerprint_json(gpu: GpuSpec) -> str:
    return json.dumps(_gpu_fingerprint(gpu), sort_keys=True)


@lru_cache(maxsize=64)
def _json_str(text: str) -> str:
    return json.dumps(text)


#: ``json.dumps(point.descriptor(), sort_keys=True)`` as % templates —
#: top-level and design keys in sorted order, default separators.  ``repr``
#: of an int/float matches json's number serialization exactly, so splicing
#: repr'd fields is byte-identical to the real dump (pinned by a test).
_DESIGN_TEMPLATE = (
    '{"cta_tile": %r, "dram_bw": %r, "l1_bw": %r, "l2_bw": %r, '
    '"mac_bw": %r, "num_sm": %r, "regs": %r, "smem_bw": %r, '
    '"smem_size": %r}')


#: the template's slots, fetched in one C-level call per option.
_design_values = operator.attrgetter(
    "cta_tile_hw", "dram_bw", "l1_bw", "l2_bw", "mac_bw", "num_sm",
    "regs", "smem_bw", "smem_size")


def _design_json(option) -> str:
    """The descriptor's ``design`` value as sorted-keys JSON."""
    return _DESIGN_TEMPLATE % _design_values(option)


def _descriptor_frags(point: DesignPoint) -> Tuple[str, str]:
    """Workload-only (head, tail) of the descriptor JSON — shared per
    workload signature; the design JSON splices in between."""
    head = '{"batch": %s, "design": ' % repr(point.batch)
    tail = (', "dtype_bytes": %s, "network": %s, "passes": %s}'
            % (repr(point.dtype_bytes), _json_str(point.network),
               _json_str(point.passes)))
    return head, tail


def _descriptor_json(point: DesignPoint) -> str:
    """Fast, byte-identical ``json.dumps(point.descriptor(), sort_keys=True)``."""
    head, tail = _descriptor_frags(point)
    return head + _design_json(point.option) + tail


def store_key(base_gpu: GpuSpec, point: DesignPoint, unique: bool) -> str:
    """Content key of one evaluation: baseline GPU x design point x workload."""
    payload = {
        "schema": EVALUATION_SCHEMA,
        "gpu": _gpu_fingerprint(base_gpu),
        "point": point.descriptor(),
        "workload": workload_fingerprint(point, unique),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def store_keys(base_gpu: GpuSpec, points: Sequence[DesignPoint],
               unique: bool) -> Tuple[List[str], List[str]]:
    """Batched :func:`store_key`: parallel ``(keys, descriptor_jsons)`` lists.

    Assembles each point's key payload around a shared GPU-fingerprint
    prefix and per-workload suffix instead of re-serializing the whole
    payload per point.  ``json.dumps(..., sort_keys=True)`` serializes
    nested values context-free, so the template splice is byte-identical
    to the monolithic dump (pinned by a regression test) and the sha1
    keys match :func:`store_key` exactly.  The descriptor JSON rides
    along because the store's append path wants it too.
    """
    prefix = '{"gpu": ' + _gpu_fingerprint_json(base_gpu) + ', "point": '
    seed = hashlib.sha1(prefix.encode("utf-8"))
    # per-signature descriptor fragments + key-payload suffix, and the
    # design JSON cached per option *object* (grid enumeration shares one
    # option across the workload axes, so this hits most of the time).
    frags: Dict[Tuple[str, int, str, int], Tuple[str, str, str]] = {}
    designs: Dict[int, str] = {}
    keys: List[str] = []
    descriptors: List[str] = []
    seed_copy = seed.copy
    for point in points:
        signature = _signature_of(point)
        cached = frags.get(signature)
        if cached is None:
            head, tail = _descriptor_frags(point)
            suffix = (', "schema": %d, "workload": "%s"}'
                      % (EVALUATION_SCHEMA,
                         workload_fingerprint(point, unique)))
            cached = (head, tail, suffix)
            frags[signature] = cached
        head, tail, suffix = cached
        option = point.option
        design = designs.get(id(option))
        if design is None:
            design = _design_json(option)
            designs[id(option)] = design
        descriptor_json = head + design + tail
        digest = seed_copy()
        digest.update((descriptor_json + suffix).encode("utf-8"))
        keys.append(digest.hexdigest())
        descriptors.append(descriptor_json)
    return keys, descriptors


def evaluate_point(base_gpu: GpuSpec, point: DesignPoint, *,
                   unique: bool = True,
                   layer_stride: int = 1) -> Dict[str, object]:
    """Evaluate one design point with the scalar analytic model.

    Returns a flat metrics dict (plus the Fig. 16c-style ``bottlenecks`` time
    shares).  ``layer_stride`` > 1 subsamples the workload's layers — the
    cheap proxy the successive-halving driver ranks candidates with.

    :func:`explore` evaluates through the batched
    :func:`~repro.dse.batch.evaluate_points`; this one-point reference
    (layers outer, passes inner, running float sums) is the oracle the
    batched path must reproduce bit for bit.
    """
    gpu = point.option.apply(base_gpu)
    model = DeltaModel(gpu, cta_tile_hw=point.option.cta_tile_hw)
    layers = _workload_layers(point.network, point.batch, point.dtype_bytes,
                              unique)
    if layer_stride > 1:
        layers = layers[::layer_stride] or layers[:1]
    pass_kinds = expand_passes(point.passes)
    estimates = []
    for layer in layers:
        if pass_kinds == ("forward",):
            estimates.append(model.estimate(layer))
        else:
            for pass_kind in pass_kinds:
                estimates.append(model.estimate_pass(layer, pass_kind))
    total = sum(est.time_seconds for est in estimates)
    shares: Counter = Counter()
    for est in estimates:
        # zero-time estimates carry no share; including them would add a
        # spurious zero-share bottleneck category.
        if est.time_seconds <= 0:
            continue
        shares[est.bottleneck] += est.time_seconds
    bottlenecks = ({key.value: value / total for key, value in shares.items()}
                   if total > 0 else {})
    flops = sum(est.workload.flops for est in estimates)
    dram_bytes = sum(est.traffic.dram_bytes for est in estimates)
    l2_bytes = sum(est.traffic.l2_bytes for est in estimates)
    return {
        "time_s": total,
        "throughput_tflops": (flops / total / 1e12) if total > 0 else 0.0,
        "dram_gb": dram_bytes / 1e9,
        "l2_gb": l2_bytes / 1e9,
        "resource_cost": design_cost(point.option),
        "layers": len(layers),
        "gemms": len(estimates),
        "bottlenecks": bottlenecks,
    }


def _evaluate_batch_task(task) -> List[Dict[str, object]]:
    """Process-pool worker: evaluate one chunk of points as a batch.

    Fires the per-point fault sites first, then evaluates the whole chunk
    through the array-of-points path.
    """
    base_gpu, points, unique = task
    if faults.active():
        for point in points:
            faults.fire("dse", f"{point.name}/{point.network}/b{point.batch}")
    return evaluate_points(base_gpu, points, unique=unique)


def _proxy_batch_task(task) -> List[Dict[str, object]]:
    """Process-pool worker: one chunk of layer-subsampled proxy evaluations."""
    base_gpu, points, unique = task
    if faults.active():
        for point in points:
            faults.fire(
                "dse", f"proxy:{point.name}/{point.network}/b{point.batch}")
    return evaluate_points(base_gpu, points, unique=unique, layer_stride=4)


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

def _resilience_kwargs(jobs: Optional[int], timeout: Optional[float],
                       retries: Optional[int]) -> Dict[str, object]:
    kwargs: Dict[str, object] = {"jobs": jobs, "return_failures": True}
    if timeout is not None:
        kwargs["timeout"] = timeout
    if retries is not None:
        kwargs["retries"] = retries
    return kwargs


def _evaluate_batch_local(base_gpu: GpuSpec, points: Sequence[DesignPoint],
                          unique: bool,
                          lines_out: Optional[List[Optional[str]]] = None
                          ) -> List[object]:
    """In-process batched evaluation with per-point failure isolation.

    Fault sites fire per point before the batch call so an injected error
    poisons only its own point; if the batch evaluation itself fails, the
    chunk is re-run one point at a time so one bad point cannot take down
    its neighbours.

    ``lines_out`` (a per-point list, parallel to ``points``) collects the
    batch path's pre-serialized store lines; indices the batch could not
    serialize (fault injection, per-point fallback) stay ``None``.
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
            good_points = (points if len(good) == len(points)
                           else [points[i] for i in good])
            if lines_out is None:
                fresh: List[object] = evaluate_points(
                    base_gpu, good_points, unique=unique)
            else:
                fresh, fresh_lines = evaluate_points(
                    base_gpu, good_points, unique=unique, serialize=True)
                if len(good) == len(points):
                    lines_out[:] = fresh_lines
                else:
                    for i, line in zip(good, fresh_lines):
                        lines_out[i] = line
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


def _map_evaluations_batched(session, jobs: Optional[int],
                             base_gpu: GpuSpec,
                             points: Sequence[DesignPoint], unique: bool,
                             timeout: Optional[float],
                             retries: Optional[int],
                             lines_out: Optional[List[Optional[str]]] = None
                             ) -> List[object]:
    """Batched evaluation fan-out with chunk-level crash isolation.

    Chunks go through the session pool as single tasks; a chunk that fails
    (e.g. one point crashes the worker) is retried one point per task so
    only the genuinely bad point surfaces as a failure.
    """
    if session is None:
        return _evaluate_batch_local(base_gpu, points, unique, lines_out)
    kwargs = _resilience_kwargs(jobs, timeout, retries)
    chunks = [tuple(points[start:start + BATCH_CHUNK])
              for start in range(0, len(points), BATCH_CHUNK)]
    chunk_tasks = [(base_gpu, chunk, unique) for chunk in chunks]
    chunk_outcomes = session.map_tasks(_evaluate_batch_task, chunk_tasks,
                                       isolate=True, **kwargs)
    outcomes: List[object] = []
    for chunk, outcome in zip(chunks, chunk_outcomes):
        if isinstance(outcome, TaskFailure):
            tasks = [(base_gpu, (point,), unique) for point in chunk]
            outcomes.extend(
                single if isinstance(single, TaskFailure) else single[0]
                for single in session.map_tasks(_evaluate_batch_task, tasks,
                                                isolate=True, **kwargs))
        else:
            outcomes.extend(outcome)
    return outcomes


def _score_proxy_batched(session, jobs: Optional[int], base_gpu: GpuSpec,
                         points: Sequence[DesignPoint],
                         unique: bool) -> List[Dict[str, object]]:
    """Batched proxy scoring for successive halving rungs.

    Proxy failures propagate: the proxy only ranks candidates, so there is
    no per-point isolation (``map_tasks`` without ``return_failures``).
    """
    if session is None:
        return _proxy_batch_task((base_gpu, points, unique))
    chunk_tasks = [(base_gpu, tuple(points[start:start + BATCH_CHUNK]),
                    unique)
                   for start in range(0, len(points), BATCH_CHUNK)]
    chunk_results = session.map_tasks(_proxy_batch_task, chunk_tasks,
                                      jobs=jobs, isolate=True)
    return [metrics for chunk in chunk_results for metrics in chunk]


def explore(space: SearchSpace, *, driver=None, base_gpu: GpuSpec = TITAN_XP,
            objectives: Sequence[object] = DEFAULT_OBJECTIVE_NAMES,
            store: Optional[ResultStore] = None, session=None,
            jobs: Optional[int] = None, unique: bool = True,
            include_baseline: bool = True, timeout: Optional[float] = None,
            retries: Optional[int] = None) -> Exploration:
    """Run one design-space exploration end to end.

    ``session`` supplies process-pool parallelism and the cross-request
    in-memory memo; ``store`` adds on-disk resumability.  Either (or both)
    may be omitted for a serial, stateless sweep.  ``timeout``/``retries``
    override the session's resilience policy for the per-point evaluations.

    Points are evaluated in whole rungs through the vectorized
    array-of-points path (:mod:`repro.dse.batch`), bit-identical to the
    scalar :func:`evaluate_point` oracle.

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
                    fresh = _score_proxy_batched(session, jobs, base_gpu,
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
            signature = _signature_of(point)
            if signature not in baseline_points:
                baseline_points[signature] = point.baseline_point()

    all_points = list(points) + list(baseline_points.values())
    keys, descriptors = store_keys(base_gpu, all_points, unique)

    records: Dict[str, Dict[str, object]] = {}
    cached_keys = set()
    #: (key, descriptor_json, point) triples awaiting evaluation — the
    #: descriptor rides along so the store batch needs no key->json dict.
    pending: List[Tuple[str, str, DesignPoint]] = []
    pending_keys = set()
    # plain-int counters in the loop; folded into the registry-backed
    # stats once at the end (a counter write per point is measurable).
    memo_hits = store_hits = skipped_failures = 0
    if session is None and (store is None or len(store) == 0):
        # nothing to look up (cold sweep): just dedupe the plan.
        if len(set(keys)) == len(keys):
            # no duplicates: the plan is the pending list, zipped at C speed.
            pending = list(zip(keys, descriptors, all_points))
        else:
            for key, descriptor, point in zip(keys, descriptors, all_points):
                if key not in pending_keys:
                    pending.append((key, descriptor, point))
                    pending_keys.add(key)
    else:
        for key, descriptor, point in zip(keys, descriptors, all_points):
            if key in records or key in pending_keys:
                continue
            memoized = (session.dse_lookup(key) if session is not None
                        else None)
            if memoized is not None:
                records[key] = memoized
                cached_keys.add(key)
                memo_hits += 1
                if is_failure_record(memoized):
                    skipped_failures += 1
                continue
            stored = store.get(key) if store is not None else None
            if stored is not None:
                records[key] = stored
                cached_keys.add(key)
                store_hits += 1
                if is_failure_record(stored):
                    skipped_failures += 1
                if session is not None:
                    session.dse_record(key, stored)
                continue
            pending.append((key, descriptor, point))
            pending_keys.add(key)
    stats.memo_hits += memo_hits
    stats.store_hits += store_hits
    stats.skipped_failures += skipped_failures

    if pending:
        # the batch path pre-serializes store lines while it still knows the
        # group structure — only worth collecting when a store is attached.
        lines_out: Optional[List[Optional[str]]] = (
            [None] * len(pending) if store is not None else None)
        with obs_spans.trace("dse.evaluate", points=len(pending),
                             memo_hits=stats.memo_hits,
                             store_hits=stats.store_hits):
            fresh = _map_evaluations_batched(
                session, jobs, base_gpu,
                [point for _, _, point in pending], unique,
                timeout, retries, lines_out)
        store_batch: List[Tuple[str, str, Dict[str, object],
                                Optional[str]]] = []
        store_append = store_batch.append
        evaluated = failed = 0
        for pos, ((key, descriptor, point), outcome) in enumerate(
                zip(pending, fresh)):
            if isinstance(outcome, TaskFailure):
                record: Dict[str, object] = {FAILURE_FIELD: outcome.as_record()}
                failed += 1
            else:
                record = outcome
                evaluated += 1
            records[key] = record
            if store is not None:
                store_append((key, descriptor, record, lines_out[pos]))
            if session is not None:
                session.dse_record(key, record)
        stats.evaluated += evaluated
        stats.failed += failed
        if store is not None:
            store.put_many(store_batch)
    if session is not None:
        session.stats.dse_points += stats.evaluated

    results_list: List[PointResult] = []
    failures_list: List[PointFailure] = []
    # bypass the frozen-dataclass __init__ (one object.__setattr__ per
    # field) — these loops run once per planned point.
    new_result = object.__new__
    fill_result = object.__setattr__
    results_append = results_list.append
    if not cached_keys and stats.failed == 0 and stats.skipped_failures == 0:
        # cold all-success sweep: no failure records exist anywhere and no
        # key was cached, so skip both per-point checks.
        for point, key in zip(points, keys):
            result = new_result(PointResult)
            fill_result(result, "__dict__", {
                "point": point, "key": key, "metrics": records[key],
                "cached": False, "confirmation": None})
            results_append(result)
    else:
        for point, key in zip(points, keys[: len(points)]):
            record = records[key]
            if is_failure_record(record):
                failures_list.append(PointFailure(
                    point=point, key=key,
                    failure=TaskFailure.from_record(record[FAILURE_FIELD]),
                    cached=key in cached_keys))
            else:
                result = new_result(PointResult)
                fill_result(result, "__dict__", {
                    "point": point, "key": key, "metrics": record,
                    "cached": key in cached_keys, "confirmation": None})
                results_append(result)
    results = tuple(results_list)
    baselines = {}
    for index, (signature, point) in enumerate(baseline_points.items()):
        key = keys[len(points) + index]
        record = records[key]
        if is_failure_record(record):
            failures_list.append(PointFailure(
                point=point, key=key,
                failure=TaskFailure.from_record(record[FAILURE_FIELD]),
                cached=key in cached_keys))
            continue
        baselines[signature] = PointResult(point=point, key=key,
                                           metrics=record,
                                           cached=key in cached_keys)
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
                                  point.dtype_bytes, unique=True)
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
