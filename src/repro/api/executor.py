"""Execute typed requests against a session.

Three responsibilities live here:

* **adaptation** — mapping the uniform override fields of an
  :class:`ExperimentRequest` (gpus/networks/batch/scale) onto each registered
  experiment's ``run`` signature, rejecting overrides an experiment cannot
  honor instead of silently ignoring them;
* **planning** — computing the simulation work units (gpu, layer, simulator
  config) a request will need, so :func:`execute_many` can dedupe identical
  units across a batch and fan the union out over the session's shared
  process pool exactly once; and
* **execution** — running each request and packaging the outcome as a
  :class:`repro.api.Report`.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence

from ..analysis.validation import (MEMORY_LEVELS, QUICK_VALIDATION,
                                   ValidationConfig, select_layers)
from ..core.model import DeltaModel
from ..core.training import estimate_training_step
from ..experiments.registry import ExperimentSpec, get_experiment_spec
from ..gpu.devices import get_device
from ..networks.registry import get_network
from ..obs import spans as obs_spans
from ..resilience import SessionClosedError
from .progress import emit_progress
from .report import Report
from .requests import (DseRequest, EstimateRequest, ExperimentRequest,
                       Request, SweepRequest, ValidateRequest)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import Session, SimUnit


# ----------------------------------------------------------------------
# Single-request execution
# ----------------------------------------------------------------------

def execute(session: "Session", request: Request) -> Report:
    """Run one request under ``session`` and return its report.

    Every request runs under a root span (a private shallow tracer is
    installed when none is active, so this is always on and cheap); the
    resulting per-phase wall-clock breakdown is attached as
    ``report.meta["timing"]`` and observed in the session's latency
    histogram.  Compare reports with :meth:`Report.content_dict` /
    ``content_json`` to ignore this volatile block.
    """
    kind = type(request).__name__
    with obs_spans.request_trace(f"request:{kind}", request=kind) as rt:
        if isinstance(request, EstimateRequest):
            report = _run_estimate(session, request)
        elif isinstance(request, SweepRequest):
            with obs_spans.trace("model.sweep",
                                 combinations=(len(request.gpus)
                                               * len(request.networks)
                                               * len(request.batches))):
                report = _run_sweep(session, request)
        elif isinstance(request, ValidateRequest):
            report = _run_validate(session, request)
        elif isinstance(request, ExperimentRequest):
            report = _run_experiment(session, request)
        elif isinstance(request, DseRequest):
            report = _run_dse(session, request)
        else:
            raise TypeError(
                f"unsupported request type {type(request).__name__}")
        session.stats.requests_run += 1
    timing = rt.timing()
    report.meta["timing"] = timing
    session.stats.observe_request(kind, timing["total_ms"] / 1e3)
    return report


def execute_many(session: "Session", requests: Sequence[Request]) -> List[Report]:
    """Run a batch of requests, deduping shared simulation work units.

    The union of every request's planned units runs first — once per unique
    unit, across the session's shared process pool — so a sweep over many
    experiments re-simulates nothing that any other request in the batch
    (or an earlier batch on the same session) already covers.

    Failures are isolated per request: a request that raises — at planning,
    simulation or execution time — yields a ``Report(kind="error")`` in its
    slot while every other request's report is produced normally.  (Asking a
    closed session still raises :class:`SessionClosedError`: that is caller
    misuse, not a request failure.)
    """
    requests = list(requests)
    with obs_spans.trace("plan", requests=len(requests)):
        units = plan_simulation_units(session, requests)
    if units:
        # strict=False: every unit that can complete is memoized; a failing
        # unit surfaces when (only) the request that needs it executes.
        session.simulate_many(units, strict=False)
    reports: List[Report] = []
    for request in requests:
        started = time.perf_counter()
        try:
            reports.append(execute(session, request))
        except SessionClosedError:
            raise
        except Exception as exc:
            report = Report.from_error(
                exc, request=request, meta=_base_meta(session, request))
            report.meta["timing"] = obs_spans.elapsed_timing(started)
            reports.append(report)
    return reports


def _base_meta(session: "Session", request: Request) -> Dict[str, object]:
    meta: Dict[str, object] = {
        "request": type(request).__name__,
        "jobs": session.jobs,
        "precision": session.precision,
    }
    if session.sim_cache_dir:
        meta["sim_cache_dir"] = str(session.sim_cache_dir)
    return meta


# ----------------------------------------------------------------------
# Estimate / sweep (pure model, no simulation)
# ----------------------------------------------------------------------

def _estimate_rows(model: DeltaModel, layers,
                   pass_kinds=("forward",)) -> List[Dict[str, object]]:
    """Report rows of every (layer, pass); no ``pass`` column when the
    passes are forward only."""
    if not layers:
        return []
    step = estimate_training_step(model, layers, passes=pass_kinds)
    return step.rows(with_pass=tuple(pass_kinds) != ("forward",))


def _dominant_bottleneck(bottlenecks) -> str:
    """The most frequent bottleneck (ties: the first seen), or ``n/a``."""
    counts = Counter(bottlenecks)
    return counts.most_common(1)[0][0] if counts else "n/a"


def _run_estimate(session: "Session", request: EstimateRequest) -> Report:
    gpu = get_device(request.gpu)
    network = get_network(request.network, batch=request.batch,
                          paper_subset=request.paper_subset)
    layers = (network.unique_layers() if request.unique
              else network.gemm_layers())
    model = DeltaModel(gpu)
    pass_kinds = request.pass_kinds
    with obs_spans.trace("model.estimate", layers=len(layers),
                         passes=request.passes):
        if request.passes == "training":
            step = estimate_training_step(model, layers, batch=request.batch,
                                          passes=pass_kinds,
                                          name=network.name)
            rows = step.rows()
            summary = step.summary()
            summary["dominant bottleneck"] = _dominant_bottleneck(
                row["bottleneck"] for row in rows)
            title = (f"{network.name} training step on {gpu.name} "
                     f"(batch {request.batch})")
        else:
            rows = _estimate_rows(model, layers, pass_kinds)
            summary = {
                "total conv time (ms)": sum(row["time_ms"] for row in rows),
                "layers": len(rows),
                "dominant bottleneck": _dominant_bottleneck(
                    row["bottleneck"] for row in rows),
            }
            title = f"{network.name} on {gpu.name} (batch {request.batch})"
            if request.passes != "forward":
                title = (f"{network.name} {request.passes} pass on "
                         f"{gpu.name} (batch {request.batch})")
    meta = _base_meta(session, request)
    meta.update({"network": network.name, "gpu": gpu.name,
                 "batch": request.batch, "unique": request.unique,
                 "paper_subset": request.paper_subset,
                 "passes": request.passes})
    return Report(kind="estimate", title=title,
                  rows=tuple(rows), summary=summary, meta=meta)


def _run_sweep(session: "Session", request: SweepRequest) -> Report:
    rows: List[Dict[str, object]] = []
    series: Dict[str, list] = {}
    pass_kinds = request.pass_kinds
    scope = ("conv" if request.passes == "forward"
             else f"{request.passes} conv")
    combinations = (len(request.gpus) * len(request.networks)
                    * len(request.batches))
    for gpu_name in request.gpus:
        gpu = get_device(gpu_name)
        model = DeltaModel(gpu)
        for network_name in request.networks:
            for batch in request.batches:
                network = get_network(network_name, batch=batch,
                                      paper_subset=request.paper_subset)
                layers = (network.unique_layers() if request.unique
                          else network.gemm_layers())
                if not layers:
                    raise ValueError(
                        f"network {network.name!r} has no GEMM layers to "
                        f"sweep at batch {batch}"
                        + (" in the paper subset" if request.paper_subset
                           else ""))
                step = estimate_training_step(model, layers,
                                              passes=pass_kinds)
                total_ms = sum(step.column("time_ms"))
                row: Dict[str, object] = {
                    "network": network.name,
                    "gpu": gpu.name,
                    "batch": batch,
                }
                if request.passes != "forward":
                    row["passes"] = request.passes
                row.update({
                    "layers": len(layers),
                    "total_time_ms": total_ms,
                    "dram_gb": sum(step.column("DRAM_GB")),
                    "dominant_bottleneck": _dominant_bottleneck(
                        step.column("bottleneck")),
                })
                rows.append(row)
                series.setdefault(
                    f"{network.name} {scope} time on {gpu.name} (ms)", []
                ).append((batch, total_ms))
                emit_progress(stage="sweep", done=len(rows),
                              total=combinations, network=network.name,
                              gpu=gpu.name, batch=batch)
    fastest = min(rows, key=lambda row: row["total_time_ms"])
    summary = {
        "combinations": len(rows),
        "networks": ", ".join(request.networks),
        "gpus": ", ".join(request.gpus),
        "batches": ", ".join(str(batch) for batch in request.batches),
        "passes": request.passes,
        "fastest combination": (f"{fastest['network']}/{fastest['gpu']}"
                                f"/b{fastest['batch']}"),
    }
    meta = _base_meta(session, request)
    meta["passes"] = request.passes
    return Report(kind="sweep",
                  title=(f"model sweep: {len(request.networks)} networks x "
                         f"{len(request.gpus)} GPUs x "
                         f"{len(request.batches)} batch sizes"
                         + ("" if request.passes == "forward"
                            else f" ({request.passes} passes)")),
                  rows=tuple(rows), series={k: tuple(v) for k, v in series.items()},
                  summary=summary, meta=meta)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def _validation_config(request: ValidateRequest) -> ValidationConfig:
    return ValidationConfig(batch=request.batch, max_ctas=request.max_ctas,
                            layers_per_network=request.layers_per_network,
                            networks=request.networks)


def _run_validate(session: "Session", request: ValidateRequest) -> Report:
    gpu = get_device(request.gpu)
    config = _validation_config(request)
    validation = session.validation_report(gpu, config)
    summary: Dict[str, object] = {}
    for level in MEMORY_LEVELS:
        stats = validation.traffic_summary(level)
        summary[f"{level} traffic GMAE"] = stats.gmae
        summary[f"{level} traffic mean ratio"] = stats.mean_ratio
    time_stats = validation.time_summary()
    summary["time GMAE"] = time_stats.gmae
    summary["time mean ratio"] = time_stats.mean_ratio
    meta = _base_meta(session, request)
    meta.update({"gpu": gpu.name, "batch": config.batch,
                 "max_ctas": config.max_ctas,
                 "layers_per_network": config.layers_per_network,
                 "networks": list(config.networks) if config.networks else None})
    title = (f"model-vs-simulator validation on {gpu.name} "
             f"(batch {config.batch}, max CTAs {config.max_ctas}, "
             f"{len(validation.records)} layers)")
    return Report(kind="validation", title=title,
                  rows=tuple(validation.rows()), summary=summary, meta=meta)


# ----------------------------------------------------------------------
# Design-space exploration
# ----------------------------------------------------------------------

def _run_dse(session: "Session", request: DseRequest) -> Report:
    from ..analysis.frontier import resolve_objectives, scale_next_rows
    from ..dse.drivers import build_driver
    from ..dse.runner import confirm_frontier, explore
    from ..dse.store import ResultStore

    base_gpu = get_device(request.gpu)
    driver = build_driver(request.driver, budget=request.budget,
                          seed=request.seed)
    objectives = resolve_objectives(request.objectives)
    store = ResultStore(request.store_path) if request.store_path else None
    try:
        exploration = explore(request.space, driver=driver, base_gpu=base_gpu,
                              objectives=objectives, store=store,
                              session=session, unique=request.unique)
    finally:
        if store is not None:
            store.close()
    if request.confirm_top:
        exploration = confirm_frontier(exploration, session,
                                       top=request.confirm_top)

    rows = exploration.frontier_rows()
    frontier = exploration.frontier_results()
    stats = exploration.stats
    summary: Dict[str, object] = {
        "points planned": stats.planned,
        "points evaluated": stats.evaluated,
        "memo hits": stats.memo_hits,
        "store hits": stats.store_hits,
        "frontier size": len(exploration.frontier),
    }
    if stats.proxy_evaluations:
        summary["proxy evaluations"] = stats.proxy_evaluations
    if exploration.failures:
        summary["failed points"] = len(exploration.failures)
        if stats.skipped_failures:
            summary["failures skipped on resume"] = stats.skipped_failures
    for objective in objectives:
        best = None
        for result in frontier:
            value = float(result.metrics[objective.metric])
            if best is None or objective.oriented(value) > objective.oriented(best[1]):
                best = (result.point.name, value)
        if best is not None:
            summary[f"best {objective.name}"] = f"{best[0]} ({best[1]:.4g})"
    series = {
        "frontier: cost vs speedup": [
            (row["cost"], row["speedup"]) for row in rows if "speedup" in row
        ],
    }
    recommendations = scale_next_rows(
        [result.metrics for result in frontier])
    children: tuple = ()
    if recommendations:
        children = (Report(kind="dse-recommendations",
                           title="what to scale next (time-weighted "
                                 "bottleneck shares across the frontier)",
                           rows=tuple(recommendations)),)
    if exploration.failures:
        children = children + (Report(
            kind="dse-failures",
            title=(f"{len(exploration.failures)} design point(s) failed "
                   "(error-isolated; recorded in the store and skipped on "
                   "resume)"),
            rows=tuple(exploration.failure_rows())),)
    meta = _base_meta(session, request)
    meta.update({
        "gpu": base_gpu.name,
        "driver": request.driver,
        "budget": request.budget,
        "seed": request.seed,
        "objectives": list(request.objectives),
        "unique": request.unique,
        "space_size": len(request.space),
    })
    if request.store_path:
        meta["store_path"] = str(request.store_path)
    title = (f"design-space exploration on {base_gpu.name}: "
             f"{stats.planned} points ({request.driver} driver), "
             f"{len(exploration.frontier)}-point Pareto frontier over "
             f"{'/'.join(request.objectives)}")
    return Report(kind="dse", title=title, rows=tuple(rows),
                  series={name: tuple(pairs) for name, pairs in series.items()
                          if pairs},
                  summary=summary, meta=meta, children=children)


# ----------------------------------------------------------------------
# Experiments: signature adaptation + planning
# ----------------------------------------------------------------------

def _single(spec: ExperimentSpec, field: str, values: Sequence[str]) -> str:
    if len(values) != 1:
        raise ValueError(
            f"experiment {spec.experiment_id!r} accepts a single {field[:-1]} "
            f"override, got {list(values)}")
    return values[0]


def experiment_kwargs(spec: ExperimentSpec, request: ExperimentRequest,
                      session: "Session") -> Dict[str, object]:
    """Map a request's override fields onto the runner's signature."""
    params = inspect.signature(spec.runner).parameters
    kwargs: Dict[str, object] = {}
    for key, value in request.options.items():
        if key not in params:
            raise TypeError(
                f"experiment {spec.experiment_id!r} does not accept option "
                f"{key!r}; its run() parameters are {sorted(params)}")
        kwargs[key] = value
    if "session" in params:
        kwargs.setdefault("session", session)

    config_overrides: Dict[str, object] = {}
    if request.gpus:
        specs = [get_device(name) for name in request.gpus]
        if "devices" in params:
            kwargs.setdefault("devices", specs)
        elif "gpu" in params:
            kwargs.setdefault("gpu", get_device(_single(spec, "gpus", request.gpus)))
        elif "baseline" in params:
            kwargs.setdefault("baseline",
                              get_device(_single(spec, "gpus", request.gpus)))
        else:
            raise ValueError(
                f"experiment {spec.experiment_id!r} does not support GPU overrides")
        if "baseline_gpu" in params:
            kwargs.setdefault("baseline_gpu", specs[0])
    if request.networks:
        if "network" in params:
            kwargs.setdefault("network", _single(spec, "networks", request.networks))
        elif "config" in params:
            config_overrides["networks"] = request.networks
        else:
            raise ValueError(
                f"experiment {spec.experiment_id!r} does not support network "
                f"overrides")
    if request.batch is not None:
        if "batch" in params:
            kwargs.setdefault("batch", request.batch)
        elif "config" in params:
            config_overrides["batch"] = request.batch
        else:
            raise ValueError(
                f"experiment {spec.experiment_id!r} does not support batch "
                f"overrides")
    if request.max_ctas is not None:
        if "max_ctas" in params:
            kwargs.setdefault("max_ctas", request.max_ctas)
        elif "config" in params:
            config_overrides["max_ctas"] = request.max_ctas
        else:
            raise ValueError(
                f"experiment {spec.experiment_id!r} does not support max_ctas "
                f"overrides")
    if request.layers_per_network is not None:
        if "config" in params:
            config_overrides["layers_per_network"] = request.layers_per_network
        else:
            raise ValueError(
                f"experiment {spec.experiment_id!r} does not support "
                f"layers_per_network overrides")
    if config_overrides:
        base = kwargs.get("config", QUICK_VALIDATION)
        kwargs["config"] = replace(base, **config_overrides)
    return kwargs


def _run_experiment(session: "Session", request: ExperimentRequest) -> Report:
    spec = get_experiment_spec(request.experiment)
    kwargs = experiment_kwargs(spec, request, session)
    result = spec.runner(**kwargs)
    meta = _base_meta(session, request)
    meta["experiment_id"] = spec.experiment_id
    overrides = {key: value for key, value in (
        ("gpus", list(request.gpus) if request.gpus else None),
        ("networks", list(request.networks) if request.networks else None),
        ("batch", request.batch),
        ("max_ctas", request.max_ctas),
        ("layers_per_network", request.layers_per_network),
    ) if value is not None}
    if overrides:
        meta["overrides"] = overrides
    return Report.from_experiment(result, meta=meta)


def plan_simulation_units(session: "Session",
                          requests: Iterable[Request]) -> List["SimUnit"]:
    """The deduped union of simulation work units across a request batch.

    Only requests backed by the shared validation harness are plannable;
    anything else simply runs its (possibly simulation-free) work inline.
    A request whose planning raises (unknown network, bad override, ...)
    contributes no units — the error resurfaces, isolated, when that request
    executes.
    """
    units: List["SimUnit"] = []
    seen = set()
    for request in requests:
        try:
            for unit in _request_units(session, request):
                if unit not in seen:
                    seen.add(unit)
                    units.append(unit)
        except Exception:
            continue
    return units


def _request_units(session: "Session", request: Request) -> Iterator["SimUnit"]:
    if isinstance(request, ValidateRequest):
        gpus = [get_device(request.gpu)]
        config = _validation_config(request)
    elif isinstance(request, ExperimentRequest):
        spec = get_experiment_spec(request.experiment)
        if not spec.uses_validation:
            return
        kwargs = experiment_kwargs(spec, request, session)
        config = kwargs.get("config", QUICK_VALIDATION)
        # derive the GPUs from the fully adapted kwargs so overrides passed
        # through ``options`` (not just request.gpus) plan the right work.
        if "devices" in kwargs:
            gpus = list(kwargs["devices"])
        elif "gpu" in kwargs:
            gpus = [kwargs["gpu"]]
        elif "baseline" in kwargs:
            gpus = [kwargs["baseline"]]
        else:
            gpus = [get_device(name) for name in spec.default_gpus]
        baseline_gpu = kwargs.get("baseline_gpu")
        if baseline_gpu is not None and baseline_gpu not in gpus:
            gpus.append(baseline_gpu)
    else:
        return
    sim_config = config.simulator_config()
    population = select_layers(config)
    for gpu in gpus:
        for _, layer in population:
            yield (gpu, layer, sim_config)
