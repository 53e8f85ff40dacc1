"""Session: context-local execution policy and shared simulation state.

A :class:`Session` owns everything that used to live in process-global
mutable state: how many worker processes per-layer simulations fan out over
(``jobs``), where simulator results persist on disk (``sim_cache_dir``), the
default decimal precision of rendered reports (``precision``), and the
resilience policy for fan-out execution (``timeout`` / ``retries`` /
``retry_backoff``).  Requests, :meth:`Session.map_tasks` and
:func:`repro.dse.explore` take no timeout, retries or jobs of their own.
On top of the policy it keeps two in-memory result stores so that many
requests executed against the same session share work:

* a simulation memo keyed by ``(gpu, layer, simulator config)`` — the unit of
  work the batch executor dedupes across requests, and
* a validation-report memo so every experiment that consumes the same
  model-vs-measured records (Fig. 11-15, 19, 20) reuses one run.

Fan-out execution is *fault tolerant*: a worker-process crash
(``BrokenProcessPool``) relaunches the pool and retries only the unfinished
work units with bounded exponential backoff, a per-unit wall-clock timeout
cancels stragglers and records them as structured :class:`TaskFailure`
records instead of hanging forever, and ordinary task exceptions are captured
inside the worker so one bad unit never poisons the round it rides on.  See
DESIGN.md, "Failure semantics".

The *active* session is context-local (:func:`current_session` /
:func:`use_session`), so concurrent scenarios in different threads or asyncio
tasks never observe each other's settings.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (BrokenExecutor, CancelledError,
                                ProcessPoolExecutor)
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.validation import (
    QUICK_VALIDATION,
    ValidationConfig,
    ValidationReport,
    _simulate_task,
    select_layers,
    validation_records,
)
from ..core.layer import LayerConfig
from ..core.workload import PassKind
from ..dse.batch import MetricTable
from ..dse.store import ResultStore
from ..gpu.spec import GpuSpec
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..resilience import (
    SessionClosedError,
    SimulationError,
    TaskError,
    TaskFailure,
    backoff_delay,
    check_timeout,
    run_chunk,
)
from ..sim.engine import SimResult, SimulatorConfig
from .progress import emit_progress

#: one simulation work unit: everything that determines a SimResult.
#: ``(gpu, layer, config)`` simulates the forward pass; a trailing pass kind
#: selects a backward-pass GEMM: ``(gpu, layer, config, "wgrad")``.
SimUnit = Tuple[GpuSpec, LayerConfig, SimulatorConfig]


def _normalize_unit(unit) -> Tuple[GpuSpec, LayerConfig,
                                   SimulatorConfig, PassKind]:
    """Pad a 3-element unit with the forward pass kind."""
    if len(unit) == 3:
        gpu, layer, config = unit
        return gpu, layer, config, "forward"
    gpu, layer, config, pass_kind = unit
    return gpu, layer, config, pass_kind


def _unit_key(unit) -> Tuple:
    """Dedupe identity of one work unit.

    Built on :meth:`ConvLayerConfig.structural_key` — the same identity the
    network unique-layer dedupe uses — plus the pass kind, so two layers that
    differ only in name (or two requests asking for the same structure) share
    one simulation.
    """
    gpu, layer, config, pass_kind = _normalize_unit(unit)
    return (gpu, layer.structural_key(), config, pass_kind)


def _describe_unit(unit) -> str:
    gpu, layer, _config, pass_kind = _normalize_unit(unit)
    return f"{gpu.name}/{layer.name}/{pass_kind}"


class SessionStats(obs_metrics.StatsView):
    """Counters describing what a session actually executed.

    A registry-backed view (:class:`repro.obs.metrics.StatsView`): each
    field reads and writes a ``repro_session_*`` counter in the
    per-session ``stats.registry``, which the server merges into its
    ``GET /metrics`` exposition.  The attribute API is unchanged.
    """

    _AREA = "session"
    _FIELDS = {
        "sim_tasks":
            "simulation tasks dispatched (after in-memory dedup)",
        "sim_memo_hits":
            "simulation units answered from the session's in-memory store",
        "sim_cache_hits":
            "simulations answered from the on-disk sim cache",
        "sim_cache_misses":
            "on-disk sim cache lookups that had to simulate",
        "pool_launches":
            "process pools created; a session reuses one pool across batches",
        "pool_recoveries":
            "pools killed and relaunched after a worker crash or "
            "straggler timeout",
        "requests_run":
            "requests executed through Session.run / Session.run_many",
        "dse_points":
            "design-space points evaluated (after memo/store dedupe)",
        "dse_memo_hits":
            "design-space points answered from the session's in-memory memo",
        "task_retries":
            "work-unit executions retried (after a task error or "
            "worker crash)",
        "task_failures":
            "work units that ended in a structured failure after all retries",
        "task_timeouts":
            "work units cancelled for exceeding the wall-clock timeout",
    }

    def observe_request(self, kind: str, seconds: float) -> None:
        """Record one request's end-to-end latency, labeled by kind."""
        self.registry.histogram(
            "repro_session_request_seconds",
            "end-to-end request latency by request kind",
            labels={"kind": kind}).observe(seconds)

    def fold_counters(self, counters: Dict[str, int]) -> None:
        """Add context-local counter totals (serial path or a worker
        chunk's piggybacked telemetry) into the matching fields."""
        for name, value in counters.items():
            if name in self._counters and value:
                self._counters[name].value += value


class Session:
    """Execution scope for estimates, validations and experiments.

    Sessions are thread-safe and reusable; use one per logical scenario (or
    one per process) and route every request through it::

        with Session(jobs=4, sim_cache_dir="~/.cache/delta-repro") as session:
            report = session.run(ExperimentRequest("fig11"))
            print(report.to_json(indent=2))

    ``timeout`` (seconds, ``None`` = unbounded) bounds each work unit's wall
    clock; ``retries`` bounds how many times a unit is re-executed after a
    worker crash or a task error; ``retry_backoff`` is the base of the
    bounded exponential delay between retry rounds.
    """

    def __init__(self, jobs: int = 1, sim_cache_dir: Optional[str] = None,
                 precision: int = 3,
                 timeout: Optional[float] = None, retries: int = 2,
                 retry_backoff: float = 0.1) -> None:
        self._lock = threading.RLock()
        #: memoized results keyed by the unit's structural identity
        #: (gpu, layer.structural_key(), simulator config, pass kind).
        self._sim_results: Dict[Tuple, SimResult] = {}
        self._validation_memo: Dict[Tuple[GpuSpec, ValidationConfig],
                                    ValidationReport] = {}
        #: design-space evaluation memo keyed by the DSE store key: a
        #: path-less result store (cross-request dedupe within one session,
        #: no disk required), looked up in bulk like the on-disk one.
        self._dse_memo = ResultStore()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        #: pools replaced by a grow; shut down at close() so in-flight work
        #: on them is never interrupted.
        self._retired_pools: List[ProcessPoolExecutor] = []
        self._closed = False
        self.stats = SessionStats()
        self.jobs = jobs
        self.sim_cache_dir = sim_cache_dir
        self.precision = precision
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff

    # -- policy ---------------------------------------------------------

    @property
    def jobs(self) -> int:
        """Worker processes for per-layer simulations (1 = serial)."""
        return self._jobs

    @jobs.setter
    def jobs(self, value: int) -> None:
        if value is None or value <= 0:
            raise ValueError("jobs must be positive")
        self._jobs = int(value)

    @property
    def precision(self) -> int:
        """Default decimal places of rendered reports."""
        return self._precision

    @precision.setter
    def precision(self, value: int) -> None:
        if value is None or value < 0:
            raise ValueError("precision must be non-negative")
        self._precision = int(value)

    @property
    def timeout(self) -> Optional[float]:
        """Per-work-unit wall-clock timeout in seconds (None = unbounded)."""
        return self._timeout

    @timeout.setter
    def timeout(self, value: Optional[float]) -> None:
        self._timeout = check_timeout(value)

    @property
    def retries(self) -> int:
        """Extra executions allowed per work unit after a crash or error."""
        return self._retries

    @retries.setter
    def retries(self, value: int) -> None:
        if value is None or value < 0:
            raise ValueError("retries must be non-negative")
        self._retries = int(value)

    @property
    def retry_backoff(self) -> float:
        """Base delay (seconds) of the bounded exponential retry backoff."""
        return self._retry_backoff

    @retry_backoff.setter
    def retry_backoff(self, value: float) -> None:
        if value is None or value < 0:
            raise ValueError("retry_backoff must be non-negative")
        self._retry_backoff = float(value)

    # -- resilient task execution ---------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "this Session is closed; create a new Session (or use the "
                "session before close()) to execute work")

    def _run_tasks(self, func, tasks: Sequence, *, jobs: Optional[int] = None,
                   isolate: bool = False
                   ) -> List[Union[object, TaskFailure]]:
        """Execute tasks with crash recovery, retries and timeouts.

        Returns one entry per task: the result, or a :class:`TaskFailure`
        describing why the unit produced none.  This is the single resilient
        engine under :meth:`simulate_many` and :meth:`map_tasks`; the
        timeout and retry budget are always the session's.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self._check_open()
        timeout, budget = self.timeout, self.retries
        workers = jobs if jobs is not None else self.jobs
        # a timeout needs a pool even for serial work: an in-process task
        # cannot be cancelled, a worker process can be killed; ``isolate``
        # likewise forces worker processes because the task may crash its
        # host (one batched DSE chunk would otherwise run — and die — in
        # the driver).
        use_pool = ((workers > 1 and len(tasks) > 1)
                    or timeout is not None or isolate)
        if not use_pool:
            return self._run_tasks_serial(func, tasks, budget)
        return self._run_tasks_pool(func, tasks, max(1, int(workers)),
                                    timeout, budget)

    def _run_tasks_serial(self, func, tasks: List, budget: int) -> List:
        outcomes: List[Union[object, TaskFailure]] = []
        total = len(tasks)
        task_name = f"task:{getattr(func, '__name__', 'task')}"
        counters: Dict[str, int] = {}
        with obs_metrics.count_into(counters):
            for task in tasks:
                attempts = 0
                with obs_spans.trace_deep(task_name):
                    while True:
                        attempts += 1
                        try:
                            outcomes.append(func(task))
                            break
                        except Exception as exc:
                            if attempts > budget:
                                outcomes.append(TaskFailure.from_exception(
                                    exc, attempts=attempts))
                                self.stats.task_failures += 1
                                break
                            self.stats.task_retries += 1
                            time.sleep(backoff_delay(attempts,
                                                     self.retry_backoff))
                emit_progress(stage="tasks", done=len(outcomes), total=total)
        self.stats.fold_counters(counters)
        return outcomes

    def _run_tasks_pool(self, func, tasks: List, workers: int,
                        timeout: Optional[float], budget: int) -> List:
        n = len(tasks)
        outcomes: List[Union[object, TaskFailure]] = [None] * n
        attempts = [0] * n
        pending = list(range(n))
        resolved = 0
        round_index = 0
        # workers always capture counter telemetry (sim-cache hits feed the
        # session stats); spans ride along only when a deep tracer is on.
        capture = "spans" if obs_spans.deep_tracing() else True
        while pending:
            if round_index > 0:
                time.sleep(backoff_delay(round_index, self.retry_backoff))
            with obs_spans.trace("pool.round", round=round_index,
                                 pending=len(pending), workers=workers):
                pool = self._ensure_pool(workers)
                # one task per future when a per-unit timeout must be
                # enforced; otherwise chunked submission to amortize
                # pickling overhead.
                if timeout is not None:
                    chunk_size = 1
                else:
                    chunk_size = max(1, len(pending) // (workers * 4))
                chunks = [pending[start:start + chunk_size]
                          for start in range(0, len(pending), chunk_size)]
                futures = []
                pool_damaged = False
                try:
                    for chunk in chunks:
                        payload = (func, [tasks[i] for i in chunk], capture)
                        future = pool.submit(run_chunk, payload)
                        futures.append((chunk, future))
                        for i in chunk:
                            attempts[i] += 1
                except (BrokenExecutor, RuntimeError):
                    pool_damaged = True  # unsubmitted chunks stay pending
                submitted = {i for chunk, _ in futures for i in chunk}
                lost: List[int] = []  # unfinished (worker crash/cancel)
                retry: List[int] = []  # raised, budget left
                for chunk, future in futures:
                    status, chunk_outcomes = self._collect_future(
                        future, timeout, [attempts[i] for i in chunk])
                    if status == "ok":
                        chunk_outcomes = self._absorb_telemetry(
                            chunk_outcomes)
                        for i, outcome in zip(chunk, chunk_outcomes):
                            if self._apply_outcome(i, outcome, outcomes,
                                                   attempts, budget, retry):
                                resolved += 1
                        emit_progress(stage="tasks", done=resolved, total=n)
                    elif status == "timeout":
                        for i, failure in zip(chunk, chunk_outcomes):
                            outcomes[i] = failure
                            self.stats.task_timeouts += 1
                            self.stats.task_failures += 1
                            resolved += 1
                        emit_progress(stage="tasks", done=resolved, total=n)
                        pool_damaged = True  # straggler occupies a worker
                    elif status == "cancelled":
                        # never started: the attempt did not happen.
                        for i in chunk:
                            attempts[i] -= 1
                        lost.extend(chunk)
                    else:  # "lost": the pool broke under this future
                        pool_damaged = True
                        lost.extend(chunk)
                lost.extend(i for i in pending if i not in submitted)
                if pool_damaged:
                    self._kill_pool()
                    self.stats.pool_recoveries += 1
                next_pending = []
                for i in lost:
                    if attempts[i] > budget:
                        outcomes[i] = TaskFailure(
                            kind="crash", error_type="BrokenProcessPool",
                            message=("worker process died while executing "
                                     "this work unit; retry budget "
                                     f"({budget}) exhausted"),
                            attempts=attempts[i])
                        self.stats.task_failures += 1
                        resolved += 1
                        emit_progress(stage="tasks", done=resolved, total=n)
                    else:
                        if attempts[i] > 0:
                            self.stats.task_retries += 1
                        next_pending.append(i)
                next_pending.extend(retry)
                next_pending.sort()
                pending = next_pending
                round_index += 1
        return outcomes

    def _absorb_telemetry(self, chunk_outcomes: List) -> List:
        """Strip and fold a chunk's trailing telemetry entry, if present.

        Counter totals land in the session stats; serialized worker spans
        are adopted into the active deep tracer, re-parented under the
        current (pool-round) span so the merged trace stays one tree.
        """
        if (not chunk_outcomes
                or not isinstance(chunk_outcomes[-1], tuple)
                or chunk_outcomes[-1][0] != "telemetry"):
            return chunk_outcomes
        data = chunk_outcomes[-1][1]
        counters = data.get("counters")
        if counters:
            with self._lock:
                self.stats.fold_counters(counters)
        payloads = data.get("spans")
        if payloads:
            tracer = obs_spans.active_tracer()
            if tracer is not None and tracer.deep:
                tracer.adopt(payloads,
                             parent=obs_spans.current_span_id())
        return chunk_outcomes[:-1]

    def _collect_future(self, future, timeout: Optional[float],
                        chunk_attempts: List[int]):
        """Wait for one chunk future.

        Returns ``("ok", outcomes)``, ``("timeout", failures)``,
        ``("cancelled", None)`` (never started, retry freely) or
        ``("lost", None)`` (pool broke; the chunk is unfinished).
        """
        waits = 0
        while True:
            waits += 1
            try:
                return "ok", future.result(timeout=timeout)
            except FuturesTimeout:
                if not future.running() and waits == 1:
                    # still queued behind other work: cancel and retry rather
                    # than blaming the unit itself.
                    if future.cancel():
                        return "cancelled", None
                    continue  # started while we looked; one more window
                failures = [TaskFailure(
                    kind="timeout", error_type="TimeoutError",
                    message=(f"work unit exceeded the {timeout:g}s "
                             "wall-clock timeout and was cancelled"),
                    attempts=attempt) for attempt in chunk_attempts]
                return "timeout", failures
            except CancelledError:
                return "cancelled", None
            except (BrokenExecutor, RuntimeError):
                return "lost", None

    def _apply_outcome(self, index: int, outcome, outcomes, attempts,
                       budget: int, retry: List[int]) -> bool:
        """Fold one worker-side ("ok"/"error", value) pair into the state.

        Returns whether the task reached a final outcome (result or
        exhausted-budget failure) rather than being queued for a retry.
        """
        status, value = outcome
        if status == "ok":
            outcomes[index] = value
            return True
        if attempts[index] > budget:
            failure = TaskFailure.from_record(value)
            outcomes[index] = replace(failure, attempts=attempts[index])
            self.stats.task_failures += 1
            return True
        self.stats.task_retries += 1
        retry.append(index)
        return False

    def _kill_pool(self) -> None:
        """Tear down the current pool hard (crashed or hosting stragglers).

        Worker processes are terminated so hung tasks stop consuming CPU;
        queued futures are cancelled and their units retried by the caller.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_workers = 0
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # -- simulation with dedup + shared pool ----------------------------

    def simulate(self, gpu: GpuSpec, layer: LayerConfig,
                 config: Optional[SimulatorConfig] = None,
                 pass_kind: PassKind = "forward") -> SimResult:
        """Simulate one layer's pass, consulting the session memo and cache."""
        resolved = config if config is not None else SimulatorConfig()
        return self.simulate_many([(gpu, layer, resolved, pass_kind)])[0]

    def simulate_many(self, units: Sequence[SimUnit],
                      jobs: Optional[int] = None,
                      cache_dir: Optional[str] = None,
                      strict: bool = True) -> List[SimResult]:
        """Simulate many work units, deduped, over the session's pool.

        Results come back aligned with ``units``.  Units already present in
        the session memo cost nothing; duplicates within ``units`` — including
        same-structure layers under different names, and the same layer
        requested for the same training pass twice — run once.
        ``jobs``/``cache_dir`` override the session's for this call (the
        validation harness passes its :class:`ValidationConfig` values).

        Execution is fault tolerant: worker crashes relaunch the pool and
        retry the unfinished units, stragglers past ``timeout`` are cancelled.
        With ``strict=True`` (default) any unit that still fails raises
        :class:`SimulationError` *after* every successful unit is memoized;
        with ``strict=False`` failed slots hold the :class:`TaskFailure`
        record instead.
        """
        keys = [_unit_key(unit) for unit in units]
        with self._lock:
            fresh: List[Tuple] = []
            fresh_keys: List[Tuple] = []
            seen = set()
            for unit, key in zip(units, keys):
                if key in self._sim_results or key in seen:
                    self.stats.sim_memo_hits += 1
                else:
                    seen.add(key)
                    fresh.append(_normalize_unit(unit))
                    fresh_keys.append(key)
            if cache_dir is None:
                cache_dir = self.sim_cache_dir
        tasks = [(gpu, layer, config, cache_dir, pass_kind)
                 for gpu, layer, config, pass_kind in fresh]
        with obs_spans.trace("simulate", units=len(tasks),
                             memo_hits=len(units) - len(tasks)):
            results = self._run_tasks(_simulate_task, tasks, jobs=jobs)
        failures: Dict[Tuple, TaskFailure] = {}
        with self._lock:
            for key, result in zip(fresh_keys, results):
                if isinstance(result, TaskFailure):
                    failures[key] = result
                else:
                    self._sim_results[key] = result
            self.stats.sim_tasks += len(tasks)
            if failures and strict:
                failed_units = [_describe_unit(unit)
                                for unit, key in zip(fresh, fresh_keys)
                                if key in failures]
                raise SimulationError(
                    list(failures.values()),
                    context=f"simulation of {', '.join(failed_units)}")
            return [self._sim_results[key] if key in self._sim_results
                    else failures[key] for key in keys]

    def map_tasks(self, func, tasks: Sequence,
                  return_failures: bool = False,
                  isolate: bool = False) -> List:
        """Map a picklable function over tasks on the session's process pool.

        The generic fan-out primitive the design-space exploration uses for
        per-point model evaluations; falls back to a serial loop when the
        session's job count (or the task count) is 1 and no timeout is set.
        ``isolate=True`` disables that fallback: tasks always run in worker
        processes, so a task that crashes its host process (fault injection,
        native-code faults) can never take the driver down with it.

        Fault tolerance follows the session policy:
        crashed workers relaunch the pool and the unfinished tasks retry with
        bounded exponential backoff; stragglers past ``timeout`` are
        cancelled.  A task that still has no result after the retry budget
        raises :class:`TaskError` — or, with ``return_failures=True``, yields
        its :class:`TaskFailure` record in the result list so callers can
        isolate failures per task.
        """
        tasks = list(tasks)
        with obs_spans.trace("map_tasks", tasks=len(tasks)):
            outcomes = self._run_tasks(func, tasks, isolate=isolate)
        if not return_failures:
            failures = [outcome for outcome in outcomes
                        if isinstance(outcome, TaskFailure)]
            if failures:
                raise TaskError(failures, context="map_tasks")
        return outcomes

    # -- design-space memo ----------------------------------------------

    def dse_lookup(self, keys: Sequence[str]
                   ) -> Tuple[np.ndarray, MetricTable, Dict[int, Dict]]:
        """Memoized design-point records for DSE store keys, in bulk
        (:meth:`repro.dse.store.ResultStore.get_many`)."""
        with self._lock:
            found, table, failures = self._dse_memo.get_many(keys)
            self.stats.dse_memo_hits += len(found) + len(failures)
            return found, table, failures

    def dse_record(self, keys: Sequence[str], table: MetricTable,
                   failures: Dict[str, Dict[str, object]]) -> None:
        """Memoize design-point evaluations (first writer wins)."""
        with self._lock:
            self._dse_memo.put_many(keys, table, failures)

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The shared pool, grown (never shrunk) to at least ``workers``.

        A too-small pool is retired, not shut down: another thread may still
        be mapping work onto it, and retired pools drain at close().  Raises
        :class:`SessionClosedError` once the session is closed, so a thread
        racing ``close()`` gets a clear error instead of mapping work onto a
        shut-down executor.
        """
        with self._lock:
            self._check_open()
            if self._pool is not None and self._pool_workers < workers:
                self._retired_pools.append(self._pool)
                self._pool = None
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=workers)
                self._pool_workers = workers
                self.stats.pool_launches += 1
            return self._pool

    # -- validation -----------------------------------------------------

    def validation_report(self, gpu: GpuSpec,
                          config: ValidationConfig = QUICK_VALIDATION
                          ) -> ValidationReport:
        """Model-vs-simulator records for one GPU, memoized on the session.

        The memo key ignores ``jobs``/``sim_cache_dir`` (execution policy
        does not change results), so experiments with equal populations
        share one run regardless of how it was parallelized.
        """
        key = (gpu, replace(config, jobs=None, sim_cache_dir=None))
        with self._lock:
            memoized = self._validation_memo.get(key)
        if memoized is not None:
            return memoized
        with obs_spans.trace("validation", gpu=gpu.name):
            return self._build_validation_report(gpu, config, key)

    def _build_validation_report(self, gpu: GpuSpec, config: ValidationConfig,
                                 key) -> ValidationReport:
        population = select_layers(config)
        sim_config = config.simulator_config()
        sims = self.simulate_many(
            [(gpu, layer, sim_config) for _, layer in population],
            jobs=config.jobs, cache_dir=config.sim_cache_dir)
        report = ValidationReport(
            gpu=gpu, records=validation_records(gpu, population, sims))
        with self._lock:
            return self._validation_memo.setdefault(key, report)

    # -- request execution ----------------------------------------------

    def run(self, request) -> "Report":  # noqa: F821 - documented return type
        """Execute one typed request and return its :class:`Report`."""
        from .executor import execute
        return execute(self, request)

    def run_many(self, requests: Sequence) -> List["Report"]:  # noqa: F821
        """Execute a batch of requests, deduping shared simulation work.

        The executor first plans the union of simulation work units across
        the batch, runs them once over the session's shared process pool,
        then executes each request against the warm memo.  Failures are
        isolated per request: a request that raises yields a
        ``Report(kind="error")`` in its slot while every other request's
        report is produced normally.
        """
        from .executor import execute_many
        return execute_many(self, requests)

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Shut down the session's process pools (results stay memoized).

        After close the session executes no new work: fan-out entry points
        raise :class:`SessionClosedError`.
        """
        with self._lock:
            self._closed = True
            pools = [p for p in [self._pool, *self._retired_pools] if p]
            self._pool = None
            self._pool_workers = 0
            self._retired_pools = []
        for pool in pools:
            pool.shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Session(jobs={self.jobs}, sim_cache_dir={self.sim_cache_dir!r}, "
                f"precision={self.precision}, "
                f"timeout={self.timeout}, retries={self.retries})")


# ----------------------------------------------------------------------
# Context-local active session
# ----------------------------------------------------------------------
_ACTIVE: ContextVar[Optional[Session]] = ContextVar("repro_active_session",
                                                    default=None)
_DEFAULT_LOCK = threading.Lock()
_DEFAULT: List[Optional[Session]] = [None]


def default_session() -> Session:
    """The lazily-created fallback session used when none is active."""
    with _DEFAULT_LOCK:
        if _DEFAULT[0] is None:
            _DEFAULT[0] = Session()
        return _DEFAULT[0]


def current_session() -> Session:
    """The context-active session (see :func:`use_session`) or the default."""
    session = _ACTIVE.get()
    return session if session is not None else default_session()


@contextmanager
def use_session(session: Session) -> Iterator[Session]:
    """Make ``session`` the active session for the enclosed context."""
    token = _ACTIVE.set(session)
    try:
        yield session
    finally:
        _ACTIVE.reset(token)


def configure_default_session(jobs: Optional[int] = None,
                              sim_cache_dir: Optional[str] = None,
                              precision: Optional[int] = None,
                              timeout: Optional[float] = None,
                              retries: Optional[int] = None) -> Session:
    """Adjust the default session's policy; unset arguments stay unchanged."""
    session = default_session()
    if jobs is not None:
        session.jobs = jobs
    if sim_cache_dir is not None:
        session.sim_cache_dir = sim_cache_dir
    if precision is not None:
        session.precision = precision
    if timeout is not None:
        session.timeout = timeout
    if retries is not None:
        session.retries = retries
    return session


def reset_default_session() -> None:
    """Drop the default session, releasing its pool and memoized results."""
    with _DEFAULT_LOCK:
        session, _DEFAULT[0] = _DEFAULT[0], None
    if session is not None:
        session.close()
