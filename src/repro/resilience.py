"""Shared failure types and worker-side helpers of the resilience layer.

Everything fan-out execution needs to *describe* a failure lives here, in a
dependency-free module importable from any layer (``repro.api.session``, the
DSE runner, the CLI) without creating import cycles:

* :class:`TaskFailure` — the structured record of one work unit that did not
  produce a result: what kind of failure (``error`` / ``timeout`` /
  ``crash``), the exception type and message, how many attempts were made,
  and the worker-side traceback when one exists.  Failure records serialize
  to plain dicts (:meth:`TaskFailure.as_record`) so they can live in JSONL
  stores and JSON reports.
* :func:`run_chunk` — the process-pool worker wrapper that executes a chunk
  of tasks and converts per-task exceptions into serializable failure
  payloads *inside the worker*, so an ordinary task error never breaks the
  pool round it rides on (only a genuine worker crash does).
* :func:`check_timeout` — the bound on the session's wall-clock timeout,
  the only timeout there is (``Session(timeout=...)``, ``--timeout``).
* The exception family the execution layer raises: ``SessionClosedError``,
  ``TaskError`` and ``SimulationError``.

See DESIGN.md, "Failure semantics", for how the pieces compose.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: failure categories a work unit can end in.
FAILURE_KINDS = ("error", "timeout", "crash")

#: exponential backoff between retry rounds is capped at this many seconds.
BACKOFF_CAP_SECONDS = 2.0


def backoff_delay(round_index: int, base: float,
                  cap: float = BACKOFF_CAP_SECONDS) -> float:
    """Bounded exponential backoff before retry round ``round_index`` (>= 1)."""
    if base <= 0 or round_index <= 0:
        return 0.0
    return min(base * (2.0 ** (round_index - 1)), cap)


def check_timeout(timeout: Optional[float]) -> Optional[float]:
    """Validate a wall-clock timeout in seconds (``None`` = unbounded).

    The bound the :class:`~repro.api.Session` timeout setter applies (no
    request or call overrides the session's timeout): positive, finite and
    at most ``threading.TIMEOUT_MAX``, beyond which the futures/condition
    waits of the pool raise ``OverflowError``.  Returns the timeout as a
    float.
    """
    if timeout is None:
        return None
    value = float(timeout)
    if not 0 < value <= threading.TIMEOUT_MAX:
        raise ValueError(
            f"timeout must be positive and at most {threading.TIMEOUT_MAX:g} "
            f"seconds (or None), got {timeout!r}")
    return value


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one work unit that produced no result."""

    #: "error" (the task raised), "timeout" (straggler cancelled) or
    #: "crash" (worker process died; retry budget exhausted).
    kind: str
    #: exception class name ("TimeoutError" for timeouts, the pool's broken-
    #: executor type for crashes).
    error_type: str
    #: human-readable description of what went wrong.
    message: str
    #: execution attempts made before giving up (>= 1).
    attempts: int = 1
    #: worker-side formatted traceback, when the task raised.
    traceback: Optional[str] = None
    #: cause chain, outermost first ("Type: message" per link).
    cause: Tuple[str, ...] = field(default=())

    def as_record(self) -> Dict[str, object]:
        """Plain-data payload for JSONL stores and JSON reports."""
        record: Dict[str, object] = {
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }
        if self.traceback is not None:
            record["traceback"] = self.traceback
        if self.cause:
            record["cause"] = list(self.cause)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "TaskFailure":
        return cls(kind=str(record.get("kind", "error")),
                   error_type=str(record.get("error_type", "Exception")),
                   message=str(record.get("message", "")),
                   attempts=int(record.get("attempts", 1)),
                   traceback=record.get("traceback"),
                   cause=tuple(record.get("cause", ())))

    @classmethod
    def from_exception(cls, exc: BaseException, *, kind: str = "error",
                       attempts: int = 1) -> "TaskFailure":
        return cls(kind=kind, error_type=type(exc).__name__, message=str(exc),
                   attempts=attempts, traceback=format_traceback(exc),
                   cause=cause_chain(exc))

    def __str__(self) -> str:
        return f"[{self.kind}] {self.error_type}: {self.message}"


def cause_chain(exc: BaseException, limit: int = 8) -> Tuple[str, ...]:
    """The ``__cause__``/``__context__`` chain as "Type: message" strings."""
    chain: List[str] = []
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen and len(chain) < limit:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return tuple(chain)


def format_traceback(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


# ----------------------------------------------------------------------
# Worker-side chunk execution
# ----------------------------------------------------------------------

def run_chunk(payload: Tuple) -> List[Tuple[str, object]]:
    """Process-pool worker: run ``func`` over a chunk of tasks.

    ``payload`` is ``(func, tasks)`` — or ``(func, tasks, capture)`` to
    carry telemetry home — with ``func`` a picklable module-level callable.
    Returns one ``("ok", result)`` or ``("error", failure_record)`` pair per
    task: ordinary task exceptions are captured *inside* the worker (with
    their traceback) instead of poisoning the whole chunk, so the dispatcher
    can retry or report each task individually.  Only a worker crash or hang
    escapes this function.

    With ``capture`` truthy, a trailing ``("telemetry", data)`` entry is
    appended after the per-task outcomes: ``data["counters"]`` holds the
    context-local :func:`repro.obs.metrics.count` totals the tasks bumped
    (sim-cache hits/misses in particular), and — when ``capture`` is the
    string ``"spans"`` — ``data["spans"]`` holds this process's serialized
    spans, one ``task:<func>`` root per task, for the coordinator to adopt
    and re-parent into its own trace.
    """
    func, tasks = payload[0], payload[1]
    capture = payload[2] if len(payload) > 2 else False
    outcomes: List[Tuple[str, object]] = []

    def one(task) -> None:
        try:
            outcomes.append(("ok", func(task)))
        except Exception as exc:
            outcomes.append(
                ("error", TaskFailure.from_exception(exc).as_record()))

    if not capture:
        for task in tasks:
            one(task)
        return outcomes

    from .obs import metrics as obs_metrics
    from .obs import spans as obs_spans

    counters: dict = {}
    tracer = obs_spans.Tracer(deep=True) if capture == "spans" else None
    task_name = f"task:{getattr(func, '__name__', 'task')}"
    with obs_metrics.count_into(counters):
        if tracer is None:
            for task in tasks:
                one(task)
        else:
            with obs_spans.install_tracer(tracer):
                for task in tasks:
                    with obs_spans.trace(task_name):
                        one(task)
    telemetry: dict = {"counters": counters}
    if tracer is not None:
        telemetry["spans"] = [span.as_dict() for span in tracer.spans]
    outcomes.append(("telemetry", telemetry))
    return outcomes


# ----------------------------------------------------------------------
# Exceptions raised by the execution layer
# ----------------------------------------------------------------------

class SessionClosedError(RuntimeError):
    """A closed Session was asked to execute work."""


class TaskError(RuntimeError):
    """One or more work units failed after exhausting the retry budget.

    ``failures`` holds the per-unit :class:`TaskFailure` records (index-
    aligned metadata lives with the caller that mapped the tasks).
    """

    def __init__(self, failures: Sequence[TaskFailure],
                 context: str = "task execution") -> None:
        self.failures: Tuple[TaskFailure, ...] = tuple(failures)
        first = self.failures[0] if self.failures else None
        detail = f": {first}" if first is not None else ""
        super().__init__(
            f"{context} failed for {len(self.failures)} work unit(s){detail}")


class SimulationError(TaskError):
    """A simulation work unit failed after exhausting the retry budget."""
