"""Context-local tracing spans with cross-process propagation.

The span API follows the same contextvars pattern as
:mod:`repro.api.progress`: a tracer is *installed* for a context (one CLI
invocation, one served request, one traced job) and :func:`trace` records a
span only while one is active — with no tracer the context managers are a
cheap no-op, which is what the perf benchmarks pin.

Two granularities exist:

* **shallow** spans (:func:`trace`) cover the request lifecycle — request
  root, planning, simulate/map fan-outs, DSE driver rounds.  The executor
  installs a shallow tracer around *every* request, which is how each JSON
  report gets its ``meta["timing"]`` phase breakdown.
* **deep** spans (:func:`trace_deep`) cover per-work-unit and sim-engine
  phases and are recorded only under a *deep* tracer (``--trace out.json``
  on the CLI, ``"trace": true`` on a served job), so hot paths pay nothing
  by default.

Spans recorded inside pool worker processes cannot share the coordinator's
tracer; :func:`repro.resilience.run_chunk` captures them in the worker,
piggybacks their serialized form on the chunk result, and the session
re-parents them under its current span via :meth:`Tracer.adopt`.  Span ids
embed the pid, so ids from different processes never collide, and
timestamps are epoch seconds (``time.time()``), the only clock comparable
across processes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Iterator, List, Optional

_SEQ = itertools.count(1)


@dataclass
class Span:
    """One timed region: name, wall-clock bounds, process and parent link."""

    span_id: str
    name: str
    start: float                      # epoch seconds (cross-process clock)
    end: Optional[float] = None       # None while the span is open
    pid: int = 0
    tid: int = 0
    parent: Optional[str] = None      # parent span id, None for a root
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        """Milliseconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1e3

    def as_dict(self) -> Dict[str, object]:
        return {"span_id": self.span_id, "name": self.name,
                "start": self.start, "end": self.end, "pid": self.pid,
                "tid": self.tid, "parent": self.parent,
                "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        return cls(span_id=str(payload["span_id"]),
                   name=str(payload["name"]),
                   start=float(payload["start"]),
                   end=(None if payload.get("end") is None
                        else float(payload["end"])),
                   pid=int(payload.get("pid", 0)),
                   tid=int(payload.get("tid", 0)),
                   parent=payload.get("parent"),
                   attrs=dict(payload.get("attrs") or {}))


class Tracer:
    """Collects the spans of one trace.

    ``deep=True`` additionally records :func:`trace_deep` spans (per work
    unit, sim-engine phases) and makes the session capture worker-side
    spans; a shallow tracer keeps only the request-lifecycle spans used
    for ``meta["timing"]``.
    """

    __slots__ = ("deep", "spans")

    def __init__(self, deep: bool = False) -> None:
        self.deep = deep
        self.spans: List[Span] = []

    def begin(self, name: str, parent: Optional[str],
              attrs: Dict[str, object]) -> Span:
        span = Span(span_id=f"{os.getpid()}-{next(_SEQ)}", name=name,
                    start=time.time(), pid=os.getpid(),
                    tid=threading.get_ident(), parent=parent, attrs=attrs)
        self.spans.append(span)
        return span

    def adopt(self, payloads: List[Dict[str, object]],
              parent: Optional[str]) -> None:
        """Fold serialized worker-process spans into this trace.

        Worker-side root spans (``parent is None``) are re-parented under
        ``parent`` — the coordinator span that submitted the chunk — so the
        merged trace stays one connected tree.
        """
        for payload in payloads:
            span = Span.from_dict(payload)
            if span.parent is None:
                span.parent = parent
            self.spans.append(span)


_TRACER: ContextVar[Optional[Tracer]] = ContextVar("repro_tracer",
                                                   default=None)
_CURRENT: ContextVar[Optional[str]] = ContextVar("repro_current_span",
                                                 default=None)


def active_tracer() -> Optional[Tracer]:
    """The tracer installed for this context, if any."""
    return _TRACER.get()


def deep_tracing() -> bool:
    """Whether fine-grained (per-unit / sim-phase) spans are being kept."""
    tracer = _TRACER.get()
    return tracer is not None and tracer.deep


def current_span_id() -> Optional[str]:
    """The id of the innermost open span in this context."""
    return _CURRENT.get()


@contextmanager
def install_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` receive this context's spans (restored on exit)."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


@contextmanager
def _record(tracer: Tracer, name: str,
            attrs: Dict[str, object]) -> Iterator[Span]:
    span = tracer.begin(name, _CURRENT.get(), attrs)
    token = _CURRENT.set(span.span_id)
    try:
        yield span
    finally:
        _CURRENT.reset(token)
        span.end = time.time()


@contextmanager
def trace(name: str, **attrs) -> Iterator[Optional[Span]]:
    """Record a request-lifecycle span; no-op without an installed tracer."""
    tracer = _TRACER.get()
    if tracer is None:
        yield None
        return
    with _record(tracer, name, attrs) as span:
        yield span


#: the context a disabled :func:`trace_deep` returns (reusable, yields None).
_NO_SPAN = nullcontext()


def trace_deep(name: str, **attrs) -> ContextManager[Optional[Span]]:
    """Record a fine-grained span; no-op unless a *deep* tracer is active.

    The no-op is a shared :func:`~contextlib.nullcontext`, not a generator,
    so hot paths (every estimate request) pay well under a microsecond.
    """
    tracer = _TRACER.get()
    if tracer is None or not tracer.deep:
        return _NO_SPAN
    return _record(tracer, name, attrs)


class RequestTrace:
    """Handle yielded by :func:`request_trace`: the root span + breakdown."""

    __slots__ = ("tracer", "root")

    def __init__(self, tracer: Tracer, root: Span) -> None:
        self.tracer = tracer
        self.root = root

    def timing(self) -> Dict[str, object]:
        """The ``meta["timing"]`` block: total wall clock + per-phase ms.

        Phases aggregate the *direct children* of the request root span by
        name; time the root spent outside any child shows up as the
        difference between ``total_ms`` and the phase sum.
        """
        end = self.root.end if self.root.end is not None else time.time()
        phases: Dict[str, float] = {}
        for span in self.tracer.spans:
            if span.parent == self.root.span_id and span.end is not None:
                phases[span.name] = (phases.get(span.name, 0.0)
                                     + span.duration_ms)
        return {"total_ms": (end - self.root.start) * 1e3, "phases": phases}


@contextmanager
def request_trace(name: str, **attrs) -> Iterator[RequestTrace]:
    """Root span for one request, always recorded.

    When no tracer is installed (the common case: an untraced CLI call or
    server request) a private shallow tracer is installed for the duration,
    so every request gets a ``meta["timing"]`` breakdown without paying for
    deep instrumentation.  Under ``--trace`` / a traced job the already
    installed deep tracer is reused and the request nests into it.
    """
    tracer = _TRACER.get()
    installed = None
    if tracer is None:
        tracer = Tracer(deep=False)
        installed = _TRACER.set(tracer)
    try:
        with _record(tracer, name, attrs) as span:
            yield RequestTrace(tracer, span)
    finally:
        if installed is not None:
            _TRACER.reset(installed)


def elapsed_timing(started: float) -> Dict[str, object]:
    """A minimal timing block for error paths (``started``: perf_counter)."""
    return {"total_ms": (time.perf_counter() - started) * 1e3, "phases": {}}


class Trace:
    """A live view over one tracer's spans, plus exporters."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    @property
    def spans(self) -> List[Span]:
        return list(self._tracer.spans)

    def __len__(self) -> int:
        return len(self._tracer.spans)

    def to_chrome(self) -> Dict[str, object]:
        """Chrome/Perfetto ``trace_event`` JSON.

        Load the serialized dict in ``chrome://tracing`` or
        https://ui.perfetto.dev.  Every span becomes one complete ("X")
        event; timestamps are microseconds relative to the earliest span so
        the viewer opens at t=0.  A span still open at export time is
        emitted with zero duration and ``args.unclosed = true`` rather than
        dropped.
        """
        spans = sorted(self._tracer.spans, key=lambda s: (s.start, s.span_id))
        origin = spans[0].start if spans else 0.0
        events: List[Dict[str, object]] = []
        for pid in sorted({span.pid for span in spans}):
            name = ("coordinator" if pid == os.getpid()
                    else f"worker-{pid}")
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": f"repro {name}"}})
        for span in spans:
            end = span.end if span.end is not None else span.start
            args: Dict[str, object] = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent is not None:
                args["parent"] = span.parent
            if span.end is None:
                args["unclosed"] = True
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": "repro",
                "ts": (span.start - origin) * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"origin_unix_s": origin, "spans": len(spans)},
        }


@contextmanager
def collect_trace(deep: bool = True) -> Iterator[Trace]:
    """Install a tracer for the context and yield the growing trace.

    ``deep=True`` (the default) also records per-work-unit and sim-engine
    spans and makes pool fan-outs carry worker-side spans home.  The yielded
    :class:`Trace` stays valid after the context exits — export it then.
    """
    tracer = Tracer(deep=deep)
    with install_tracer(tracer):
        yield Trace(tracer)
