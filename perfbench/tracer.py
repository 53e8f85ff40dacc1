"""Spans recorded from outside the program, for the traced run only.

:class:`Tracer` replaces public functions and methods of the package with
timing wrappers (and puts the originals back on :meth:`Tracer.restore`).
Every call becomes one span ``[name, start, end, parent, request, counts]``
kept in memory; nothing is written until :meth:`Tracer.to_chrome` at the end
of the run.  A wrapper that is re-entered under a span of its own name (for
example ``DeltaModel.estimate_pass`` calling ``DeltaModel.estimate``) records
nothing, so a layer's time is never counted twice.

A root span (one the benchmark opens with :meth:`Tracer.span`) groups the
spans below it: one sweep phase, one request or one validation pass.
:meth:`Tracer.groups` sums each group's time per span name, and its self
time: a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: turns a call's ``(args, kwargs, result)`` into counts for its span.
CountFn = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Group:
    """Totals of one root span's subtree."""

    name: str
    request: object
    ms: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_ms: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    counts: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))


class Tracer:
    """In-memory span recorder fed by wrappers around public functions."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, request, counts]``, parents first.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._request: object = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str, counts: Optional[dict]) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self._request, counts]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str, request: object = None) -> Iterator[None]:
        """A root span the benchmark opens around one unit of work."""
        self._request = request
        span = self._open(name, {})
        try:
            yield
        finally:
            self._close(span)
            self._request = None

    def note(self, counts: Dict[str, float]) -> None:
        """Add counts the benchmark measured to the open root span."""
        root_counts = self.spans[self._stack[0]][5]
        for key, value in counts.items():
            root_counts[key] = root_counts.get(key, 0) + value

    def _wrapper(self, func: Callable, name: str,
                 count: Optional[CountFn]) -> Callable:
        def traced(*args, **kwargs):
            if self._active[name]:
                return func(*args, **kwargs)
            span = self._open(name, None)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result
        traced.__wrapped__ = func
        return traced

    def wrap(self, owner: object, attr: str, name: str,
             count: Optional[CountFn] = None) -> None:
        """Replace ``owner.attr`` (a module function, method or
        classmethod) with a recording wrapper."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: object = classmethod(
                self._wrapper(original.__func__, name, count))
        else:
            replacement = self._wrapper(original, name, count)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def groups(self) -> List[Group]:
        """Per root span: time per span name, self time and counts."""
        root: List[int] = []
        child_time = [0.0] * len(self.spans)
        for index, (_, start, end, parent, _, _) in enumerate(self.spans):
            root.append(index if parent is None else root[parent])
            if parent is not None:
                child_time[parent] += end - start
        groups: Dict[int, Group] = {}
        for index, (name, start, end, parent, request, counts) in enumerate(
                self.spans):
            if parent is None:
                groups[index] = Group(name=name, request=request)
            group = groups[root[index]]
            group.ms[name] += (end - start) * 1e3
            group.self_ms[name] += (end - start - child_time[index]) * 1e3
            for key, value in (counts or {}).items():
                group.counts[key] += value
        return list(groups.values())

    def to_chrome(self) -> Dict[str, object]:
        """The spans as chrome://tracing / Perfetto ``trace_event`` JSON."""
        origin = min((span[1] for span in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for name, start, end, parent, request, counts in self.spans:
            args: Dict[str, object] = {"request": request, "parent": parent}
            args.update(counts or {})
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
