"""Unified, machine-readable result type of the public API.

Every request executed through a :class:`repro.api.Session` produces a
:class:`Report`: tables (``rows``), figure-style ``series``, headline
``summary`` numbers and a ``meta`` block echoing the request and the session
policy that produced it.  Reports render as plain text (the CLI's default)
and serialize losslessly to JSON — ``Report.from_json(r.to_json())`` compares
numerically equal to ``r``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import render_series, render_table
from ..resilience import TaskError, TaskFailure

#: bumped when the serialized layout changes shape.
SCHEMA_VERSION = 1

Rows = Tuple[Dict[str, object], ...]
Series = Dict[str, Tuple[Tuple[object, object], ...]]


def _freeze_rows(rows: Sequence[Mapping[str, object]]) -> Rows:
    return tuple(dict(row) for row in rows)


def _freeze_series(series: Optional[Mapping[str, Sequence[Sequence[object]]]]) -> Series:
    return {name: tuple((pair[0], pair[1]) for pair in pairs)
            for name, pairs in (series or {}).items()}


def _strip_timing(payload: Dict[str, object]) -> None:
    """Drop ``meta["timing"]`` from a serialized report tree, in place."""
    meta = payload.get("meta")
    if isinstance(meta, dict):
        meta.pop("timing", None)
    for child in payload.get("children") or ():
        if isinstance(child, dict):
            _strip_timing(child)


@dataclass(frozen=True)
class Report:
    """Structured result of one request."""

    #: result family: "experiment", "estimate", "validation", "sweep", "dse"
    #: or "error" (a failed request, isolated by ``Session.run_many``).
    kind: str
    #: human readable headline (first line of the text rendering).
    title: str
    #: identifier shown as ``[id]`` in the text rendering (e.g. "fig11").
    report_id: Optional[str] = None
    rows: Rows = ()
    series: Series = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)
    #: request echo + session policy (jobs, precision, ...).
    meta: Dict[str, object] = field(default_factory=dict)
    #: sub-reports (a sweep's per-combination breakdown, for example).
    children: Tuple["Report", ...] = ()

    # -- text ------------------------------------------------------------

    def render(self, precision: Optional[int] = None) -> str:
        """Render as plain text: title, summary, tables, series, children."""
        if precision is None:
            precision = int(self.meta.get("precision", 3))
        header = f"[{self.report_id}] {self.title}" if self.report_id else self.title
        parts: List[str] = [header]
        if self.summary:
            summary_rows = [{"metric": key, "value": value}
                            for key, value in self.summary.items()]
            parts.append(render_table(summary_rows, columns=["metric", "value"],
                                      precision=precision))
        if self.rows:
            parts.append(render_table(list(self.rows), precision=precision))
        for name, pairs in self.series.items():
            parts.append(render_series(name, pairs, precision=precision))
        for child in self.children:
            parts.append(child.render(precision=precision))
        return "\n\n".join(parts)

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data payload (lists/dicts/scalars only)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "title": self.title,
            "report_id": self.report_id,
            "rows": [dict(row) for row in self.rows],
            "series": {name: [[x, y] for x, y in pairs]
                       for name, pairs in self.series.items()},
            "summary": dict(self.summary),
            "meta": dict(self.meta),
            "children": [child.to_dict() for child in self.children],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def content_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` minus volatile wall-clock metadata.

        ``meta["timing"]`` (attached to every executed report by the
        executor) differs between otherwise identical runs; this is the
        stable content identity that bit-identity tests and run-to-run
        comparisons should use.
        """
        payload = self.to_dict()
        _strip_timing(payload)
        return payload

    def content_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.content_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Report":
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema version {version!r}")
        return cls(
            kind=str(payload.get("kind", "experiment")),
            title=str(payload.get("title", "")),
            report_id=payload.get("report_id"),
            rows=_freeze_rows(payload.get("rows", ())),
            series=_freeze_series(payload.get("series")),
            summary=dict(payload.get("summary", {})),
            meta=dict(payload.get("meta", {})),
            children=tuple(cls.from_dict(child)
                           for child in payload.get("children", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))

    # -- errors ----------------------------------------------------------

    @classmethod
    def from_error(cls, exc: BaseException, *, request: object = None,
                   meta: Optional[Mapping[str, object]] = None) -> "Report":
        """An error-kind report describing one failed request.

        Carries the exception type/message, the formatted traceback and the
        cause chain in ``meta`` so failures stay diagnosable after JSON
        round-trips; ``summary`` holds the headline error fields.
        """
        failure = TaskFailure.from_exception(exc)
        merged: Dict[str, object] = dict(meta or {})
        merged["error_type"] = failure.error_type
        merged["error_message"] = failure.message
        if failure.traceback is not None:
            merged["traceback"] = failure.traceback
        merged["cause"] = list(failure.cause)
        if isinstance(exc, TaskError) and exc.failures:
            # per-work-unit failure records: clients (the estimation service
            # in particular) surface the structured kind — "error", "timeout"
            # or "crash" — instead of a flattened message.
            merged["failures"] = [f.as_record() for f in exc.failures]
        request_name = type(request).__name__ if request is not None else "request"
        if request is not None:
            merged.setdefault("request", request_name)
            merged.setdefault("request_echo", repr(request))
        return cls(
            kind="error",
            title=f"{request_name} failed: {failure.error_type}: {failure.message}",
            summary={"error": failure.error_type, "message": failure.message},
            meta=merged,
        )
