"""The estimation service's ASGI application.

:func:`create_app` wraps one long-lived :class:`~repro.api.Session` in a
standard ASGI 3 callable — servable by the bundled dependency-free asyncio
HTTP server (:mod:`repro.server.http`), or by uvicorn/hypercorn when they
are installed (``uvicorn --factory repro.server:create_app`` works out of
the box; no third-party framework is required or imported).

Routes
------

============================== ========================================
``GET  /healthz``              liveness probe
``GET  /v1/stats``             ``SessionStats`` + request-cache counters
``GET  /v1/networks``          network registry (+ paper-subset variants)
``GET  /v1/gpus``              GPU registry with aliases
``GET  /v1/experiments``       experiment registry
``POST /v1/estimate``          :class:`EstimateRequest`
``POST /v1/sweep``             :class:`SweepRequest`
``POST /v1/validate``          :class:`ValidateRequest`
``POST /v1/experiment``        :class:`ExperimentRequest`
``POST /v1/dse``               :class:`DseRequest`
``GET  /v1/jobs``              list jobs
``GET  /v1/jobs/{id}``         poll one job
``GET  /v1/jobs/{id}/report``  a finished job's report (raw body)
``GET  /v1/jobs/{id}/events``  NDJSON progress stream (chunked)
============================== ========================================

A synchronous POST responds with ``Report.to_json(indent=2)`` plus a
trailing newline — byte-identical to ``repro <cmd> --format json`` for the
same request.  The reply is encoded once, on the worker thread that executed
the request (see :func:`encode_reply`), and the request memo keeps those
bytes: a memo hit writes them again without re-encoding, and the event loop
never runs the JSON encoder for a report.  With ``"job": true`` in the body
the POST returns ``202`` and a job id instead; a finished job keeps its
encoded reply and its encoded poll body, so polling it re-encodes nothing.
Every failure — malformed body, unknown id, failed execution — is a
structured ``kind="error"`` report body with a 4xx/5xx status, never a bare
traceback page.
"""

from __future__ import annotations

import asyncio
import json
import time
from http import HTTPStatus
from typing import Dict, List, Optional

from .. import faults
from ..api.progress import observe_progress
from ..api.report import Report
from ..api.session import Session
from ..experiments.registry import all_experiment_specs
from ..gpu.devices import device_aliases
from ..networks.registry import available_networks, paper_subset_networks
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..resilience import SessionClosedError
from .coalesce import CoalescingCache, Reply
from .jobs import Job, JobManager
from .schemas import ROUTES, BadRequest, ParsedRequest, parse_body

#: error types whose failures are the client's fault (HTTP 400).
CLIENT_ERROR_TYPES = ("BadRequest", "ValueError", "KeyError", "TypeError")


class ReproApp:
    """ASGI 3 application: one session, one request cache, one job manager."""

    def __init__(self, session: Session, *, max_memo: int = 1024) -> None:
        self.session = session
        self.cache = CoalescingCache(max_entries=max_memo)
        self.jobs: Optional[JobManager] = None  # bound to the serving loop
        self.requests_served = 0
        self.registry = obs_metrics.MetricsRegistry()
        self._requests_total = self.registry.counter(
            "repro_server_requests", "HTTP requests received")
        self._jobs_submitted = self.registry.counter(
            "repro_jobs_submitted", "background jobs started")
        self.registry.gauge(
            "repro_jobs_active", "jobs currently executing",
            fn=lambda: self.jobs.running if self.jobs is not None else 0)
        self.registry.gauge(
            "repro_jobs_tracked", "jobs retained for polling",
            fn=lambda: len(self.jobs) if self.jobs is not None else 0)

    # -- ASGI entry point ------------------------------------------------

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - websockets etc.
            return
        if self.jobs is None:
            self.jobs = JobManager()
        self.requests_served += 1
        self._requests_total.inc()
        started = time.perf_counter()
        try:
            await self._dispatch(scope, receive, send)
        except BadRequest as exc:
            await _send_error(send, HTTPStatus.BAD_REQUEST, exc)
        except SessionClosedError as exc:
            await _send_error(send, HTTPStatus.SERVICE_UNAVAILABLE, exc)
        finally:
            self.registry.histogram(
                "repro_server_request_seconds",
                "HTTP request latency by route",
                labels={"route": _route_label(scope["path"])},
            ).observe(time.perf_counter() - started)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.session.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- routing ---------------------------------------------------------

    async def _dispatch(self, scope, receive, send) -> None:
        method: str = scope["method"]
        path: str = scope["path"].rstrip("/") or "/"
        get_routes = {
            "/healthz": lambda: {"status": "ok"},
            "/v1/stats": self._stats_payload,
            "/v1/networks": lambda: _registry_payload(path),
            "/v1/gpus": lambda: _registry_payload(path),
            "/v1/experiments": lambda: _registry_payload(path),
            "/v1/jobs": lambda: {"jobs": self.jobs.describe_all()},
        }
        if path == "/metrics":
            if not await self._require(method, "GET", path, send):
                body = self._metrics_text().encode("utf-8")
                await _send_bytes(
                    send, HTTPStatus.OK, body,
                    "text/plain; version=0.0.4; charset=utf-8")
            return
        builder = get_routes.get(path)
        if builder is not None:
            if not await self._require(method, "GET", path, send):
                await _send_json(send, HTTPStatus.OK, builder())
            return
        if path.startswith("/v1/jobs/"):
            if await self._require(method, "GET", path, send):
                return
            await self._dispatch_job(path, send)
            return
        route = path[len("/v1/"):] if path.startswith("/v1/") else None
        if route in ROUTES:
            if await self._require(method, "POST", path, send):
                return
            body = await _read_body(receive)
            parsed = parse_body(route, body)
            if parsed.as_job:
                await self._respond_job(route, parsed, send)
            else:
                await self._respond_sync(parsed, send)
            return
        await _send_error(
            send, HTTPStatus.NOT_FOUND,
            BadRequest(f"no route {scope['path']!r}; see /metrics, /v1/stats, "
                       f"/v1/networks, /v1/gpus, /v1/experiments, "
                       f"/v1/jobs and POST /v1/{{{'|'.join(sorted(ROUTES))}}}"))

    async def _require(self, method: str, expected: str, path: str,
                       send) -> bool:
        """405 unless the route's method matches; True when already handled."""
        if method == expected or (expected == "GET" and method == "HEAD"):
            return False
        await _send_error(
            send, HTTPStatus.METHOD_NOT_ALLOWED,
            BadRequest(f"method {method} is not allowed on {path}; "
                       f"use {expected}"))
        return True

    async def _dispatch_job(self, path: str, send) -> None:
        parts = path.split("/")  # ["", "v1", "jobs", id, sub?]
        job = self.jobs.get(parts[3]) if len(parts) in (4, 5) else None
        if job is None or (len(parts) == 5
                           and parts[4] not in ("report", "events")):
            await _send_error(send, HTTPStatus.NOT_FOUND,
                              BadRequest(f"no such job at {path!r}"))
            return
        if len(parts) == 4:
            if not job.finished:
                await _send_json(send, HTTPStatus.OK, job.describe())
                return
            if job.poll_body is None:
                # a finished job no longer changes: encode its poll once.
                payload = job.describe()
                payload["report"] = job.report.to_dict()
                if job.trace is not None:
                    payload["trace"] = job.trace
                job.poll_body = _json_body(payload)
            await _send_bytes(send, HTTPStatus.OK, job.poll_body,
                              "application/json")
            return
        if parts[4] == "report":
            if not job.finished:
                await _send_error(
                    send, HTTPStatus.CONFLICT,
                    BadRequest(f"job {job.job_id} is still running; poll "
                               f"/v1/jobs/{job.job_id} or stream its events"))
                return
            if job.reply is None:
                job.reply = encode_reply(job.report)
            await _send_reply(send, job.reply)
            return
        await _stream_events(send, job)

    # -- execution (coalesced, thread-offloaded) -------------------------

    def _execute(self, parsed: ParsedRequest) -> Report:
        """Run one request on a worker thread; failures become reports.

        The ``"serve"`` fault seam fires exactly once per *execution* —
        coalesced and memoized requests never reach it, which is what the
        exactly-once tests pin with a ``times=1`` ticket.
        """
        faults.fire("serve",
                    f"{type(parsed.request).__name__} {parsed.key}")
        try:
            return self.session.run(parsed.request)
        except SessionClosedError:
            raise
        except Exception as exc:
            # same shape (and bytes) as the CLI's isolated error report.
            return Report.from_error(exc, request=parsed.request)

    def _answer(self, parsed: ParsedRequest) -> Reply:
        """Execute and encode one request, on a worker thread."""
        return encode_reply(self._execute(parsed))

    async def _respond_sync(self, parsed: ParsedRequest, send) -> None:
        reply = await self.cache.run(
            parsed.key, lambda: asyncio.to_thread(self._answer, parsed))
        await _send_reply(send, reply)

    async def _respond_job(self, route: str, parsed: ParsedRequest,
                           send) -> None:
        def make_executor():
            async def execute(job: Job) -> Report:
                def work() -> Report:
                    with observe_progress(_progress_bridge(job)):
                        if not parsed.with_trace:
                            return self._execute(parsed)
                        with obs_spans.collect_trace(deep=True) as trace:
                            report = self._execute(parsed)
                        job.trace = trace.to_chrome()
                        return report
                if parsed.with_trace:
                    # a traced job always executes for real: a memoized or
                    # coalesced answer would have no spans to attach.
                    return await asyncio.to_thread(work)
                executed: List[Report] = []

                def answer() -> Reply:
                    report = work()
                    executed.append(report)
                    return encode_reply(report)
                reply = await self.cache.run(
                    parsed.key, lambda: asyncio.to_thread(answer))
                job.reply = reply
                # answered by the memo or by a coalesced execution: rebuild
                # the report from its encoded (lossless) JSON.
                return (executed[0] if executed
                        else Report.from_json(reply.body.decode("utf-8")))
            return execute

        job, coalesced = self.jobs.submit(route, parsed.key, make_executor())
        if not coalesced:
            self._jobs_submitted.inc()
        payload = dict(job.describe())
        payload["coalesced"] = coalesced
        await _send_json(send, HTTPStatus.ACCEPTED, payload)

    # -- payload builders ------------------------------------------------

    def _metrics_text(self) -> str:
        """Prometheus text exposition over every registry of the stack."""
        return obs_metrics.render_prometheus([
            self.registry,
            self.session.stats.registry,
            self.cache.stats.registry,
        ])

    def _stats_payload(self) -> Dict[str, object]:
        session = self.session
        stats = session.stats
        return {
            "session": stats.as_dict(),
            "sim_cache": {
                "hits": stats.sim_cache_hits,
                "misses": stats.sim_cache_misses,
            },
            "dse": {
                "points": stats.dse_points,
                "memo_hits": stats.dse_memo_hits,
            },
            "server": {
                "requests_served": self.requests_served,
                "jobs": len(self.jobs) if self.jobs is not None else 0,
                "request_cache": self.cache.stats.as_dict(),
                "memo_entries": len(self.cache),
            },
            "policy": {
                "jobs": session.jobs,
                "precision": session.precision,
                "timeout": session.timeout,
                "retries": session.retries,
                "sim_cache_dir": (str(session.sim_cache_dir)
                                  if session.sim_cache_dir else None),
            },
        }


def _progress_bridge(job: Job):
    """A progress callback publishing ``progress`` events onto ``job``."""
    def push(event: Dict[str, object]) -> None:
        payload: Dict[str, object] = {"event": "progress"}
        payload.update(event)
        job.post_threadsafe(payload)
    return push


#: fixed GET routes that label the latency histogram by their own path.
_STATIC_ROUTES = frozenset({
    "/", "/healthz", "/metrics", "/v1/stats", "/v1/networks", "/v1/gpus",
    "/v1/experiments", "/v1/jobs",
})


def _route_label(path: str) -> str:
    """A bounded-cardinality route label (job ids collapse to ``{id}``)."""
    path = path.rstrip("/") or "/"
    if path in _STATIC_ROUTES:
        return path
    if path.startswith("/v1/jobs/"):
        sub = path.split("/")[4:5]
        return f"/v1/jobs/{{id}}/{sub[0]}" if sub else "/v1/jobs/{id}"
    route = path[len("/v1/"):] if path.startswith("/v1/") else None
    if route in ROUTES:
        return path
    return "other"


def _registry_payload(path: str) -> Dict[str, object]:
    if path == "/v1/networks":
        return {"networks": available_networks(),
                "paper_subset_variants": paper_subset_networks()}
    if path == "/v1/gpus":
        return {"gpus": [{"name": name, "aliases": list(aliases)}
                         for name, aliases in device_aliases().items()]}
    return {"experiments": [{"id": spec.experiment_id, "title": spec.title,
                             "fast": spec.fast,
                             "uses_validation": spec.uses_validation}
                            for spec in all_experiment_specs()]}


def _error_status(report: Report) -> HTTPStatus:
    """4xx for caller mistakes, 5xx for execution failures."""
    if report.meta.get("error_type") in CLIENT_ERROR_TYPES:
        return HTTPStatus.BAD_REQUEST
    return HTTPStatus.INTERNAL_SERVER_ERROR


def _report_body(report: Report) -> bytes:
    """The report body: ``to_json(indent=2)`` + newline, as the CLI prints."""
    return (report.to_json(indent=2) + "\n").encode("utf-8")


def encode_reply(report: Report) -> Reply:
    """A report's answer: its body, 200 or its error status, and its kind."""
    status = (HTTPStatus.OK if report.kind != "error"
              else _error_status(report))
    return Reply(status=int(status), kind=report.kind,
                 body=_report_body(report))


# ----------------------------------------------------------------------
# ASGI send/receive helpers
# ----------------------------------------------------------------------

async def _read_body(receive) -> bytes:
    chunks = []
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            raise BadRequest("client disconnected before the body arrived")
        chunks.append(message.get("body", b""))
        if not message.get("more_body", False):
            return b"".join(chunks)


async def _send_bytes(send, status: int, body: bytes,
                      content_type: str) -> None:
    await send({
        "type": "http.response.start",
        "status": int(status),
        "headers": [
            (b"content-type", content_type.encode("ascii")),
            (b"content-length", str(len(body)).encode("ascii")),
        ],
    })
    await send({"type": "http.response.body", "body": body,
                "more_body": False})


def _json_body(payload: Dict[str, object]) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


async def _send_json(send, status: HTTPStatus, payload: Dict[str, object]
                     ) -> None:
    await _send_bytes(send, status, _json_body(payload), "application/json")


async def _send_reply(send, reply: Reply) -> None:
    await _send_bytes(send, reply.status, reply.body, "application/json")


async def _send_error(send, status: HTTPStatus, exc: Exception) -> None:
    await _send_bytes(send, status, _report_body(Report.from_error(exc)),
                      "application/json")


async def _stream_events(send, job: Job) -> None:
    """NDJSON chunked stream: replay history, then follow until ``done``."""
    await send({
        "type": "http.response.start",
        "status": int(HTTPStatus.OK),
        "headers": [(b"content-type", b"application/x-ndjson")],
    })
    async for event in job.stream_events():
        line = (json.dumps(event) + "\n").encode("utf-8")
        await send({"type": "http.response.body", "body": line,
                    "more_body": True})
    await send({"type": "http.response.body", "body": b"",
                "more_body": False})


def create_app(session: Optional[Session] = None, *,
               max_memo: int = 1024) -> ReproApp:
    """Build the service app around ``session`` (a fresh one by default)."""
    return ReproApp(session if session is not None else Session(),
                    max_memo=max_memo)
