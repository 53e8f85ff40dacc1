"""Async job manager: long requests become pollable, streamable jobs.

A sweep over many networks or a thousand-point design-space exploration can
run for minutes; holding an HTTP response open that long serves nobody.
Any POST route accepts ``"job": true`` in its body, turning the request into
a *job*: the POST returns ``202`` with a job id immediately, the request
executes on a worker thread, ``GET /v1/jobs/{id}`` polls its status, and
``GET /v1/jobs/{id}/events`` streams NDJSON progress lines — one per
completed sweep combination or fan-out work unit, bridged from the
context-local :func:`repro.api.observe_progress` hook — until the terminal
``done`` event.

Jobs coalesce exactly like synchronous requests: submitting a key that is
already running returns the *same* job (same id, same event stream), and the
execution itself goes through the server's coalescing cache, so a job and a
concurrent synchronous request for the same content share one execution.

Everything here runs on one event loop; the only cross-thread entry point is
:meth:`Job.post_threadsafe`, which worker threads use to publish progress.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import (AsyncIterator, Awaitable, Callable, Dict, List, Optional,
                    Tuple)

from ..api.report import Report
from .coalesce import Reply

#: finished jobs kept for polling before the oldest are dropped.
MAX_FINISHED_JOBS = 256


class Job:
    """One background request: status, result report, progress event log."""

    def __init__(self, job_id: str, route: str, key: str) -> None:
        self.job_id = job_id
        self.route = route
        self.key = key
        self.status = "running"  # -> "done" | "error"
        self.report: Optional[Report] = None
        #: the report's encoded answer, kept once it is first encoded (by
        #: the execution, or by the first ``GET /v1/jobs/{id}/report``).
        self.reply: Optional[Reply] = None
        #: the finished job's poll body, encoded on its first poll.
        self.poll_body: Optional[bytes] = None
        #: chrome-trace payload captured when submitted with "trace": true.
        self.trace: Optional[Dict[str, object]] = None
        self.events: List[Dict[str, object]] = []
        self._changed = asyncio.Event()
        self._loop = asyncio.get_running_loop()

    @property
    def finished(self) -> bool:
        return self.status != "running"

    def post(self, event: Dict[str, object]) -> None:
        """Append one event (event-loop thread only) and wake subscribers."""
        self.events.append(event)
        self._changed.set()

    def post_threadsafe(self, event: Dict[str, object]) -> None:
        """Publish one progress event from a worker thread."""
        self._loop.call_soon_threadsafe(self.post, event)

    def finish(self, report: Report) -> None:
        """Record the terminal report and emit the ``done`` event."""
        self.report = report
        self.status = "error" if report.kind == "error" else "done"
        self.post({"event": "done", "job_id": self.job_id,
                   "status": self.status, "kind": report.kind,
                   "title": report.title})

    def describe(self) -> Dict[str, object]:
        """Poll payload: status plus where to fetch events and the report."""
        payload: Dict[str, object] = {
            "job_id": self.job_id,
            "route": self.route,
            "key": self.key,
            "status": self.status,
            "events": len(self.events),
            "events_url": f"/v1/jobs/{self.job_id}/events",
        }
        if self.finished:
            payload["report_url"] = f"/v1/jobs/{self.job_id}/report"
        return payload

    async def stream_events(self) -> AsyncIterator[Dict[str, object]]:
        """Yield every event from the start, live until the terminal one.

        Replays the backlog first, so a subscriber attaching after
        completion still sees the full history.
        """
        index = 0
        while True:
            while index < len(self.events):
                event = self.events[index]
                index += 1
                yield event
                if event.get("event") == "done":
                    return
            self._changed.clear()
            # re-check before sleeping: a post between the drain above and
            # the clear would otherwise be missed until the next event.
            if index < len(self.events):
                continue
            await self._changed.wait()


#: the execution a job runs: takes the job (for progress posting), returns
#: the final report.  Exceptions are converted to error reports here.
JobExecutor = Callable[[Job], Awaitable[Report]]


class JobManager:
    """Owns every job of one server: submission, coalescing, retention."""

    def __init__(self, max_finished: int = MAX_FINISHED_JOBS) -> None:
        self._jobs: "Dict[str, Job]" = {}
        self._running_by_key: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self.max_finished = max_finished

    def submit(self, route: str, key: str,
               execute: JobExecutor) -> Tuple[Job, bool]:
        """Start (or join) the job for ``key``.

        Returns ``(job, coalesced)``: when a job with the same content key is
        still running, that job is returned instead of starting a duplicate.
        """
        existing = self._running_by_key.get(key)
        if existing is not None and not existing.finished:
            return existing, True
        job = Job(f"job-{next(self._ids):06d}", route, key)
        self._jobs[job.job_id] = job
        self._running_by_key[key] = job
        job.post({"event": "started", "job_id": job.job_id, "route": route})
        asyncio.get_running_loop().create_task(self._run(job, execute))
        return job, False

    async def _run(self, job: Job, execute: JobExecutor) -> None:
        try:
            report = await execute(job)
        except Exception as exc:  # defense: executors normally self-report
            report = Report.from_error(exc)
        job.finish(report)
        if self._running_by_key.get(job.key) is job:
            del self._running_by_key[job.key]
        self._trim()

    def _trim(self) -> None:
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.finished]
        for job_id in finished[:max(0, len(finished) - self.max_finished)]:
            del self._jobs[job_id]

    @property
    def running(self) -> int:
        """Jobs currently executing (the ``repro_jobs_active`` gauge)."""
        return len(self._running_by_key)

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def describe_all(self) -> List[Dict[str, object]]:
        return [job.describe() for job in self._jobs.values()]

    def __len__(self) -> int:
        return len(self._jobs)
