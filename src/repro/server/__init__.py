"""Estimation-as-a-service: the async HTTP layer over :mod:`repro.api`.

One long-lived :class:`~repro.api.Session` behind an ASGI application
(:func:`create_app`), served either by the bundled dependency-free asyncio
HTTP server (:func:`run_app`, ``repro serve``) or by any third-party ASGI
server.  Request bodies deserialize into the existing typed request
dataclasses; responses are ``Report`` JSON bit-identical to the CLI's
``--format json`` output.  Identical concurrent requests coalesce onto a
single execution, encoded replies are memoized server-wide, and long
sweeps/DSE runs become pollable jobs with NDJSON progress streams.
"""

from .app import ReproApp, create_app
from .coalesce import CoalesceStats, CoalescingCache
from .http import ServerThread, run_app
from .jobs import Job, JobManager
from .schemas import ROUTES, BadRequest, ParsedRequest, parse_body

__all__ = [
    "BadRequest",
    "CoalesceStats",
    "CoalescingCache",
    "Job",
    "JobManager",
    "ROUTES",
    "ParsedRequest",
    "ReproApp",
    "ServerThread",
    "create_app",
    "parse_body",
    "run_app",
]
