"""Server-wide request memo with in-flight coalescing.

The long-lived :class:`~repro.api.Session` behind the service already
dedupes *work units* (per-layer simulations, DSE point evaluations) across
requests through its ``structural_key``-based memo, in front of the on-disk
sim cache.  This module adds the request-level layer above it:

* a bounded LRU **memo** of completed answers keyed by the request's
  content key (see :func:`repro.server.schemas.parse_body`).  The server
  memoizes each answer as a :class:`Reply` — the encoded body bytes, the
  HTTP status and the report kind, not the :class:`~repro.api.Report` — so
  a repeated identical request costs one dictionary lookup and one write
  of cached bytes: zero model evaluations and zero JSON encoding; and
* **coalescing** of concurrent identical requests: the first arrival starts
  the (thread-offloaded) execution, every later arrival awaits the same
  in-flight future, and when the execution finishes — or fails — all waiters
  observe the same answer.  N concurrent identical requests therefore
  execute exactly once, which the fault-injection suite pins with a
  ``times=1`` ticket at the ``"serve"`` seam.

The cache itself only reads an answer's ``kind``: error-kind answers
propagate to every coalesced waiter but are *not* memoized, so a transient
failure (worker crash, timeout) cannot poison the cache for later retries.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional

from ..obs.metrics import StatsView


@dataclass(frozen=True)
class Reply:
    """One encoded answer: what the server's memo keeps per request key."""

    #: HTTP status of the answer.
    status: int
    #: the report's kind; ``"error"`` answers are never memoized.
    kind: str
    #: the response body, ``Report.to_json(indent=2)`` plus a newline.
    body: bytes


class CoalesceStats(StatsView):
    """Counters describing what the request cache absorbed.

    A registry-backed view (``repro_coalesce_*`` counters in ``registry``,
    merged into the server's ``GET /metrics``); attribute API unchanged.
    """

    _AREA = "coalesce"
    _FIELDS = {
        "memo_hits":
            "requests answered from the completed-answer memo",
        "coalesced":
            "requests that piggybacked on an identical in-flight execution",
        "executed":
            "requests that actually executed",
        "evictions":
            "memo entries dropped by the LRU bound",
    }


@dataclass
class CoalescingCache:
    """Keyed answer memo + single-flight execution for identical requests.

    Single-event-loop use only (the service runs one loop); the blocking
    work itself — executing the request and encoding its reply — happens in
    worker threads via the awaitable the caller passes in, so the loop
    stays responsive while requests execute.  Answers are any object with a
    ``kind`` (the server passes :class:`Reply`).
    """

    #: completed answers kept (LRU); 0 disables memoization entirely.
    max_entries: int = 1024
    stats: CoalesceStats = field(default_factory=CoalesceStats)
    _memo: "OrderedDict[str, Reply]" = field(default_factory=OrderedDict)
    _inflight: Dict[str, "asyncio.Future[Reply]"] = field(
        default_factory=dict)

    def lookup(self, key: str) -> Optional[Reply]:
        """The memoized answer for ``key``, refreshing its LRU position."""
        reply = self._memo.get(key)
        if reply is not None:
            self._memo.move_to_end(key)
            self.stats.memo_hits += 1
        return reply

    async def run(self, key: str,
                  execute: Callable[[], Awaitable[Reply]]) -> Reply:
        """Return ``key``'s answer, executing at most once concurrently.

        ``execute`` is awaited only by the first concurrent caller; everyone
        else shares its outcome.  If the execution raises, every waiter sees
        the exception; if it returns an error-kind answer, every waiter gets
        that answer and nothing is memoized.
        """
        memoized = self.lookup(key)
        if memoized is not None:
            return memoized
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.coalesced += 1
            # shield: one waiter's cancellation must not cancel the shared
            # execution out from under the other waiters.
            return await asyncio.shield(inflight)
        future: "asyncio.Future[Reply]" = (
            asyncio.get_running_loop().create_future())
        self._inflight[key] = future
        self.stats.executed += 1
        try:
            reply = await execute()
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # without a waiter the exception would be logged as never
                # retrieved; mark it consumed — the raise below reports it.
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(reply)
            if reply.kind != "error":
                self._remember(key, reply)
            return reply
        finally:
            self._inflight.pop(key, None)

    def _remember(self, key: str, reply: Reply) -> None:
        if self.max_entries <= 0:
            return
        self._memo[key] = reply
        self._memo.move_to_end(key)
        while len(self._memo) > self.max_entries:
            self._memo.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every memoized answer (in-flight executions are unaffected)."""
        self._memo.clear()

    def __len__(self) -> int:
        return len(self._memo)
