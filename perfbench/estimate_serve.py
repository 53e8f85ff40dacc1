"""``estimate-serve``: one client replays a seeded request stream against a
``repro serve`` child process.

The stream draws ``POST /v1/estimate`` bodies from the catalog network x GPU
x batch x passes x unique.  Fresh requests run the executor, the scalar
``DeltaModel`` and report serialization; every fresh request is repeated
exactly once, at a seeded later position, and the server answers the
repeat from its request memo (its default 1024 entries hold every fresh
request of an episode).  The fresh requests are one of each (network, GPU,
passes, unique) stratum, in a seeded order with a seeded batch, so every
seed carries the same mix of cheap and costly models and of memo hits.

The load is a closed loop: one keep-alive connection, the next request sent
when the previous answer has arrived.  With the server that makes two busy
processes.  DSE and the simulator stay idle.  A run repeats the same
:data:`EPISODE_REQUESTS`-request stream in episodes, each against a fresh
server, and times each request at its fastest episode.

Outputs are checked against the program itself: every 200 body's content
must equal ``Session().run(request).content_json()`` computed in this
process, and the server's memo hits must equal the stream's repeat count.
The traced run replays the distinct requests in-process twice more, once
untraced and once with timing wrappers installed, for the per-layer split
and the tracing overhead.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from harness import (Budget, Outcome, ROOT, best_total, child_env,
                     cold_starts, median, percentile, process_peak_rss_mb,
                     read_line, stop_process)
from tracer import Tracer

NETWORKS = ("alexnet", "bert-base", "googlenet", "mlp", "resnet152", "vgg16")
GPUS = ("titanxp", "p100", "v100")
PASSES = ("forward", "dgrad", "wgrad", "training")
MAX_BATCH = 256
#: the (network, GPU, passes, unique) strata; an episode has one fresh
#: request in each.
STRATA = tuple(itertools.product(NETWORKS, GPUS, PASSES, (True, False)))
#: requests per episode: one fresh request per stratum and one repeat of
#: each.  Every episode replays the same stream against a fresh server; a
#: short episode (about 1.3 s) gives each request a dozen samples or more
#: in a run, so its fastest one comes from a quiet moment of the host.  A
#: traced run's eight episodes give enough misses (1152) for a p99 with at
#: least ten samples beyond it.
EPISODE_REQUESTS = 2 * len(STRATA)
TRACED_EPISODES = 8
#: the request each cold start waits for (not part of the catalog stream).
SETUP_BODY = json.dumps({"network": "alexnet", "batch": 16,
                         "unique": True}).encode()
HTTP_TIMEOUT_S = 60.0


def request_stream(seed: int) -> List[Tuple[bytes, bool]]:
    """One episode's seeded ``(body, is_repeat)`` requests.

    Each step sends, with even odds, the next fresh request or a repeat of
    a fresh request not yet repeated; once one kind runs out, the rest are
    of the other kind.
    """
    rng = random.Random(seed)
    fresh = [json.dumps({"network": network, "gpu": gpu,
                         "batch": rng.randint(1, MAX_BATCH),
                         "passes": passes, "unique": unique},
                        sort_keys=True).encode()
             for network, gpu, passes, unique
             in rng.sample(STRATA, len(STRATA))]
    stream: List[Tuple[bytes, bool]] = []
    unrepeated: List[bytes] = []
    upcoming = iter(fresh)
    left = len(fresh)
    while left or unrepeated:
        if left and (not unrepeated or rng.random() < 0.5):
            body = next(upcoming)
            left -= 1
            unrepeated.append(body)
            stream.append((body, False))
        else:
            body = unrepeated.pop(rng.randrange(len(unrepeated)))
            stream.append((body, True))
    return stream


# ----------------------------------------------------------------------
# The server child and the client
# ----------------------------------------------------------------------

def start_server() -> Tuple[subprocess.Popen, str, int]:
    """Spawn ``repro serve`` on a free port; wait for its ready line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
         "--port", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        line = read_line(proc)
        if not line.startswith("listening on http://"):
            raise RuntimeError(f"server printed {line!r} instead of ready")
        host, port = line.strip()[len("listening on http://"):].rsplit(":", 1)
        return proc, host, int(port)
    except BaseException:
        stop_process(proc)
        raise


def _post(conn: http.client.HTTPConnection, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", "/v1/estimate", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def cold_start() -> float:
    """Spawn to ready line plus the first 200 answer, in seconds."""
    started = time.perf_counter()
    proc, host, port = start_server()
    try:
        conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
        try:
            status, _ = _post(conn, SETUP_BODY)
        finally:
            conn.close()
        elapsed = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"first request answered {status}")
        return elapsed
    finally:
        stop_process(proc)


def _drive(host: str, port: int, seed: int) -> Tuple[List[tuple], Dict]:
    """One episode's closed loop: ``(body, repeat, status, seconds,
    payload)`` rows and the server's ``/v1/stats`` afterwards."""
    rows: List[tuple] = []
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
    try:
        for body, repeat in request_stream(seed):
            sent = time.perf_counter()
            try:
                status, payload = _post(conn, body)
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(host, port,
                                                  timeout=HTTP_TIMEOUT_S)
                status, payload = 0, b""
            rows.append((body, repeat, status, time.perf_counter() - sent,
                         payload))
        conn.request("GET", "/v1/stats")
        stats = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    return rows, stats


def episode(seed: int) -> Dict[str, object]:
    """The seed's stream against a fresh server, and its peak memory."""
    proc, host, port = start_server()
    try:
        rows, stats = _drive(host, port, seed)
        rss = process_peak_rss_mb(proc.pid)
    finally:
        stop_process(proc)
    return {"rows": rows, "stats": stats, "rss": rss}


# ----------------------------------------------------------------------
# In-process replay (the output check, and the traced per-layer split)
# ----------------------------------------------------------------------

def _install(tracer: Tracer) -> None:
    from repro.api import executor
    from repro.api.report import Report
    from repro.api.session import Session
    from repro.core.model import DeltaModel
    from repro.server import schemas

    calls = lambda a, k, r: {"core.model.estimate_calls": 1}  # noqa: E731
    tracer.wrap(schemas, "parse_body", "server.schemas.parse_body")
    tracer.wrap(Session, "run", "api.session.run")
    tracer.wrap(executor, "get_network", "networks.registry.get_network")
    tracer.wrap(DeltaModel, "estimate", "core.model.estimate", calls)
    tracer.wrap(DeltaModel, "estimate_pass", "core.model.estimate", calls)
    tracer.wrap(Report, "to_json", "api.report.to_json",
                lambda a, k, r: {"api.report.bytes": len(r.encode())})


def replay(bodies: List[bytes],
           tracer: Optional[Tracer]) -> Tuple[Dict[bytes, str], float]:
    """Run each body as the server would (parse, run, serialize) in this
    process; returns each body's report content and the time it took."""
    from repro.api.session import Session
    from repro.server import schemas

    contents: Dict[bytes, str] = {}
    session = Session()
    elapsed = 0.0
    try:
        for index, body in enumerate(bodies):
            started = time.perf_counter()
            if tracer is not None:
                with tracer.span("request", request=index):
                    report = session.run(
                        schemas.parse_body("estimate", body).request)
                    report.to_json(indent=2)
            else:
                report = session.run(
                    schemas.parse_body("estimate", body).request)
                report.to_json(indent=2)
            elapsed += time.perf_counter() - started
            contents[body] = report.content_json()
    finally:
        session.close()
    return contents, elapsed


def _check(outcome: Outcome, result: Dict[str, object],
           expected: Dict[bytes, str], verified: Dict[bytes, bytes]
           ) -> List[float]:
    """Count failed requests of one episode and check the server's memo
    counters; returns the misses' HTTP overheads (round trip minus the
    report's own ``meta.timing.total_ms``)."""
    from repro.api.report import Report

    rows = result["rows"]
    overheads: List[float] = []
    for body, repeat, status, seconds, payload in rows:
        outcome.attempted += 1
        if status != 200:
            outcome.failed += 1
            continue
        if verified.get(body) == payload:
            continue
        report = Report.from_json(payload.decode("utf-8"))
        if not outcome.check("content_matches_in_process",
                             report.content_json() == expected[body]):
            outcome.failed += 1
            continue
        verified[body] = payload
        if not repeat:
            overheads.append(seconds * 1e3 - report.meta["timing"]["total_ms"])
    cache = result["stats"]["server"]["request_cache"]
    repeats = sum(1 for row in rows if row[1])
    outcome.check("memo_hits_equal_repeats", cache["memo_hits"] == repeats)
    outcome.check("executions_equal_fresh",
                  cache["executed"] == len(rows) - repeats)
    return overheads


def _rate(episodes: List[Dict[str, object]]) -> float:
    """Requests per second, each request at its fastest episode."""
    return EPISODE_REQUESTS / best_total(
        [[row[3] for row in result["rows"]] for result in episodes])


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    metrics = outcome.metrics
    if tracer is None:
        metrics["setup_s"] = cold_starts(cold_start, outcome)

    budget = Budget(seconds, minimum=2,
                    fixed=TRACED_EPISODES if tracer is not None else None)
    episodes: List[Dict[str, object]] = []
    while budget.more(len(episodes)):
        episodes.append(episode(seed))

    fresh = [row[0] for row in episodes[0]["rows"] if not row[1]]
    expected, _ = replay(fresh, None)
    verified: Dict[bytes, bytes] = {}
    overheads = [overhead for result in episodes
                 for overhead in _check(outcome, result, expected, verified)]
    rows = [row for result in episodes for row in result["rows"]
            if row[2] == 200]
    latencies = [row[3] * 1e3 for row in rows]
    hits = [row[3] * 1e3 for row in rows if row[1]]
    misses = [row[3] * 1e3 for row in rows if not row[1]]
    p99, beyond = percentile(latencies, 99)
    outcome.notes["stream"] = (
        f"{len(episodes)} episodes of {EPISODE_REQUESTS} requests "
        f"({len(fresh)} fresh); p99 of {len(latencies)} samples has "
        f"{beyond} beyond it")
    outcome.notes["samples"] = json.dumps(
        [[row[3] for row in result["rows"]] for result in episodes])
    if tracer is None:
        metrics["peak_rss_mb"] = max(result["rss"] for result in episodes)
        metrics["items_per_s"] = _rate(episodes)
        return outcome

    _, untraced_s = replay(fresh, None)
    _install(tracer)
    try:
        traced_contents, traced_s = replay(fresh, tracer)
    finally:
        tracer.restore()
    outcome.check("traced_replay_matches", traced_contents == expected)
    groups = tracer.groups()
    for metric, span in (
            ("server.schemas.parse_body_ms", "server.schemas.parse_body"),
            ("api.session.run_ms", "api.session.run"),
            ("networks.registry.get_network_ms",
             "networks.registry.get_network"),
            ("core.model.estimate_ms", "core.model.estimate"),
            ("api.report.to_json_ms", "api.report.to_json")):
        metrics[metric] = median([g.ms.get(span, 0.0) for g in groups])
    for count in ("core.model.estimate_calls", "api.report.bytes"):
        metrics[count] = sum(g.counts.get(count, 0) for g in groups)
    cache = episodes[0]["stats"]["server"]["request_cache"]
    metrics["server.coalesce.hits"] = cache["memo_hits"]
    metrics["server.coalesce.misses"] = cache["executed"]
    metrics["server.coalesce.hit_share"] = (
        cache["memo_hits"] / (cache["memo_hits"] + cache["executed"]))
    metrics["server.client.hit_p50_ms"] = median(hits)
    metrics["server.client.miss_p50_ms"] = median(misses)
    metrics["server.client.miss_p99_ms"] = percentile(misses, 99)[0]
    metrics["server.http.overhead_p50_ms"] = median(overheads)
    metrics["serve_rps"] = _rate(episodes)
    metrics["serve_p50_ms"] = median(latencies)
    metrics["serve_p99_ms"] = p99
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    return outcome
