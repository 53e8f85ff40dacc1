"""Job lifecycle: submission, coalescing, polling, NDJSON event streams."""

import asyncio
import http.client
import json
import time

import pytest

from repro.api import Report, Session
from repro.server import Job, JobManager, ServerThread, create_app
from server_utils import asgi_request


def make_report(kind="sweep", title="done"):
    return Report(kind=kind, title=title)


class TestJobManagerUnit:
    def test_lifecycle_and_events(self):
        async def scenario():
            manager = JobManager()
            release = asyncio.Event()

            async def execute(job: Job) -> Report:
                job.post({"event": "progress", "done": 1, "total": 1})
                await release.wait()
                return make_report()

            job, coalesced = manager.submit("sweep", "key-1", execute)
            assert not coalesced
            assert job.status == "running"
            assert job.describe()["events_url"].endswith("/events")
            assert "report_url" not in job.describe()
            release.set()
            events = [event async for event in job.stream_events()]
            assert [e["event"] for e in events] == \
                ["started", "progress", "done"]
            assert job.status == "done"
            assert job.describe()["report_url"] == \
                f"/v1/jobs/{job.job_id}/report"

        asyncio.run(scenario())

    def test_same_key_coalesces_onto_the_running_job(self):
        async def scenario():
            manager = JobManager()
            release = asyncio.Event()

            async def execute(job: Job) -> Report:
                await release.wait()
                return make_report()

            first, coalesced_first = manager.submit("sweep", "k", execute)
            second, coalesced_second = manager.submit("sweep", "k", execute)
            assert second is first
            assert (coalesced_first, coalesced_second) == (False, True)
            release.set()
            await asyncio.sleep(0.05)
            # once finished, the same key starts a fresh job.
            third, coalesced_third = manager.submit("sweep", "k", execute)
            assert third is not first and not coalesced_third
            release.set()
            async for _ in third.stream_events():
                pass

        asyncio.run(scenario())

    def test_executor_exception_becomes_an_error_report(self):
        async def scenario():
            manager = JobManager()

            async def execute(job: Job) -> Report:
                raise RuntimeError("the job blew up")

            job, _ = manager.submit("sweep", "k", execute)
            events = [event async for event in job.stream_events()]
            assert events[-1]["status"] == "error"
            assert job.report.kind == "error"
            assert "the job blew up" in job.report.meta["error_message"]

        asyncio.run(scenario())

    def test_finished_jobs_are_trimmed(self):
        async def scenario():
            manager = JobManager(max_finished=2)

            async def execute(job: Job) -> Report:
                return make_report()

            jobs = [manager.submit("sweep", f"k{i}", execute)[0]
                    for i in range(4)]
            for job in jobs:
                async for _ in job.stream_events():
                    pass
            await asyncio.sleep(0.05)
            assert len(manager) == 2
            assert manager.get(jobs[0].job_id) is None
            assert manager.get(jobs[-1].job_id) is jobs[-1]

        asyncio.run(scenario())

    def test_late_subscriber_replays_the_full_history(self):
        async def scenario():
            manager = JobManager()

            async def execute(job: Job) -> Report:
                job.post({"event": "progress", "done": 1, "total": 1})
                return make_report()

            job, _ = manager.submit("sweep", "k", execute)
            async for _ in job.stream_events():
                pass
            replay = [event async for event in job.stream_events()]
            assert [e["event"] for e in replay] == \
                ["started", "progress", "done"]

        asyncio.run(scenario())


@pytest.fixture
def server():
    session = Session()
    app = create_app(session)
    with ServerThread(app) as running:
        yield running, app
    session.close()


def _http(server, method, path, body=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestJobRoutes:
    def test_job_request_roundtrip_with_progress_stream(self, server):
        running, app = server
        status, raw = _http(running, "POST", "/v1/sweep",
                            body={"networks": ["alexnet"],
                                  "gpus": ["titanxp"],
                                  "batches": [16, 32], "job": True})
        assert status == 202
        submitted = json.loads(raw)
        assert submitted["status"] == "running"
        job_id = submitted["job_id"]

        # stream the NDJSON events to completion.
        conn = http.client.HTTPConnection(running.host, running.port,
                                          timeout=120)
        try:
            conn.request("GET", submitted["events_url"])
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "application/x-ndjson"
            events = []
            while True:
                line = response.readline()
                if not line:
                    break
                events.append(json.loads(line))
        finally:
            conn.close()
        names = [event["event"] for event in events]
        assert names[0] == "started" and names[-1] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, "sweep must emit per-combination progress"
        assert progress[-1]["done"] == progress[-1]["total"] == 2
        assert events[-1]["status"] == "done"

        # poll + report, and the report matches a synchronous run.
        status, raw = _http(running, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        assert json.loads(raw)["status"] == "done"
        status, job_body = _http(running, "GET", f"/v1/jobs/{job_id}/report")
        assert status == 200
        status, sync_body = _http(running, "POST", "/v1/sweep",
                                  body={"networks": ["alexnet"],
                                        "gpus": ["titanxp"],
                                        "batches": [16, 32]})
        assert status == 200
        assert job_body == sync_body  # one execution, shared via the memo
        assert app.session.stats.requests_run == 1

    def test_job_after_sync_request_is_answered_from_the_memo(self, server):
        running, app = server
        body = {"network": "googlenet", "batch": 16, "passes": "training"}
        status, sync_body = _http(running, "POST", "/v1/estimate", body=body)
        assert status == 200
        status, raw = _http(running, "POST", "/v1/estimate",
                            body=dict(body, job=True))
        assert status == 202
        job_id = json.loads(raw)["job_id"]
        for _ in range(600):
            status, raw = _http(running, "GET", f"/v1/jobs/{job_id}")
            polled = json.loads(raw)
            if polled["status"] != "running":
                break
            time.sleep(0.05)
        assert polled["status"] == "done"
        # the job's report is rebuilt from the memoized bytes: equal to the
        # synchronous report, and it encodes back to the same body.
        assert Report.from_dict(polled["report"]) == \
            Report.from_json(sync_body.decode())
        status, job_body = _http(running, "GET", f"/v1/jobs/{job_id}/report")
        assert (status, job_body) == (200, sync_body)
        assert app.cache.stats.executed == 1
        assert app.cache.stats.memo_hits == 1
        assert app.session.stats.requests_run == 1

    def test_finished_job_is_encoded_once_across_polls(self, server,
                                                       monkeypatch):
        running, _ = server
        calls = []
        to_json, to_dict = Report.to_json, Report.to_dict

        def counting_json(report, indent=None):
            calls.append("to_json")
            return to_json(report, indent=indent)

        def counting_dict(report):
            calls.append("to_dict")
            return to_dict(report)

        monkeypatch.setattr(Report, "to_json", counting_json)
        monkeypatch.setattr(Report, "to_dict", counting_dict)
        status, raw = _http(running, "POST", "/v1/sweep",
                            body={"networks": ["alexnet"],
                                  "gpus": ["titanxp"], "batches": [16],
                                  "job": True})
        assert status == 202
        job_id = json.loads(raw)["job_id"]
        for _ in range(600):
            status, raw = _http(running, "GET", f"/v1/jobs/{job_id}")
            if json.loads(raw)["status"] != "running":
                break
            time.sleep(0.05)
        polls = [_http(running, "GET", f"/v1/jobs/{job_id}")
                 for _ in range(3)]
        reports = [_http(running, "GET", f"/v1/jobs/{job_id}/report")
                   for _ in range(3)]
        assert polls[0][0] == 200 and json.loads(polls[0][1])["status"] \
            == "done"
        assert polls[1:] == polls[:1] * 2
        assert reports[0][0] == 200 and reports[1:] == reports[:1] * 2
        # one encoding by the execution; the polls encode nothing more.
        assert calls.count("to_json") == 1
        encoded = len(calls)
        for path in (f"/v1/jobs/{job_id}", f"/v1/jobs/{job_id}/report"):
            assert _http(running, "GET", path) in polls + reports
        assert len(calls) == encoded
        assert Report.from_dict(json.loads(polls[0][1])["report"]) \
            == Report.from_json(reports[0][1].decode("utf-8"))

    def test_unknown_job_is_structured_404(self, server):
        running, _ = server
        status, raw = _http(running, "GET", "/v1/jobs/job-999999")
        assert status == 404
        assert json.loads(raw)["kind"] == "error"
        status, raw = _http(running, "GET", "/v1/jobs/job-999999/events")
        assert status == 404
        status, raw = _http(running, "GET", "/v1/jobs/job-000001/bogus")
        assert status == 404

    def test_jobs_index_lists_submissions(self, server):
        running, _ = server
        _http(running, "POST", "/v1/sweep",
              body={"networks": ["alexnet"], "gpus": ["titanxp"],
                    "batches": [16], "job": True})
        status, raw = _http(running, "GET", "/v1/jobs")
        assert status == 200
        listed = json.loads(raw)["jobs"]
        assert len(listed) == 1 and listed[0]["route"] == "sweep"

    def test_bad_job_body_is_rejected_before_submission(self, server):
        running, app = server
        status, raw = _http(running, "POST", "/v1/sweep",
                            body={"networks": ["nope"], "job": True})
        assert status == 400
        assert json.loads(raw)["kind"] == "error"
        status, raw = _http(running, "GET", "/v1/jobs")
        assert json.loads(raw)["jobs"] == []  # nothing was submitted


class TestJobErrorRoutes:
    def test_error_job_report_is_5xx(self):
        session = Session()
        app = create_app(session)

        async def scenario():
            async def execute(job):
                return Report.from_error(RuntimeError("late failure"))

            app.jobs = JobManager()
            job, _ = app.jobs.submit("sweep", "k", execute)
            async for _ in job.stream_events():
                pass
            status, payload = await _asgi_json(
                app, "GET", f"/v1/jobs/{job.job_id}/report")
            assert status == 500
            assert payload["kind"] == "error"

        asyncio.run(scenario())
        session.close()


async def _asgi_json(app, method, path):
    status, _, raw = await asgi_request(app, method, path)
    return status, json.loads(raw)
