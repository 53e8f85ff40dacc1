"""Route behavior of the service app: payloads, errors, CLI bit-identity."""

import json

import pytest

from repro.api import Session
from repro.api.report import Report
from repro.cli import main
from repro.dse.space import GPU_AXIS_KEYS, MAX_SPACE_POINTS, GridSpace
from repro.server import create_app
from server_utils import json_request, request


@pytest.fixture
def app():
    application = create_app(Session())
    yield application
    application.session.close()


class TestPlumbing:
    def test_healthz(self, app):
        status, payload = json_request(app, "GET", "/healthz")
        assert (status, payload) == (200, {"status": "ok"})

    def test_unknown_route_is_structured_404(self, app):
        status, payload = json_request(app, "GET", "/v2/everything")
        assert status == 404
        assert payload["kind"] == "error"
        assert "/v1/" in payload["meta"]["error_message"]

    def test_wrong_method_is_structured_405(self, app):
        status, payload = json_request(app, "POST", "/healthz", body={})
        assert status == 405
        assert payload["kind"] == "error"
        status, payload = json_request(app, "GET", "/v1/estimate")
        assert status == 405
        assert "use POST" in payload["meta"]["error_message"]

    def test_trailing_slash_is_tolerated(self, app):
        status, _ = json_request(app, "GET", "/v1/networks/")
        assert status == 200


class TestRegistries:
    def test_networks(self, app):
        status, payload = json_request(app, "GET", "/v1/networks")
        assert status == 200
        assert "alexnet" in payload["networks"]
        assert set(payload["paper_subset_variants"]) <= \
            set(payload["networks"])

    def test_gpus(self, app):
        status, payload = json_request(app, "GET", "/v1/gpus")
        assert status == 200
        names = {gpu["name"] for gpu in payload["gpus"]}
        assert "TITAN Xp" in names

    def test_experiments(self, app):
        status, payload = json_request(app, "GET", "/v1/experiments")
        assert status == 200
        ids = {spec["id"] for spec in payload["experiments"]}
        assert "tab01" in ids

    def test_registries_match_cli_list(self, app, capsys):
        main(["list", "--format", "json"])
        cli = json.loads(capsys.readouterr().out)
        _, networks = json_request(app, "GET", "/v1/networks")
        _, gpus = json_request(app, "GET", "/v1/gpus")
        _, experiments = json_request(app, "GET", "/v1/experiments")
        assert networks["networks"] == cli["networks"]
        assert gpus["gpus"] == cli["gpus"]
        assert experiments["experiments"] == cli["experiments"]


class TestEstimateRoute:
    def test_body_matches_cli_json_content(self, app, capsys):
        exit_code = main(["estimate", "--network", "alexnet", "--batch",
                          "32", "--format", "json"])
        assert exit_code == 0
        cli_bytes = capsys.readouterr().out.encode()
        status, _, server_bytes = request(
            app, "POST", "/v1/estimate",
            body={"network": "alexnet", "batch": 32})
        assert status == 200
        # identical content; only the volatile meta["timing"] block differs.
        cli_report = Report.from_json(cli_bytes.decode())
        server_report = Report.from_json(server_bytes.decode())
        assert server_report.content_json(indent=2) \
            == cli_report.content_json(indent=2)
        for report in (cli_report, server_report):
            timing = report.meta["timing"]
            assert timing["total_ms"] >= 0
            assert "phases" in timing

    def test_repeat_hits_the_request_memo(self, app):
        body = {"network": "alexnet", "batch": 32}
        _, _, first = request(app, "POST", "/v1/estimate", body=body)
        _, _, second = request(app, "POST", "/v1/estimate", body=body)
        assert first == second
        assert app.cache.stats.executed == 1
        assert app.cache.stats.memo_hits == 1
        assert app.session.stats.requests_run == 1


class TestStats:
    def test_shape(self, app):
        request(app, "POST", "/v1/estimate",
                body={"network": "alexnet", "batch": 32})
        status, payload = json_request(app, "GET", "/v1/stats")
        assert status == 200
        session = payload["session"]
        # the full resilience counters from the session are surfaced.
        for counter in ("requests_run", "pool_recoveries", "task_retries",
                        "task_failures", "task_timeouts"):
            assert counter in session
        assert session["requests_run"] == 1
        server = payload["server"]
        assert server["request_cache"]["executed"] == 1
        assert server["memo_entries"] == 1
        assert payload["policy"]["jobs"] == 1
        # the sim-cache and DSE counters are surfaced as their own sections.
        assert payload["sim_cache"] == {"hits": 0, "misses": 0}
        assert payload["dse"] == {"points": 0, "memo_hits": 0}


# every POST route must turn a malformed body into a structured 400 — never
# a bare 500 traceback.  One regression per route.
BAD_BODIES = [
    ("estimate", {"network": "made-up-net"}),
    ("sweep", {"batches": ["not-a-number"]}),
    ("validate", {"gpu": "rtx9090"}),
    ("experiment", {"experiment": "fig99"}),
    ("dse", {"axes": {"warp_speed": [1]}}),
]

# nulls on non-Optional fields, client-set execution policy (timeout,
# retries: unknown fields, the session owns them) and non-JSON number
# literals once escaped the parser as 500s (or were accepted).
HOSTILE_BODIES = [
    ("estimate", b'{"network": "alexnet", "gpu": null}'),
    ("validate", b'{"gpu": null}'),
    ("dse", b'{"gpu": null}'),
    ("dse", b'{"driver": null}'),
    ("dse", b'{"seed": null}'),
    ("validate", b'{"timeout": 1e12}'),
    ("validate", b'{"timeout": Infinity}'),
    ("dse", b'{"axes": {"num_sm": [1, NaN]}}'),
]


class TestStructuredErrors:
    @pytest.mark.parametrize("route,body", BAD_BODIES,
                             ids=[route for route, _ in BAD_BODIES])
    def test_bad_body_is_structured_400(self, app, route, body):
        status, payload = json_request(app, "POST", f"/v1/{route}",
                                       body=body)
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["meta"]["error_type"] == "BadRequest"
        assert route in payload["meta"]["error_message"]

    @pytest.mark.parametrize("route", sorted(r for r, _ in BAD_BODIES))
    def test_invalid_json_is_structured_400(self, app, route):
        status, payload = json_request(app, "POST", f"/v1/{route}",
                                       raw_body=b"{nope")
        assert status == 400
        assert payload["kind"] == "error"
        assert "not valid JSON" in payload["meta"]["error_message"]

    @pytest.mark.parametrize("route,raw", HOSTILE_BODIES,
                             ids=[f"{route}-{i}" for i, (route, _)
                                  in enumerate(HOSTILE_BODIES)])
    def test_hostile_body_is_structured_400(self, app, route, raw):
        status, payload = json_request(app, "POST", f"/v1/{route}",
                                       raw_body=raw)
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["meta"]["error_type"] == "BadRequest"
        assert route in payload["meta"]["error_message"]

    @pytest.mark.parametrize("route,name", [
        ("validate", "timeout"), ("validate", "retries"),
        ("experiment", "timeout"), ("experiment", "retries"),
        ("dse", "timeout"), ("dse", "retries")])
    def test_execution_policy_field_is_structured_400(self, app, route,
                                                      name):
        body = {"experiment": "tab01"} if route == "experiment" else {}
        status, payload = json_request(app, "POST", f"/v1/{route}",
                                       body={**body, name: 1})
        assert status == 400
        assert payload["meta"]["error_type"] == "BadRequest"
        assert f"unknown field(s) ['{name}']" in \
            payload["meta"]["error_message"]

    # batches this large overflowed the model's float arithmetic into a 500.
    @pytest.mark.parametrize("route,body", [
        ("estimate", {"network": "alexnet", "batch": 10**20}),
        ("estimate", {"network": "alexnet", "batch": 2**40}),
        ("sweep", {"networks": ["alexnet"], "batches": [10**20]}),
        ("dse", {"networks": ["alexnet"], "batches": [10**20]}),
        ("dse", {"networks": ["alexnet"], "batches": [16, 2**40]}),
    ])
    def test_batch_overflow_is_structured_400(self, app, route, body):
        status, payload = json_request(app, "POST", f"/v1/{route}",
                                       body=body)
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["meta"]["error_type"] == "BadRequest"
        assert "at most 2147483647" in payload["meta"]["error_message"]

    def test_dse_space_over_the_bound_is_400_before_enumeration(
            self, app, monkeypatch):
        def enumerate_nothing(self):
            raise AssertionError("an over-bound space was enumerated")

        monkeypatch.setattr(GridSpace, "table", enumerate_nothing)
        # 12 values on each of the 8 GPU axes: 635 bytes ask for 12^8 points.
        body = {"axes": {key: [1 + 0.25 * i for i in range(12)]
                         for key in GPU_AXIS_KEYS}}
        status, payload = json_request(app, "POST", "/v1/dse", body=body)
        assert status == 400
        assert payload["meta"]["error_type"] == "BadRequest"
        assert (f"{12 ** 8} design points, more than the bound of "
                f"{MAX_SPACE_POINTS}") in payload["meta"]["error_message"]

    def test_error_body_shape_matches_cli_error_report(self, app, capsys):
        exit_code = main(["estimate", "--network", "made-up-net",
                          "--format", "json"])
        assert exit_code == 1
        cli = json.loads(capsys.readouterr().out)
        _, payload = json_request(app, "POST", "/v1/estimate",
                                  body={"network": "made-up-net"})
        assert payload["kind"] == cli["kind"] == "error"
        assert set(payload["meta"]) >= {"error_type", "error_message"}
