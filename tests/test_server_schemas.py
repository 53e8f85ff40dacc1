"""The service's strict body-to-request deserialization layer."""

import dataclasses
import inspect
import json

import pytest

from repro import cli
from repro.api import (DseRequest, EstimateRequest, ExperimentRequest,
                       SweepRequest, ValidateRequest)
from repro.dse.space import default_space
from repro.server import ROUTES, BadRequest, parse_body


def parse(route, body):
    return parse_body(route, json.dumps(body).encode())


def key_of(route, body):
    return parse(route, body).key


class TestParseBody:
    def test_unknown_route(self):
        with pytest.raises(BadRequest, match="unknown request route"):
            parse_body("teleport", b"{}")

    def test_invalid_json(self):
        with pytest.raises(BadRequest, match="not valid JSON"):
            parse_body("estimate", b"{network:")

    def test_non_object_body(self):
        with pytest.raises(BadRequest, match="must be a JSON object"):
            parse_body("estimate", b"[1, 2]")

    def test_empty_body_means_defaults(self):
        # sweep has defaults for everything; an empty body is a valid sweep.
        parsed = parse_body("sweep", b"")
        assert isinstance(parsed.request, SweepRequest)
        assert parsed.request.networks == ("alexnet", "vgg16", "googlenet",
                                           "resnet152")

    def test_empty_body_still_enforces_required_fields(self):
        with pytest.raises(BadRequest, match="'network' is required"):
            parse_body("estimate", b"")


class TestEstimate:
    def test_defaults(self):
        parsed = parse("estimate", {"network": "alexnet"})
        request = parsed.request
        assert isinstance(request, EstimateRequest)
        assert (request.gpu, request.batch) == ("titanxp", 256)
        assert not parsed.as_job

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="bacth"):
            parse("estimate", {"network": "alexnet", "bacth": 64})

    def test_unknown_network_rejected_at_parse_time(self):
        with pytest.raises(BadRequest, match="unknown network 'lenet9000'"):
            parse("estimate", {"network": "lenet9000"})

    def test_unknown_gpu_rejected_at_parse_time(self):
        with pytest.raises(BadRequest, match="estimate"):
            parse("estimate", {"network": "alexnet", "gpu": "rtx9090"})

    def test_type_errors_are_bad_requests(self):
        with pytest.raises(BadRequest, match="'batch' must be an integer"):
            parse("estimate", {"network": "alexnet", "batch": "many"})
        with pytest.raises(BadRequest, match="'batch' must be an integer"):
            parse("estimate", {"network": "alexnet", "batch": True})
        with pytest.raises(BadRequest, match="'unique' must be a boolean"):
            parse("estimate", {"network": "alexnet", "unique": 1})

    def test_constructor_errors_become_bad_requests(self):
        with pytest.raises(BadRequest, match="estimate"):
            parse("estimate", {"network": "alexnet", "batch": -4})
        with pytest.raises(BadRequest, match="estimate"):
            parse("estimate", {"network": "alexnet", "passes": "sideways"})

    def test_job_flag(self):
        assert parse("estimate", {"network": "alexnet", "job": True}).as_job
        with pytest.raises(BadRequest, match="'job' must be a boolean"):
            parse("estimate", {"network": "alexnet", "job": "yes"})


class TestContentKeys:
    def test_normalization_shares_a_key(self):
        base = key_of("estimate", {"network": "alexnet"})
        assert key_of("estimate", {"network": "AlexNet"}) == base
        assert key_of("estimate", {"network": "alexnet",
                                   "gpu": "TitanXP"}) == base
        # explicit defaults normalize onto the omitted-field key.
        assert key_of("estimate", {"network": "alexnet", "gpu": "titanxp",
                                   "batch": 256, "unique": False}) == base

    def test_differing_requests_differ(self):
        base = key_of("estimate", {"network": "alexnet"})
        assert key_of("estimate", {"network": "alexnet",
                                   "batch": 64}) != base
        assert key_of("estimate", {"network": "vgg16"}) != base

    def test_job_flag_does_not_change_the_key(self):
        assert key_of("estimate", {"network": "alexnet", "job": True}) == \
            key_of("estimate", {"network": "alexnet"})

    def test_route_is_part_of_the_key(self):
        # same field values through different routes must never collide.
        assert key_of("validate", {"gpu": "titanxp"}) != \
            key_of("dse", {"gpu": "titanxp"})


class TestSweep:
    def test_defaults_match_cli(self):
        request = parse("sweep", {}).request
        assert isinstance(request, SweepRequest)
        assert request.gpus == ("titanxp", "v100")
        assert request.batches == (64, 256)
        assert request.unique and request.paper_subset

    def test_scalar_promotes_to_list(self):
        request = parse("sweep", {"networks": "alexnet", "batches": 32}).request
        assert request.networks == ("alexnet",)
        assert request.batches == (32,)

    def test_bad_batches(self):
        with pytest.raises(BadRequest, match="'batches'"):
            parse("sweep", {"batches": ["a lot"]})
        with pytest.raises(BadRequest, match="'batches'"):
            parse("sweep", {"batches": []})


class TestValidate:
    def test_defaults(self):
        request = parse("validate", {}).request
        assert isinstance(request, ValidateRequest)
        assert (request.gpu, request.batch) == ("titanxp", 32)
        assert request.max_ctas == 180 and request.layers_per_network == 4

    def test_execution_policy_fields(self):
        # execution policy lives on the Session only: a body that names
        # timeout or retries gets the unknown-field 400, naming the field.
        for name, value in (("timeout", 2), ("retries", 0)):
            with pytest.raises(BadRequest,
                               match=rf"unknown field\(s\) \['{name}'\]"):
                parse("validate", {name: value})

    def test_unknown_network_in_list(self):
        with pytest.raises(BadRequest, match="unknown network"):
            parse("validate", {"networks": ["alexnet", "squeezenet"]})

    @pytest.mark.parametrize("field", ["max_ctas", "layers_per_network"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_counts_rejected(self, field, value):
        with pytest.raises(BadRequest, match=rf"validate: {field} must be"):
            parse("validate", {field: value})

    def test_null_counts_mean_all(self):
        request = parse("validate", {"max_ctas": None,
                                     "layers_per_network": None}).request
        assert request.max_ctas is None and request.layers_per_network is None


class TestExperiment:
    def test_required_experiment_id(self):
        with pytest.raises(BadRequest, match="'experiment' is required"):
            parse("experiment", {})

    def test_unknown_experiment(self):
        with pytest.raises(BadRequest, match="unknown experiment"):
            parse("experiment", {"experiment": "table99"})

    def test_known_experiment(self):
        parsed = parse("experiment", {"experiment": "tab01", "batch": 8})
        assert isinstance(parsed.request, ExperimentRequest)
        assert parsed.request.experiment == "tab01"

    @pytest.mark.parametrize("field", ["max_ctas", "layers_per_network"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_counts_rejected(self, field, value):
        with pytest.raises(BadRequest, match=rf"experiment: {field} must be"):
            parse("experiment", {"experiment": "fig13", field: value})


class TestDse:
    def test_default_space_is_the_stock_grid(self):
        parsed = parse("dse", {})
        assert isinstance(parsed.request, DseRequest)
        assert parsed.request.gpu == "titanxp"
        assert len(list(parsed.request.space.points())) > 1

    def test_explicit_axes(self):
        parsed = parse("dse", {"axes": {"num_sm": [1, 2], "cta_tile": 128}})
        points = list(parsed.request.space.points())
        assert len(points) == 2  # cta_tile scalar promoted, 2 x 1 grid

    def test_axes_must_be_an_object(self):
        with pytest.raises(BadRequest, match="'axes' must be a non-empty"):
            parse("dse", {"axes": [1, 2]})
        with pytest.raises(BadRequest, match="'axes' must be a non-empty"):
            parse("dse", {"axes": {}})

    def test_bad_axis_key(self):
        with pytest.raises(BadRequest, match="bad axis"):
            parse("dse", {"axes": {"warp_speed": [1, 2]}})

    def test_multiple_networks_become_an_axis(self):
        parsed = parse("dse", {"axes": {"num_sm": [1, 2]},
                            "networks": ["alexnet", "vgg16"]})
        assert len(list(parsed.request.space.points())) == 4

    def test_axes_change_the_key(self):
        assert key_of("dse", {"axes": {"num_sm": [1, 2]}}) != \
            key_of("dse", {"axes": {"num_sm": [1, 4]}})

    def test_unknown_driver_rejected(self):
        with pytest.raises(BadRequest, match="dse"):
            parse("dse", {"driver": "simulated-annealing"})


#: (route, body, content key) computed by the hand-written per-route parsers
#: the route table replaced; keys must never drift (memo identity).  The
#: validate, experiment and dse keys are the sha1 of the same canonical
#: payloads minus the removed "timeout" and "retries" fields.
PINNED_KEYS = [
    ("estimate", {"network": "alexnet"},
     "22e6212cde4889d6f166979a3931023d802c2476"),
    ("estimate", {"network": "AlexNet", "gpu": "V100", "batch": 64,
                  "unique": True, "paper_subset": True, "passes": "Training"},
     "ca7c5f02f30c536cdabd587b90e997073776ea37"),
    ("sweep", {}, "d60f6304c9ef5841c466d89e4cafab2acf381535"),
    ("sweep", {"networks": "alexnet", "gpus": ["V100"], "batches": 32,
               "unique": False, "paper_subset": False, "passes": "wgrad"},
     "9a3aaa99b8963180040fa384aca9875907482daf"),
    ("validate", {}, "b1c65dcc5c643cb0c98668c1097de89067fd6167"),
    ("validate", {"gpu": "v100", "batch": 8, "max_ctas": None,
                  "layers_per_network": None, "networks": ["alexnet", "VGG16"]},
     "70cd6cd4baf171c9fce932a7d98812b77c74e874"),
    ("experiment", {"experiment": "tab01"},
     "fd77a8abbbfe9170bd6429f1876946f2642a2fdd"),
    ("experiment", {"experiment": "FIG11", "gpus": "titanxp",
                    "networks": ["alexnet"], "batch": 8, "max_ctas": 10,
                    "layers_per_network": 2},
     "5d8614f646d3ae63bceb39006a6c1753c9d271f8"),
    ("dse", {}, "93cd8cd13a5d62d8e6887dd3061984ec2d4c95c7"),
    ("dse", {"gpu": "V100", "networks": ["alexnet", "vgg16"],
             "batches": [16, 32], "passes": "Training", "driver": "random",
             "budget": 10, "seed": 3, "objectives": ["throughput"],
             "unique": False, "confirm_top": 1},
     "ad82886f7e10c3e45bcc754fbcfdcba0b3db1326"),
    ("dse", {"axes": {"num_sm": [1, 2]}, "networks": ["alexnet", "vgg16"]},
     "214fc8cfb7ae768c98aeda415c49f7f83086bcd1"),
    ("dse", {"axes": {"network": ["AlexNet", "vgg16"], "batch": [4, 8]},
             "networks": ["alexnet", "vgg16"], "batches": [1, 2]},
     "8eea08babdd467ba8cd0f993937af83d856d6258"),
    ("dse", {"driver": "halving", "budget": 5,
             "axes": {"dram_bw": [1, 2], "passes": ["forward", "dgrad"]}},
     "3621c6cf68d53abd8cd8b1bf98b3ea156642b0da"),
]

#: the smallest valid body of each route.
MINIMAL = {"estimate": {"network": "alexnet"}, "sweep": {}, "validate": {},
           "experiment": {"experiment": "tab01"}, "dse": {}}


class TestPinnedKeys:
    @pytest.mark.parametrize("route,body,key", PINNED_KEYS,
                             ids=[f"{route}-{i}" for i, (route, _, _)
                                  in enumerate(PINNED_KEYS)])
    def test_key_is_pinned(self, route, body, key):
        assert key_of(route, body) == key


def _defaults(route):
    """Every body field of ``route`` set to its declared default."""
    cls, hidden = ROUTES[route]
    body = {f.name: f.default for f in dataclasses.fields(cls)
            if f.name not in hidden and f.default is not dataclasses.MISSING}
    if "space" in hidden:
        body.update((name, param.default) for name, param in
                    inspect.signature(default_space).parameters.items())
    return body


class TestRouteTableDriftGuard:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_request_field_is_a_body_field(self, route):
        cls, hidden = ROUTES[route]
        names = {f.name for f in dataclasses.fields(cls)} - set(hidden)
        assert names <= set(MINIMAL[route]) | set(_defaults(route))
        for name, value in _defaults(route).items():
            parse(route, {**MINIMAL[route], name: value})

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_explicit_defaults_share_the_minimal_key(self, route):
        body = {**_defaults(route), **MINIMAL[route]}
        assert key_of(route, body) == key_of(route, MINIMAL[route])

    def test_hidden_fields_are_unknown_fields(self):
        with pytest.raises(BadRequest, match="unknown field"):
            parse("dse", {"store_path": "/tmp/owned.jsonl"})
        with pytest.raises(BadRequest, match="unknown field"):
            parse("dse", {"space": {}})
        with pytest.raises(BadRequest, match="unknown field"):
            parse("experiment", {"experiment": "tab01", "options": {}})


#: fields whose annotation is not Optional: JSON null is a 400 there.
NON_NULLABLE = {
    "estimate": ["network", "gpu", "batch", "unique", "paper_subset",
                 "passes"],
    "sweep": ["networks", "gpus", "batches", "unique", "paper_subset",
              "passes"],
    "validate": ["gpu", "batch"],
    "experiment": ["experiment"],
    "dse": ["gpu", "networks", "batches", "passes", "driver", "seed",
            "objectives", "unique", "confirm_top"],
}
NULLABLE = {
    "validate": ["max_ctas", "layers_per_network", "networks"],
    "experiment": ["gpus", "networks", "batch", "max_ctas",
                   "layers_per_network"],
    "dse": ["budget"],
}


def _cases(table):
    return [(route, name) for route, names in table.items()
            for name in names]


class TestNullRule:
    @pytest.mark.parametrize("route,name", _cases(NON_NULLABLE))
    def test_null_is_rejected_where_not_optional(self, route, name):
        with pytest.raises(BadRequest, match=f"{name!r} must not be null"):
            parse(route, {**MINIMAL[route], name: None})

    @pytest.mark.parametrize("route,name", _cases(NULLABLE))
    def test_null_is_accepted_where_optional(self, route, name):
        request = parse(route, {**MINIMAL[route], name: None}).request
        assert getattr(request, name) is None

    def test_null_axes_is_the_stock_grid(self):
        assert key_of("dse", {"axes": None}) == key_of("dse", {})


class TestNonFinite:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_literals_are_rejected(self, literal):
        raw = f'{{"axes": {{"num_sm": [1, {literal}]}}}}'.encode()
        with pytest.raises(BadRequest, match=f"dse: .*{literal}"):
            parse_body("dse", raw)
        with pytest.raises(BadRequest, match="not valid JSON"):
            parse_body("validate", f'{{"batch": {literal}}}'.encode())

    def test_overflowing_numbers_are_rejected(self):
        # 1e400 is valid JSON that decodes to inf.
        with pytest.raises(BadRequest, match="finite"):
            parse_body("dse", b'{"axes": {"num_sm": [1e400]}}')
        with pytest.raises(BadRequest, match="bad axis 'cta_tile'"):
            parse_body("dse", b'{"axes": {"cta_tile": [1e400]}}')
        with pytest.raises(BadRequest, match="'batch' must be an integer"):
            parse_body("validate", b'{"batch": 1e400}')
        with pytest.raises(BadRequest, match="batch must be positive and at "
                                             "most 2147483647"):
            parse_body("validate", b'{"batch": 1%s}' % (b"0" * 400))

    def test_deeply_nested_body_is_rejected(self):
        with pytest.raises(BadRequest, match="not valid JSON"):
            parse_body("estimate", b"[" * 100_000)

    # estimate, sweep and dse "batches" are covered over ASGI in
    # test_server_app.py.
    @pytest.mark.parametrize("route,body", [
        ("validate", {"batch": 2**31}),
        ("experiment", {"experiment": "tab01", "batch": 2**31}),
        ("dse", {"axes": {"batch": [2**40]}}),
    ])
    def test_batch_beyond_the_bound_is_rejected(self, route, body):
        with pytest.raises(BadRequest, match="at most 2147483647"):
            parse(route, body)

    @pytest.mark.parametrize("route", ["validate", "experiment", "dse"])
    def test_timeout_beyond_the_wait_bound_is_rejected(self, route):
        # the bodies that once overrode the server's policy unbounded (or
        # past threading.TIMEOUT_MAX) are unknown-field 400s now.
        for name, value in (("timeout", 1e12), ("retries", 10**18)):
            with pytest.raises(BadRequest, match=f"unknown field.*'{name}'"):
                parse(route, {**MINIMAL[route], name: value})

    def test_largest_batch_is_accepted(self):
        assert parse("estimate", {"network": "alexnet",
                                  "batch": 2**31 - 1}).request.batch == \
            2**31 - 1


class TestOneSpaceBuilder:
    def test_cli_axes_and_dse_body_plan_identical_points(self, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "_run_request",
                            lambda args, build: built.append(build()) or 0)
        cli.main(["dse", "--networks", "AlexNet", "vgg16", "--batches", "16",
                  "32", "--axis", "num_sm=1,2", "--axis", "cta_tile=256",
                  "--pass", "training"])
        served = parse("dse", {"networks": ["AlexNet", "vgg16"],
                               "batches": [16, 32], "passes": "training",
                               "axes": {"num_sm": [1, 2], "cta_tile": 256}})
        cli_points = built[0].space.points()
        served_points = served.request.space.points()
        assert len(cli_points) == 8
        assert list(cli_points) == list(served_points)

    def test_stock_grid_without_axes(self):
        space = parse("dse", {"networks": ["alexnet"]}).request.space
        assert space == default_space(networks=("alexnet",))
