"""JSON round-trip and byte-pin tests for Report."""

import hashlib
import json
import math

import pytest

from repro.api import (
    EstimateRequest,
    ExperimentRequest,
    Report,
    Session,
    ValidateRequest,
)
from repro.experiments.registry import FAST_EXPERIMENTS, run_experiment


def assert_numerically_equal(left, right, path="$"):
    """Deep equality where floats compare exactly and NaN == NaN."""
    assert type(left) is type(right), f"{path}: {type(left)} != {type(right)}"
    if isinstance(left, dict):
        assert left.keys() == right.keys(), path
        for key in left:
            assert_numerically_equal(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            assert_numerically_equal(a, b, f"{path}[{index}]")
    elif isinstance(left, float):
        assert (math.isnan(left) and math.isnan(right)) or left == right, path
    else:
        assert left == right, path


#: three experiments whose serialized output the round-trip tests cover —
#: a spec table (ints/strings), a tile sweep (bools) and the scaling study
#: (floats and per-option series).
ROUND_TRIP_EXPERIMENTS = ("tab01", "fig06", "fig16")


class TestExperimentResultRoundTrip:
    @pytest.mark.parametrize("experiment_id", ROUND_TRIP_EXPERIMENTS)
    def test_to_json_parses_back_numerically_equal(self, experiment_id):
        result = run_experiment(experiment_id)
        parsed = Report.from_json(result.to_json())
        assert parsed.kind == "experiment"
        assert parsed.report_id == result.report_id == experiment_id
        assert_numerically_equal(parsed.to_dict(), result.to_dict())
        # the parsed result renders to the identical text report.
        assert parsed.render() == result.render()

    def test_payload_is_plain_data(self):
        payload = run_experiment("tab01").to_dict()
        # json.dumps with default= disabled would raise on non-plain types.
        json.dumps(payload)


class TestReportRoundTrip:
    @pytest.mark.parametrize("experiment_id", ROUND_TRIP_EXPERIMENTS)
    def test_experiment_reports(self, experiment_id):
        with Session() as session:
            report = session.run(ExperimentRequest(experiment_id))
        parsed = Report.from_json(report.to_json())
        assert_numerically_equal(parsed.to_dict(), report.to_dict())
        assert parsed.render() == report.render()

    def test_estimate_report(self):
        with Session() as session:
            report = session.run(EstimateRequest("vgg16", gpu="p100",
                                                 batch=16, unique=True))
        parsed = Report.from_json(report.to_json(indent=2))
        assert_numerically_equal(parsed.to_dict(), report.to_dict())

    def test_validation_report(self):
        request = ValidateRequest(gpu="titanxp", batch=2, max_ctas=30,
                                  layers_per_network=1,
                                  networks=("alexnet",))
        with Session() as session:
            report = session.run(request)
        parsed = Report.from_json(report.to_json())
        assert_numerically_equal(parsed.to_dict(), report.to_dict())

    def test_error_report_round_trips_bit_identically(self):
        """A failure report — traceback, cause chain and all — survives
        to_json/from_json with byte-identical serialization."""
        request = EstimateRequest("alexnet", batch=8)
        try:
            try:
                raise KeyError("missing layer")
            except KeyError as inner:
                raise ValueError("estimation failed") from inner
        except ValueError as exc:
            report = Report.from_error(exc, request=request)
        assert report.kind == "error"
        assert report.title == ("EstimateRequest failed: ValueError: "
                                "estimation failed")
        assert report.summary == {"error": "ValueError",
                                  "message": "estimation failed"}
        assert report.meta["cause"] == ["ValueError: estimation failed",
                                        "KeyError: 'missing layer'"]
        assert "test_api_report" in report.meta["traceback"]
        assert report.meta["request"] == "EstimateRequest"

        text = report.to_json()
        parsed = Report.from_json(text)
        assert parsed.to_json() == text  # bit-identical
        assert_numerically_equal(parsed.to_dict(), report.to_dict())
        assert parsed.render() == report.render()

    def test_error_report_from_session_run_many(self):
        with Session() as session:
            [report] = session.run_many([EstimateRequest("no-such-net")])
        assert report.kind == "error"
        text = report.to_json()
        assert Report.from_json(text).to_json() == text

    def test_schema_version_checked(self):
        payload = Report(kind="estimate", title="x").to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError):
            Report.from_dict(payload)


#: sha256 of an experiment report's ``content_json()`` and of its
#: ``render()`` text, per experiment; fig13 runs at the tiny validation scale
#: ``PINNED_FIG13_SCALE``.  Never regenerate these: they pin the served and
#: printed bytes of every fast experiment.
EXPERIMENT_DIGESTS = {
    "dse": ("ebefb8a6354ab7261c28c5d27f34d5584e6cfced0a5f951fb61bc9f1ae58fd7c",
           "8e3a8ff1f930d4bc5b32932da80d3067e0144fb2d9b080a239ff32ce4683d9e5"),
    "fig06": ("a36e32559d6f59b79ee64216f84cfb4e46035afaac087c68ff30cc3f1d0453d8",
             "bfd70fce6f867a4813400fe5b1630bf20f2bf0844260e2cdcfe2fa343adf8a28"),
    "fig16": ("e19247c2a8a3749a9b4c168aa26faaa7caaeb5cd450d98f803995df08402f221",
             "8fc744e9d099f2ea78c79489ee955285772a8257ce78431c6bd5c6977cb6c4d8"),
    "fig18": ("f7ff47ca0883feffccd88b297e8d2272838048f86123b550566b2ceb0fcec402",
             "7afb0ced32be32d3caaa2fc5f14bdaad22aa5313d646664f00776cd533612cd5"),
    "tab01": ("be52d3722382e639d88d153f175cf5fc6f5e691cefa0c1726bbf0b1f978b53ea",
             "a313cd059290adce35f890d1eccd67d7463da3043142cf4e3b65720aa36acc37"),
    "training": ("6437a5a6a8345a53be23a4c09951f727f6df8104b4aa88679de6b0c0e18881ff",
                "af026883d244a9e1f44106aaeecb843511a07328da5330924c0556f5e32ce153"),
    "transformer": ("ddbd6016580ff13efaa53f84ddde746af186795d6adfd7d9838ad45148ddf881",
                   "d9eb59b380d7d6d530c0eb7f38f6d62d508af0936dd0c3232daacb6cd88398ae"),
    "fig13": ("8897d088b24a4883f1789b35958a8443844ad3ea5606cfff17021fc71debc7c5",
             "11405f17031040205ed84af5e4777627cc03fde4c785f8f6463774c8402ec56d"),
}

PINNED_FIG13_SCALE = dict(batch=4, max_ctas=40, layers_per_network=1)


class TestExperimentDigests:
    def test_every_fast_experiment_is_pinned(self):
        assert set(FAST_EXPERIMENTS) | {"fig13"} == set(EXPERIMENT_DIGESTS)

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_DIGESTS))
    def test_content_and_text_bytes(self, experiment_id):
        overrides = PINNED_FIG13_SCALE if experiment_id == "fig13" else {}
        with Session() as session:
            report = session.run(ExperimentRequest(experiment_id, **overrides))
        content = hashlib.sha256(report.content_json().encode()).hexdigest()
        text = hashlib.sha256(report.render().encode()).hexdigest()
        assert (content, text) == EXPERIMENT_DIGESTS[experiment_id]
