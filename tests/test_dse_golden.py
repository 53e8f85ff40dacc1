"""Pinned DSE outcomes: metrics, names, frontiers, stats and reports.

``tests/golden_dse.json`` records, for four sweeps, the sha256 of
``json.dumps`` of every result's metrics dict in result order, the result
and baseline names, the frontier indices and the ``stats`` counts, plus the
``content_json()`` digests of one ``/v1/dse`` report and one
``repro dse --format json`` report.  Metric values are hashed through their
JSON text, so a change in any float bit, dict key order or bottleneck-label
order moves a digest.  Reports carry no store keys, so a store-key schema
bump leaves every digest in place.

Regenerate (only for an intended change of the model's numbers) with
``PYTHONPATH=src:tests python tests/test_dse_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.report import Report
from repro.cli import main
from repro.dse import (ExhaustiveDriver, RandomDriver, SuccessiveHalvingDriver,
                       explore, grid, space_from_options)
from repro.gpu import PAPER_DESIGN_OPTIONS, TITAN_XP

GOLDEN_DSE = Path(__file__).with_name("golden_dse.json")

STAT_FIELDS = ("planned", "evaluated", "memo_hits", "store_hits",
               "proxy_evaluations", "failed", "skipped_failures")

#: a grid that sweeps network, passes and the CTA tile next to two GPU axes.
WORKLOAD_GRID = {"num_sm": (1, 2.5), "mac_bw": (1, 4), "l2_bw": (1, 1.5),
                 "cta_tile": (128, 256), "network": ("alexnet", "mlp"),
                 "passes": ("forward", "training")}
SAMPLED_GRID = {"num_sm": (1, 1.5, 2, 3), "mac_bw": (1, 2, 4),
                "l2_bw": (1, 2), "dram_bw": (1, 1.5, 2),
                "cta_tile": (128, 256)}

#: the ``/v1/dse`` body and the matching CLI arguments.
SERVED_BODY = {"networks": ["alexnet", "vgg16"], "batches": [16],
               "axes": {"num_sm": [1, 2], "dram_bw": [1, 1.5],
                        "cta_tile": [128, 256]},
               "passes": "training"}
CLI_ARGS = ["dse", "--networks", "alexnet", "mlp", "--batches", "8", "32",
            "--axis", "num_sm=1,2,4", "--axis", "mac_bw=1,4",
            "--driver", "random", "--budget", "10", "--seed", "5",
            "--format", "json"]


def _sweeps():
    return {
        "workload_grid": lambda: explore(grid(WORKLOAD_GRID, batch=8)),
        "fig16_explicit": lambda: explore(
            space_from_options(PAPER_DESIGN_OPTIONS, network="resnet152",
                               batch=64),
            driver=ExhaustiveDriver(), base_gpu=TITAN_XP,
            objectives=("time",), unique=False),
        "random": lambda: explore(
            grid(SAMPLED_GRID, network="vgg16", batch=16),
            driver=RandomDriver(budget=20, seed=3)),
        "halving": lambda: explore(
            grid(SAMPLED_GRID, network="alexnet", batch=8,
                 passes="training"),
            driver=SuccessiveHalvingDriver(budget=5, eta=3, rungs=2, seed=11),
            objectives=("throughput", "cost")),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _summarize(exploration) -> dict:
    results = list(exploration.results)
    baselines = list(exploration.baselines.items())
    return {
        "metrics_sha256": _sha256(json.dumps(
            [result.metrics for result in results])),
        "names": [result.point.name for result in results],
        "baselines_sha256": _sha256(json.dumps(
            [[list(signature), result.point.name, result.metrics]
             for signature, result in baselines])),
        "frontier": list(exploration.frontier),
        "stats": {name: getattr(exploration.stats, name)
                  for name in STAT_FIELDS},
    }


def _served_digest() -> str:
    from repro.api import Session
    from repro.server import create_app
    from server_utils import request

    app = create_app(Session())
    try:
        status, _, body = request(app, "POST", "/v1/dse", body=SERVED_BODY)
    finally:
        app.session.close()
    assert status == 200
    return _sha256(Report.from_json(body.decode()).content_json())


def _cli_digest() -> str:
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(CLI_ARGS) == 0
    return _sha256(Report.from_json(buffer.getvalue()).content_json())


def snapshot() -> dict:
    return {
        "sweeps": {name: _summarize(run()) for name, run in _sweeps().items()},
        "served_dse_content_sha256": _served_digest(),
        "cli_dse_content_sha256": _cli_digest(),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_DSE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(_sweeps()))
def test_sweep_matches_golden(golden, name):
    assert _summarize(_sweeps()[name]()) == golden["sweeps"][name]


def test_served_dse_report_matches_golden(golden):
    assert _served_digest() == golden["served_dse_content_sha256"]


def test_cli_dse_report_matches_golden(golden):
    assert _cli_digest() == golden["cli_dse_content_sha256"]


if __name__ == "__main__":
    with open(GOLDEN_DSE, "w", encoding="utf-8") as handle:
        json.dump(snapshot(), handle, indent=1)
        handle.write("\n")
