"""DSE driver determinism against the scalar oracle.

``explore`` evaluates points through the batched array-of-points path and
appends them to the store as one chunk line.  The store it leaves behind
must be *byte-identical* to one rebuilt one point at a time from the scalar
oracles — one-point ``store_keys`` calls and ``evaluate_point`` records
handed to :meth:`ResultStore.put_many` — for every driver, including the
successive-halving driver whose proxy scoring is batched too.  A divergence
here (a value, a key, the dedupe order or a dict's key order) would silently
fork resumed sweeps.
"""

import json

import pytest

from repro.analysis.frontier import DEFAULT_OBJECTIVE_NAMES, resolve_objectives
from repro.dse import (ExhaustiveDriver, MetricTable, RandomDriver,
                       ResultStore, SuccessiveHalvingDriver, explore, grid,
                       store_keys)
from repro.dse.space import DesignPoint
from repro.gpu import DesignOption
from repro.gpu.devices import TITAN_XP

from model_reference import evaluate_point

SPACE = grid({"num_sm": (1, 1.5, 2, 3), "mac_bw": (1, 2, 4),
              "l2_bw": (1, 2), "dram_bw": (1, 1.5, 2),
              "cta_tile": (128, 256)},
             network="alexnet", batch=8)

DRIVERS = [
    pytest.param(lambda: ExhaustiveDriver(), id="exhaustive"),
    pytest.param(lambda: RandomDriver(budget=24, seed=7), id="random"),
    pytest.param(lambda: SuccessiveHalvingDriver(budget=6, eta=3, rungs=2,
                                                 seed=7),
                 id="halving"),
]


def _store_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def _oracle_store(driver, path):
    """Write the store ``explore`` must produce, from the scalar oracles.

    Mirrors the orchestrator's plan: the driver's points (refined by the
    layer-subsampled proxy for successive halving), then one identity
    baseline per workload signature, deduped by content key in plan order.
    Returns the number of records written.
    """
    primary = resolve_objectives(DEFAULT_OBJECTIVE_NAMES)[0]
    space_points = SPACE.points()
    rows = driver.plan(SPACE)
    if isinstance(driver, SuccessiveHalvingDriver):
        def score(candidates):
            return [-primary.oriented(float(evaluate_point(
                TITAN_XP, space_points[row], layer_stride=4)[primary.metric]))
                for row in candidates]
        rows = driver.refine(rows, score)
    points = [space_points[row] for row in rows]
    baselines = {}
    for point in points:
        baselines.setdefault(point.workload_signature(), DesignPoint(
            DesignOption("baseline"), *point.workload_signature()))
    keys = []
    records = []
    for point in points + list(baselines.values()):
        key = store_keys(TITAN_XP, [point], unique=True)[0]
        if key in keys:
            continue
        keys.append(key)
        records.append(evaluate_point(TITAN_XP, point))
    store = ResultStore(path)
    store.put_many(keys, MetricTable.from_records(records))
    store.close()
    return len(records)


@pytest.mark.parametrize("make_driver", DRIVERS)
def test_store_contents_identical_across_eval_modes(make_driver, tmp_path):
    """Batched ``explore`` == the one-point-at-a-time scalar oracle."""
    path = tmp_path / "explore.jsonl"
    exploration = explore(SPACE, driver=make_driver(), base_gpu=TITAN_XP,
                          store=ResultStore(path))
    oracle_path = tmp_path / "oracle.jsonl"
    written = _oracle_store(make_driver(), oracle_path)

    # same store bytes, line for line, in the same append order.
    assert _store_lines(path) == _store_lines(oracle_path)
    assert exploration.stats.evaluated == written > 0
    assert [r.key for r in exploration.results] == [
        store_keys(TITAN_XP, [r.point], unique=True)[0]
        for r in exploration.results]


@pytest.mark.parametrize("make_driver", DRIVERS)
def test_cross_mode_resume_reuses_other_modes_store(make_driver, tmp_path):
    """A store written by an earlier run — ``explore`` or the scalar
    oracle — fully satisfies a resume."""
    path = tmp_path / "sweep.jsonl"
    first = explore(SPACE, driver=make_driver(), base_gpu=TITAN_XP,
                    store=ResultStore(path))
    resumed = explore(SPACE, driver=make_driver(), base_gpu=TITAN_XP,
                      store=ResultStore(path))
    assert resumed.stats.evaluated == 0
    # the implicit baseline point can be a store hit without being a
    # driver-planned result, so compare hits against the first run's.
    assert resumed.stats.store_hits == first.stats.store_hits + \
        first.stats.evaluated
    assert all(result.cached for result in resumed.results)
    assert [r.key for r in resumed.results] == [r.key for r in first.results]
    assert json.dumps(resumed.frontier_rows(), sort_keys=True) == \
        json.dumps(first.frontier_rows(), sort_keys=True)

    oracle_path = tmp_path / "oracle.jsonl"
    written = _oracle_store(make_driver(), oracle_path)
    from_oracle = explore(SPACE, driver=make_driver(), base_gpu=TITAN_XP,
                          store=ResultStore(oracle_path))
    assert from_oracle.stats.evaluated == 0
    assert from_oracle.stats.store_hits == written
    assert json.dumps(from_oracle.frontier_rows(), sort_keys=True) == \
        json.dumps(first.frontier_rows(), sort_keys=True)
