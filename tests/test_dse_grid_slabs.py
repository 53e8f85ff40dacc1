"""Row dedupe and design slabs in ``evaluate_points`` change no bit.

``evaluate_points`` evaluates a fused group's bitwise-distinct workload
rows only, one design slab of at most ``GRID_SLAB_CELLS`` cells at a time.
Every cell of the Eq. 11-18 grid reads only its own workload row and design
column, so the metrics must not depend on how the rows are split into calls
or the designs into slabs:

* a hypothesis property compares, byte for byte, every ``MetricTable``
  column of one call against the concatenation of calls over a random row
  split, under a random slab size;
* a forward + training space of one network calls ``estimate_grid`` over
  its distinct workload rows only, and its metrics equal the scalar oracle
  (``tests/model_reference.py``).
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dse import batch
from repro.dse.batch import MetricTable, evaluate_points
from repro.dse.space import grid
from repro.gpu.devices import TITAN_XP
from repro.networks.registry import registry_generation

from model_reference import evaluate_point

#: 64 points over four workload signatures and both CTA-tile families.
TABLE = grid({"num_sm": (1, 2.5), "mac_bw": (1, 4), "l2_bw": (1, 1.5),
              "cta_tile": (128, 256), "network": ("alexnet", "mlp"),
              "passes": ("forward", "training")}, batch=8).table()


def _column_bytes(metrics: MetricTable) -> dict:
    return {f.name: getattr(metrics, f.name).tobytes()
            for f in dataclasses.fields(metrics)}


@st.composite
def _row_splits(draw):
    rows = draw(st.lists(st.integers(0, len(TABLE) - 1), min_size=1,
                         max_size=24))
    cuts = sorted(draw(st.sets(st.integers(1, len(rows)), max_size=4)))
    bounds = [0] + [cut for cut in cuts if cut < len(rows)] + [len(rows)]
    return rows, [rows[start:stop] for start, stop in zip(bounds, bounds[1:])]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(split=_row_splits(),
       slab_cells=st.sampled_from([1, 7, 100, 1000, batch.GRID_SLAB_CELLS]))
def test_row_splits_and_slabs_are_invisible(split, slab_cells):
    rows, pieces = split
    whole = evaluate_points(TITAN_XP, TABLE.take(rows))
    with mock.patch.object(batch, "GRID_SLAB_CELLS", slab_cells):
        parts = MetricTable.concat([evaluate_points(TITAN_XP, TABLE.take(part))
                                    for part in pieces])
    assert _column_bytes(parts) == _column_bytes(whole)


def _stack_rows(plan) -> list:
    """Each workload row of a plan as a tuple of its values in every tile
    family."""
    columns = [getattr(stack, f.name).reshape(plan[1]).tolist()
               for stack in plan[3].values()
               for f in dataclasses.fields(stack)]
    return list(zip(*columns))


def test_forward_and_training_rows_are_evaluated_once():
    space = grid({"num_sm": (1, 2), "dram_bw": (1, 1.5),
                  "cta_tile": (128, 256), "passes": ("forward", "training")},
                 network="alexnet", batch=8)
    points = space.points()
    plans = [batch._workload_plan(TITAN_XP, "alexnet", 8, 4, passes, True, 1,
                                  registry_generation())
             for passes in ("forward", "training")]
    workload_rows = [row for plan in plans for row in _stack_rows(plan)]
    distinct = len(set(workload_rows))
    # the forward signature repeats the training signature's forward rows.
    assert distinct <= plans[1][1] < len(workload_rows)

    calls = []
    real = batch.estimate_grid

    def spy(gpus, **kwargs):
        calls.append((len(gpus), len(kwargs["stacks"][128].flops)))
        return real(gpus, **kwargs)

    with mock.patch.object(batch, "estimate_grid", spy):
        metrics = evaluate_points(TITAN_XP, space.table())
    assert calls == [(len(points) // 2, distinct)]
    for row in (0, 3, 5, len(points) - 1):
        assert metrics[row] == evaluate_point(TITAN_XP, points[row])


def test_slabs_bound_the_grid_cells():
    shapes = []
    real = batch.estimate_grid

    def spy(gpus, **kwargs):
        result = real(gpus, **kwargs)
        shapes.append(result.times.shape)
        return result

    with mock.patch.object(batch, "estimate_grid", spy), \
            mock.patch.object(batch, "GRID_SLAB_CELLS", 200):
        sliced = evaluate_points(TITAN_XP, TABLE)
    # one fused group: every signature ranges over the same 16 designs.
    assert len(shapes) > 1
    assert all(designs <= max(1, 200 // workloads)
               for workloads, designs in shapes)
    assert sum(designs for _, designs in shapes) == 16
    assert _column_bytes(sliced) == _column_bytes(
        evaluate_points(TITAN_XP, TABLE))


def test_rows_merge_only_when_bitwise_equal(monkeypatch):
    """A copy of a plan whose first row differs in one field of one tile
    family, by one ulp or one unit, adds exactly one distinct row."""
    plan = batch._workload_plan(TITAN_XP, "alexnet", 8, 4, "training", True,
                                1, registry_generation())
    plans = {"base": plan}
    monkeypatch.setattr(batch, "_workload_plan",
                        lambda base_gpu, network, *args: plans[network])
    fuse = batch._fused_plan.__wrapped__  # unmemoized: the plans change.
    signatures = (("base", 8, "training", 4), ("copy", 8, "training", 4))

    plans["copy"] = plan
    stacks, ((_, base_rows), (_, copy_rows)) = fuse(TITAN_XP, signatures,
                                                    True, 1, 0)
    distinct = len(stacks[128].flops)
    assert copy_rows == base_rows and distinct <= plan[1]
    for hw, stack in plan[3].items():
        for f in dataclasses.fields(stack):
            values = getattr(stack, f.name).copy()
            values.flat[0] = (np.nextafter(values.flat[0], np.inf)
                              if values.dtype.kind == "f"
                              else values.flat[0] + 1)
            plans["copy"] = plan[:3] + (
                {**plan[3], hw: dataclasses.replace(stack,
                                                    **{f.name: values})},)
            stacks, ((_, base_rows), (_, copy_rows)) = fuse(
                TITAN_XP, signatures, True, 1, 0)
            assert len(stacks[128].flops) == distinct + 1, (hw, f.name)
            assert copy_rows[0] not in base_rows, (hw, f.name)
            assert copy_rows[1:] == base_rows[1:], (hw, f.name)
