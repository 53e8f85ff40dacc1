"""Batched (array-of-points) evaluation: bit-identity to the scalar pipeline.

The structure-of-arrays evaluator (:mod:`repro.core.batched`,
:mod:`repro.dse.batch`) promises *bit-identical* results to the scalar
reference path — same float operations in the same order, same bottleneck
tie-breaks, same metrics-dict key and bottleneck-share order.  This suite
pins that contract:

* the 204 forward and 204 backward golden estimates are reproduced by the
  batched grid evaluator (one of the two CTA-tile family columns matches
  every golden entry exactly);
* a hypothesis property drives random design points — conv (alexnet),
  linear (mlp) and batched-GEMM (bert-base) workloads, every pass kind,
  fp16 and fp32 — through ``evaluate_points`` vs the scalar oracle
  ``evaluate_point`` (tests/model_reference.py);
* ``pareto_frontier`` equals the scalar domination loop at every size and
  on special values (±0.0, ±inf, NaN), and the seed-0 perfbench grid's
  frontier is pinned by digest;
* the array grid enumeration equals the one-combination-at-a-time
  ``_point_from_values`` reference;
* the scalar edge-case fixes that rode along (fp16 L1 streaming clamp,
  sliding-window L2 clamps, zero-time bottleneck shares) stay pinned.
"""

import hashlib
import itertools
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import frontier as frontier_module
from repro.analysis.frontier import (OBJECTIVES, _skyline,
                                     pareto_frontier, resolve_objectives)
from repro.core.batched import (BatchedGpuSpec, CANDIDATE_ORDER,
                                build_stacks, design_matrix, estimate_grid,
                                traffic_by_family)
from repro.core.bottleneck import Bottleneck
from repro.core.l1 import _streaming_mli
from repro.core.l2 import sliding_tile_unique_elements
from repro.core.workload import Im2colPattern, lower_forward, lower_pass
from repro.dse.batch import evaluate_points
from repro.dse.runner import explore
from repro.dse.space import GPU_AXIS_KEYS, DesignPoint, GridSpace, grid
from repro.gpu.design_options import DesignOption
from repro.gpu.devices import TITAN_XP, get_device
from repro.networks.registry import get_network

import model_reference
from model_reference import evaluate_point

_HERE = os.path.dirname(__file__)

with open(os.path.join(_HERE, "golden_forward_estimates.json"),
          encoding="utf-8") as _handle:
    GOLDEN_FORWARD = json.load(_handle)
with open(os.path.join(_HERE, "golden_backward_estimates.json"),
          encoding="utf-8") as _handle:
    GOLDEN_BACKWARD = json.load(_handle)

GOLDEN_CASES = [(gpu, net)
                for gpu in ("titanxp", "v100")
                for net in ("alexnet", "vgg16", "googlenet", "resnet152",
                            "mlp", "bert-base")]


def _family_columns(gpu, workloads):
    """Batched estimates of ``workloads`` on the baseline design, one
    single-design batch per CTA-tile family."""
    stacks = build_stacks([traffic_by_family(gpu, workload)
                           for workload in workloads])
    return {
        hw: estimate_grid(
            BatchedGpuSpec.from_options(
                gpu, design_matrix([DesignOption(name="baseline",
                                                 cta_tile_hw=hw)])),
            stacks=stacks)
        for hw in (128, 256)
    }


def _assert_golden_match(families, row, golden, context):
    """Some family column must reproduce the golden entry bit-for-bit.

    The goldens were generated by the scalar model with its own per-workload
    tile selection; the batched evaluator computes both families, so the
    selected family's column must equal the golden exactly (time, bottleneck
    and traffic together, so a coincidental time tie cannot fake a match).
    """
    for est in families.values():
        if (float(est.times[row, 0]) == golden["time_seconds"]
                and CANDIDATE_ORDER[int(est.bottleneck_index[row, 0])].value
                == golden["bottleneck"]
                and float(est.dram_bytes[row, 0]) == golden["dram_bytes"]
                and float(est.l2_bytes[row, 0]) == golden["l2_bytes"]):
            return
    raise AssertionError(
        f"no CTA-tile family reproduces the golden entry for {context}")


@pytest.mark.parametrize("gpu_name,net_name", GOLDEN_CASES)
def test_forward_goldens_through_batched_path(gpu_name, net_name):
    gpu = get_device(gpu_name)
    layers = get_network(net_name, batch=32).unique_layers()
    families = _family_columns(gpu, [lower_forward(layer)
                                     for layer in layers])
    for row, layer in enumerate(layers):
        key = f"{gpu.name}|{net_name}/{layer.name}|b{layer.batch}"
        _assert_golden_match(families, row, GOLDEN_FORWARD[key], key)


@pytest.mark.parametrize("gpu_name,net_name", GOLDEN_CASES)
@pytest.mark.parametrize("pass_kind", ["dgrad", "wgrad"])
def test_backward_goldens_through_batched_path(gpu_name, net_name, pass_kind):
    gpu = get_device(gpu_name)
    layers = get_network(net_name, batch=32).unique_layers()
    families = _family_columns(gpu, [lower_pass(layer, pass_kind)
                                     for layer in layers])
    for row, layer in enumerate(layers):
        key = (f"{gpu.name}|{net_name}/{layer.name}|b{layer.batch}"
               f"|{pass_kind}")
        _assert_golden_match(families, row, GOLDEN_BACKWARD[key], key)


def test_golden_population_complete():
    """The two parametrized tests above walk every golden entry."""
    forward, backward = set(), set()
    for gpu_name, net_name in GOLDEN_CASES:
        gpu = get_device(gpu_name)
        for layer in get_network(net_name, batch=32).unique_layers():
            stem = f"{gpu.name}|{net_name}/{layer.name}|b{layer.batch}"
            forward.add(stem)
            backward.update(f"{stem}|{kind}" for kind in ("dgrad", "wgrad"))
    assert forward == set(GOLDEN_FORWARD)
    assert backward == set(GOLDEN_BACKWARD)


# ----------------------------------------------------------------------
# Batched == scalar on the DSE metrics level
# ----------------------------------------------------------------------

#: conv (implicit im2col), linear and batched-GEMM (attention) workloads.
_NETWORKS = ("alexnet", "mlp", "bert-base")
_PASSES = ("forward", "dgrad", "wgrad", "training")
_MULTIPLIER = st.sampled_from((0.5, 1.0, 1.25, 2.0, 3.7, 4.0))


def _assert_point_bit_identical(point):
    batched = evaluate_points(TITAN_XP, [point])[0]
    scalar = evaluate_point(TITAN_XP, point)
    # json.dumps without sort_keys also pins dict insertion order (the
    # bottlenecks mapping inserts labels in first-bounded order).
    assert json.dumps(batched, sort_keys=False) == \
        json.dumps(scalar, sort_keys=False)


@pytest.mark.parametrize("network", _NETWORKS)
@pytest.mark.parametrize("passes", _PASSES)
@pytest.mark.parametrize("dtype_bytes", [2, 4])
def test_batched_matches_scalar_across_pass_workload_dtype(network, passes,
                                                           dtype_bytes):
    """The full pass x workload-kind x precision cross, baseline + scaled."""
    for option in (DesignOption(name="baseline"),
                   DesignOption(name="scaled", num_sm=2.0, mac_bw=4.0,
                                l2_bw=1.5, dram_bw=2.0, cta_tile_hw=256)):
        _assert_point_bit_identical(DesignPoint(
            option=option, network=network, batch=8, passes=passes,
            dtype_bytes=dtype_bytes))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(num_sm=_MULTIPLIER, mac_bw=_MULTIPLIER, regs=_MULTIPLIER,
       smem_size=_MULTIPLIER, smem_bw=_MULTIPLIER, l1_bw=_MULTIPLIER,
       l2_bw=_MULTIPLIER, dram_bw=_MULTIPLIER,
       cta_tile=st.sampled_from((128, 256)),
       network=st.sampled_from(_NETWORKS),
       passes=st.sampled_from(_PASSES),
       dtype_bytes=st.sampled_from((2, 4)))
def test_batched_matches_scalar_property(num_sm, mac_bw, regs, smem_size,
                                         smem_bw, l1_bw, l2_bw, dram_bw,
                                         cta_tile, network, passes,
                                         dtype_bytes):
    option = DesignOption(name="hyp", num_sm=num_sm, mac_bw=mac_bw,
                          regs=regs, smem_size=smem_size, smem_bw=smem_bw,
                          l1_bw=l1_bw, l2_bw=l2_bw, dram_bw=dram_bw,
                          cta_tile_hw=cta_tile)
    _assert_point_bit_identical(DesignPoint(
        option=option, network=network, batch=8, passes=passes,
        dtype_bytes=dtype_bytes))


def test_batched_mixed_group_order_and_sharing():
    """A mixed batch (several workloads, shared options, both tile families)
    returns rows in input order, each bit-identical to its scalar run."""
    options = (DesignOption(name="baseline"),
               DesignOption(name="big", num_sm=2.0, cta_tile_hw=256))
    points = [DesignPoint(option=option, network=network, batch=8,
                          passes=passes, dtype_bytes=dtype_bytes)
              for network in ("alexnet", "mlp")
              for passes in ("forward", "training")
              for dtype_bytes in (2, 4)
              for option in options]
    batched = evaluate_points(TITAN_XP, points)
    assert len(batched) == len(points)
    for point, metrics in zip(points, batched):
        assert json.dumps(metrics, sort_keys=False) == \
            json.dumps(evaluate_point(TITAN_XP, point), sort_keys=False)


# ----------------------------------------------------------------------
# Vectorized Pareto filter == scalar domination loop
# ----------------------------------------------------------------------

def _scalar_frontier(oriented):
    frontier = []
    for i, candidate in enumerate(oriented):
        dominated = any(
            all(o >= c for o, c in zip(other, candidate))
            and any(o > c for o, c in zip(other, candidate))
            for j, other in enumerate(oriented) if j != i)
        if not dominated:
            frontier.append(i)
    return frontier


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(0, 5)),
                min_size=1, max_size=120))
# row 0 dominates row 1, but 1e16 + 1 rounds to 1e16: equal float sums.
@example(rows=[(10 ** 16, 1, 0), (10 ** 16, 0, 0)])
def test_pareto_vectorized_matches_scalar_loop(rows):
    # small integer grids force heavy duplication and ties, the hard cases
    # for grouping rows by value and dropping the strictness test.
    oriented = [tuple(float(v) for v in row) for row in rows]
    assert _skyline(oriented) == _scalar_frontier(oriented)


def test_pareto_frontier_dispatch_consistent_across_sizes():
    """``pareto_frontier`` returns what the scalar loop does at any size,
    from the empty and single-row edge cases to multi-block inputs."""
    objectives = resolve_objectives(("throughput", "dram", "cost"))
    rows = [{"throughput_tflops": float(t), "dram_gb": float(d),
             "resource_cost": float(c)}
            for t, d, c in itertools.product(range(5), range(4), range(4))]
    assert len(rows) > 64
    for size in (0, 1, 2, 9, len(rows)):
        subset = rows[:size]
        oriented = [tuple(obj.oriented(float(row[obj.metric]))
                          for obj in objectives) for row in subset]
        assert (pareto_frontier(subset, objectives)
                == _scalar_frontier(oriented)), size


#: values a row may carry besides small integers: signed zeros compare
#: equal, infinities order, and a NaN compares false both ways.
_SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(*[st.one_of(st.integers(-3, 3).map(float),
                          st.sampled_from(_SPECIAL_VALUES))] * width),
    min_size=1, max_size=60)))
@example(rows=[(math.nan, 0.0), (1.0, 1.0)])
@example(rows=[(0.0, -0.0), (-0.0, 0.0), (-1.0, 0.0)])
def test_skyline_special_values_match_scalar_loop(rows):
    assert _skyline(rows) == _scalar_frontier(rows)


def _grid_table(width, count, span, seed, tradeoff, duplicate, special):
    """A seeded (count, width) table of small integers in [-span, span].

    ``tradeoff`` puts a share of rows on one hyperplane (mutually
    non-dominated, so the frontier outgrows the top-kill rows),
    ``duplicate`` resamples rows with replacement, and ``special`` is the
    share of cells replaced by a value from ``_SPECIAL_VALUES``.
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(-span, span + 1, size=(count, width)).astype(float)
    if tradeoff and width > 1:
        values[:, -1] = (-values[:, :-1].sum(axis=1)
                         - rng.integers(0, 4, size=count))
    if duplicate:
        values = values[rng.integers(0, count, size=count)]
    cells = rng.random(values.shape) < special
    values[cells] = rng.choice(_SPECIAL_VALUES, size=int(cells.sum()))
    return [tuple(row) for row in values.tolist()]


@settings(max_examples=40, deadline=None)
@given(width=st.integers(1, 4), count=st.integers(1, 1500),
       span=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       tradeoff=st.booleans(), duplicate=st.booleans(),
       special=st.sampled_from((0.0, 0.002, 0.02)))
@example(width=3, count=1500, span=12, seed=0, tradeoff=True,
         duplicate=False, special=0.002)
def test_skyline_blocks_match_scalar_loop(width, count, span, seed, tradeoff,
                                          duplicate, special):
    """Tables of up to ~3 blocks of distinct rows, where the archive outgrows
    the top-kill rows, give the scalar loop's indices exactly."""
    rows = _grid_table(width, count, span, seed, tradeoff, duplicate, special)
    assert _skyline(rows) == _scalar_frontier(rows)


def test_skyline_archive_outgrows_top_killers():
    """The explicit example above does run the regime it is there for:
    several blocks of distinct rows and an archive past the top-kill rows."""
    rows = _grid_table(3, 1500, 12, 0, True, False, 0.002)
    frontier = _skyline(rows)
    assert len(set(rows)) > 2 * frontier_module.SKYLINE_BLOCK
    assert len({rows[i] for i in frontier}) > 2 * frontier_module.TOP_KILLERS
    assert frontier == _scalar_frontier(rows)


def test_top_killers_are_the_archive_rows_with_most_kills():
    top = frontier_module.TOP_KILLERS
    kills = np.zeros(4 * top, dtype=np.int64)
    size = 3 * top
    kills[:size] = np.random.default_rng(0).permutation(size)
    kills[size:] = 10 * size  # past the archive: never a candidate
    chosen = frontier_module._top_killers(kills, size)
    assert sorted(chosen.tolist()) == sorted(
        np.argsort(kills[:size])[-top:].tolist())


def test_kill_credited_to_latest_covering_archive_row():
    # archive rows (first objective dropped) in visit order; every one
    # covers the candidate (0, 0), the second candidate is covered by none.
    archive = [np.array([3.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0])]
    cand = [np.array([0.0, 4.0]), np.array([0.0, 0.0])]
    kills = np.zeros(3, dtype=np.int64)
    survive = frontier_module._undominated(cand, archive, kills,
                                           slice(0, 3))
    assert survive.tolist() == [False, True]
    assert kills.tolist() == [0, 0, 1]


#: sha256 of ``json.dumps`` of the default-objective frontier indices of
#: the seed-0 perfbench dse-sweep grid (41472 points, 362 on the
#: frontier), recorded with the archive-recompute filter that came before
#: the sort-first skyline.
PERFBENCH_FRONTIER_SHA256 = (
    "d8187db992f16e71077275da6e4d29b2093b943fddad18183bee315d28610afc")


def test_perfbench_grid_frontier_pinned():
    space = grid({
        "num_sm": (1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4),
        "mac_bw": (1, 2, 3, 4, 6, 8),
        "l1_bw": (1, 2),
        "l2_bw": (1, 1.25, 1.5, 2, 2.5, 3),
        "dram_bw": (1, 1.25, 1.5, 2, 2.5, 3),
        "cta_tile": (128, 256),
        "network": ("alexnet", "resnet152", "bert-base"),
        "passes": ("forward", "training"),
    }, batch=32)
    frontier = list(explore(space).frontier)
    assert len(space) == 41472 and len(frontier) == 362
    assert hashlib.sha256(json.dumps(frontier).encode()).hexdigest() \
        == PERFBENCH_FRONTIER_SHA256


# ----------------------------------------------------------------------
# Array grid enumeration == _point_from_values reference
# ----------------------------------------------------------------------

def _point_from_values(values, base):
    """One design point from per-axis values over ``base``'s defaults."""
    gpu_kwargs = {key: float(values[key]) for key in GPU_AXIS_KEYS
                  if key in values}
    cta_tile = int(values.get("cta_tile", base.option.cta_tile_hw))
    design_parts = [f"{key}={value:g}" for key, value in gpu_kwargs.items()
                    if value != 1.0]
    if cta_tile != 128:
        design_parts.append(f"cta_tile={cta_tile}")
    name = ",".join(design_parts) if design_parts else "baseline"
    option = DesignOption(name=name, cta_tile_hw=cta_tile, **gpu_kwargs)
    return DesignPoint(
        option=option,
        network=str(values.get("network", base.network)),
        batch=int(values.get("batch", base.batch)),
        passes=str(values.get("passes", base.passes)),
        dtype_bytes=int(values.get("dtype_bytes", base.dtype_bytes)),
    )


def _reference_points(space):
    keys = [ax.key for ax in space.axes]
    return tuple(
        _point_from_values(dict(zip(keys, combo)), space.base)
        for combo in itertools.product(*(ax.values for ax in space.axes)))


def test_grid_points_design_only_fast_path_matches_reference():
    space = grid({"num_sm": (1, 2, 3.7), "mac_bw": (1, 4),
                  "cta_tile": (128, 256)}, network="alexnet", batch=8)
    assert isinstance(space, GridSpace)
    assert space.points() == _reference_points(space)


def test_grid_points_workload_axes_path_matches_reference():
    space = grid({"num_sm": (1, 2), "cta_tile": (128, 256),
                  "network": ("alexnet", "mlp"), "batch": (4, 8),
                  "passes": ("forward", "training"), "dtype_bytes": (2, 4)})
    points = space.points()
    assert points == _reference_points(space)
    # one option object per design, shared across workload combos.
    assert len({id(p.option) for p in points}) == 4


# ----------------------------------------------------------------------
# Scalar edge-case fixes (pinned)
# ----------------------------------------------------------------------

def test_streaming_mli_clamps_subrequest_warps():
    """fp16 warps load 64B against 128B L1 requests: one whole request is
    both made and ideal, so a fully-coalesced stream has inefficiency 1.0
    (the un-clamped ratio would charge a phantom 2x)."""
    assert TITAN_XP.l1_request_bytes == 128
    assert _streaming_mli(1.0, TITAN_XP, 2) == 1.0
    # fp32 fills the request exactly; nothing changes there.
    assert _streaming_mli(1.0, TITAN_XP, 4) == 1.0
    # partially-strided fp16 spans still cost whole extra requests.
    assert _streaming_mli(3.0, TITAN_XP, 2) == 2.0


def test_sliding_tile_clamps_cols_to_matrix_extent():
    pattern = Im2colPattern(batch=1, channels=4, in_height=16, in_width=16,
                            filter_height=3, filter_width=3)
    assert not pattern.is_pointwise
    # a tile wider than the matrix's offset extent only touches the offsets
    # that exist: the degenerate call equals the honestly-narrow one.
    wide = sliding_tile_unique_elements(pattern, 64, 64, 4)
    narrow = sliding_tile_unique_elements(pattern, 64, 4, 4)
    assert wide == narrow
    # pointwise tiles keep their exact no-reuse footprint.
    pointwise = Im2colPattern(batch=1, channels=4, in_height=16, in_width=16,
                              filter_height=1, filter_width=1)
    assert sliding_tile_unique_elements(pointwise, 8, 64, 4) == 8 * 4.0


def test_bottleneck_shares_skip_zero_time_layers(monkeypatch):
    def estimate(seconds, bottleneck):
        return SimpleNamespace(
            time_seconds=seconds, bottleneck=bottleneck,
            workload=SimpleNamespace(flops=1.0),
            traffic=SimpleNamespace(dram_bytes=0.0, l2_bytes=0.0))

    estimates = iter((estimate(3.0, Bottleneck.MAC_BW),
                      estimate(0.0, Bottleneck.DRAM_BW),
                      estimate(1.0, Bottleneck.L2_BW)))

    class ScriptedModel:
        def __init__(self, gpu, traffic_model):
            pass

        def estimate(self, layer):
            return next(estimates)

    monkeypatch.setattr(model_reference, "PerformanceModel", ScriptedModel)
    monkeypatch.setattr(model_reference, "_workload_layers",
                        lambda *args: ("a", "b", "c"))
    point = DesignPoint(option=DesignOption(name="baseline"),
                        network="alexnet", batch=8)
    shares = evaluate_point(TITAN_XP, point)["bottlenecks"]
    # the zero-time layer's bottleneck must not appear as a 0.0 category.
    assert Bottleneck.DRAM_BW.value not in shares
    assert shares == {Bottleneck.MAC_BW.value: 0.75,
                      Bottleneck.L2_BW.value: 0.25}
    assert math.isclose(sum(shares.values()), 1.0)


def test_evaluate_point_bottlenecks_have_no_zero_share_entries():
    point = DesignPoint(option=DesignOption(name="baseline"),
                        network="alexnet", batch=8, passes="training")
    for metrics in (evaluate_point(TITAN_XP, point),
                    evaluate_points(TITAN_XP, [point])[0]):
        assert metrics["bottlenecks"]
        assert all(share > 0 for share in metrics["bottlenecks"].values())
        assert math.isclose(sum(metrics["bottlenecks"].values()), 1.0)


#: frontier objective registry keeps the metrics the batch path produces.
def test_objectives_cover_batch_metrics():
    record = evaluate_points(
        TITAN_XP, [DesignPoint(option=DesignOption(name="baseline"),
                               network="alexnet", batch=8)])[0]
    for objective in OBJECTIVES.values():
        assert objective.metric in record
