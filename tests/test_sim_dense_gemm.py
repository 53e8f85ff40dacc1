"""Dense-GEMM simulator tests: address decomposition + engine equivalence.

Mirrors the conv equivalence suite for the GEMM-native lowering: the trace
generator's separable dense address decomposition is checked against a
brute-force per-element reference, its batched coalescing against the
per-tile oracle, and the vectorized engine must produce
bit-identical ``SimTraffic`` to the scalar reference loop
(tests/sim_reference.py) on linear and batched-GEMM workloads for all three
training passes.
"""

import math

import numpy as np
import pytest

from repro.core.layer import BatchedGemmLayerConfig, LinearLayerConfig
from repro.core.tiling import build_grid
from repro.core.workload import TRAINING_PASSES, lower_pass
from repro.gpu.devices import TITAN_XP
from repro.sim.address import INVALID_ADDRESS
from repro.sim.engine import ConvLayerSimulator, SimulatorConfig
from repro.sim.im2col import GemmTraceGenerator
from sim_reference import ReferenceSimulator, assert_batch_matches_tiles

LINEAR = LinearLayerConfig("fc", batch=140, in_features=70, out_features=150)
BATCHED = BatchedGemmLayerConfig("bgemm", batch=2, groups_per_sample=2,
                                 m=100, n=70, k=40)


def _naive_dense_addresses(workload, trace, operand, own_values, k_values):
    """Per-element dense address reference (no separability assumed)."""
    gemm = workload.gemm
    dtype = workload.dtype_bytes
    pass_kind = workload.pass_kind
    tile = trace.tile
    rows = gemm.m if operand == "a" else gemm.n
    blk = tile.blk_m if operand == "a" else tile.blk_n
    padded = math.ceil(rows / blk) * blk
    base = trace.layout.a_base if operand == "a" else trace.layout.b_base
    out = np.full((own_values.size, k_values.size), INVALID_ADDRESS,
                  dtype=np.int64)
    for i, own in enumerate(own_values):
        group, row = ((own // padded, own % padded) if workload.groups > 1
                      else (0, own))
        if row >= rows or group >= workload.groups:
            continue
        for j, k in enumerate(k_values):
            if k >= gemm.k:
                continue
            if operand == "a":
                offset = (row * gemm.k + k if pass_kind in ("forward", "dgrad")
                          else k * gemm.m + row)
                stride = gemm.m * gemm.k
            else:
                offset = (row * gemm.k + k if pass_kind == "forward"
                          else k * gemm.n + row)
                stride = gemm.n * gemm.k
            out[i, j] = base + (group * stride + offset) * dtype
    return out


@pytest.mark.parametrize("layer", [LINEAR, BATCHED],
                         ids=["linear", "batched"])
@pytest.mark.parametrize("pass_kind", TRAINING_PASSES)
def test_dense_tile_addresses_match_reference(layer, pass_kind):
    workload = lower_pass(layer, pass_kind)
    grid = build_grid(workload)
    trace = GemmTraceGenerator(workload, grid.tile, TITAN_XP)
    tile = grid.tile
    # every K offset, including the final (partial) K tile whose tail lanes
    # must be predicated off, not wrapped into aliased addresses.
    k_offsets = [loop * tile.blk_k for loop in range(grid.main_loops_per_cta)]
    for operand, blk, ctas in (("a", tile.blk_m, grid.ctas_m),
                               ("b", tile.blk_n, grid.ctas_n)):
        coords = range(grid.groups * ctas)
        lattice = trace.tile_addresses(operand, coords, k_offsets)
        for ci, coord in enumerate(coords):
            own = coord * blk + np.arange(blk)
            for ki, k_offset in enumerate(k_offsets):
                k = k_offset + np.arange(tile.blk_k)
                expected = _naive_dense_addresses(workload, trace, operand,
                                                  own, k)
                got = lattice[ci * len(k_offsets) + ki].reshape(blk,
                                                                tile.blk_k)
                assert np.array_equal(got, expected)


@pytest.mark.parametrize("layer", [LINEAR, BATCHED],
                         ids=["linear", "batched"])
@pytest.mark.parametrize("pass_kind", TRAINING_PASSES)
def test_dense_batched_trace_matches_scalar_tiles(layer, pass_kind):
    """The batched fast path reproduces the per-tile access records."""
    workload = lower_pass(layer, pass_kind)
    grid = build_grid(workload)
    trace = GemmTraceGenerator(workload, grid.tile, TITAN_XP)
    k_offsets = [loop * grid.tile.blk_k
                 for loop in range(grid.main_loops_per_cta)]
    assert_batch_matches_tiles(trace, "a", list(range(grid.groups * grid.ctas_m)),
                               k_offsets)
    assert_batch_matches_tiles(trace, "b", list(range(grid.groups * grid.ctas_n)),
                               k_offsets)


@pytest.mark.parametrize("layer", [LINEAR, BATCHED],
                         ids=["linear", "batched"])
@pytest.mark.parametrize("pass_kind", TRAINING_PASSES)
def test_vectorized_engine_bit_identical_on_dense_traces(layer, pass_kind):
    """Acceptance: vectorized == scalar SimTraffic on dense GEMMs, all passes."""
    workload = lower_pass(layer, pass_kind)
    vectorized = ConvLayerSimulator(
        TITAN_XP, SimulatorConfig(max_ctas=None)).run(workload)
    scalar = ReferenceSimulator(
        TITAN_XP, SimulatorConfig(max_ctas=None)).run(workload)
    for field in ("l1_bytes", "l2_bytes", "dram_bytes", "dram_ifmap_bytes",
                  "dram_filter_bytes", "l1_requests"):
        assert (getattr(vectorized.traffic, field)
                == getattr(scalar.traffic, field)), field
    assert vectorized.time_seconds == scalar.time_seconds
    assert vectorized.simulated_ctas == scalar.simulated_ctas
    assert vectorized.scale_factor == scalar.scale_factor


class TestBatchedGrouping:
    def test_grid_scales_by_groups(self):
        workload = lower_pass(BATCHED, "forward")
        grid = build_grid(workload)
        per_instance = grid.ctas_m * grid.ctas_n
        assert grid.groups == BATCHED.groups
        assert grid.num_ctas == BATCHED.groups * per_instance

    def test_group_slices_are_disjoint(self):
        """Different instances of a batched GEMM touch disjoint addresses."""
        workload = lower_pass(BATCHED, "forward")
        grid = build_grid(workload)
        trace = GemmTraceGenerator(workload, grid.tile, TITAN_XP)
        per_group = {}
        for group in range(grid.groups):
            tile_addresses = trace.tile_addresses(
                "a", range(group * grid.ctas_m, (group + 1) * grid.ctas_m),
                [0])
            per_group[group] = set(
                tile_addresses[tile_addresses != INVALID_ADDRESS].tolist())
        for group in range(1, grid.groups):
            assert not (per_group[0] & per_group[group])

    def test_sim_traffic_scales_with_groups(self):
        """2x the instances means exactly 2x the compulsory DRAM traffic."""
        small = BatchedGemmLayerConfig("bg1", batch=1, groups_per_sample=2,
                                       m=64, n=64, k=32)
        double = BatchedGemmLayerConfig("bg2", batch=2, groups_per_sample=2,
                                        m=64, n=64, k=32)
        config = SimulatorConfig(max_ctas=None)
        sim = ConvLayerSimulator(TITAN_XP, config)
        one = sim.run(lower_pass(small, "forward"))
        two = sim.run(lower_pass(double, "forward"))
        assert two.traffic.dram_bytes == pytest.approx(
            2 * one.traffic.dram_bytes)
