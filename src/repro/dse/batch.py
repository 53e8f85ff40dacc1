"""Array-of-points evaluation for DSE sweeps.

:func:`evaluate_points` turns design points into metrics dicts: it groups
the points by workload signature, lowers each workload's layers once, and
evaluates the whole group through :mod:`repro.core.batched` in a handful of
NumPy passes.  Per-point sums accumulate left to right in layer order (layers
outer, passes inner), so the metrics equal a one-point-at-a-time walk over
the same estimates bit for bit — the fig16 pin and the scalar test oracle
(``tests/model_reference.py``) hold, and a resumed sweep's records equal a
fresh one's.

Workload layers and plans are memoized per process, keyed by the network
registry's generation (:func:`~repro.networks.registry.registry_generation`)
so a network registered again under the same name is re-lowered.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.frontier import (_CHIP_COST_WEIGHTS, _PER_SM_COST_WEIGHTS,
                                 design_cost)
from ..core.batched import (CANDIDATE_ORDER, CTA_TILE_FAMILIES,
                            BatchedGpuSpec, WorkloadStack, build_stacks,
                            estimate_grid, traffic_by_family)
from ..core.workload import expand_passes, lower_passes
from ..gpu.spec import FP32_BYTES, GpuSpec
from ..networks.registry import get_network, registry_generation
from .space import DesignPoint, signature_of

#: bottleneck labels in candidate-stack order (metrics-dict key strings).
_CANDIDATE_LABELS: Tuple[str, ...] = tuple(b.value for b in CANDIDATE_ORDER)


@lru_cache(maxsize=256)
def _workload_layers(network: str, batch: int, dtype_bytes: int,
                     unique: bool, generation: int) -> Tuple:
    """The evaluated GEMM layers of one workload (memoized per process and
    registry ``generation``)."""
    net = get_network(network, batch=batch)
    layers = net.unique_layers() if unique else net.gemm_layers()
    if dtype_bytes != FP32_BYTES:
        layers = [layer.with_dtype(dtype_bytes) for layer in layers]
    return tuple(layers)


@lru_cache(maxsize=64)
def _workload_plan(base_gpu: GpuSpec, network: str, batch: int,
                   dtype_bytes: int, passes: str, unique: bool,
                   layer_stride: int,
                   generation: int) -> Tuple[int, int, int, Dict]:
    """Packed per-tile-family workload stacks for one workload signature.

    Returns ``(num_layers, num_gemms, flops_total, stacks)`` where
    ``stacks`` maps each CTA-tile family to a
    :class:`~repro.core.batched.WorkloadStack` holding the GPU-independent
    scalars of the signature's lowered workloads, in the exact order the
    scalar path walks them (layers outer, passes inner).  Traffic is
    design-independent, so this is computed once per (baseline GPU,
    workload signature) and shared by every batch.
    """
    layers = _workload_layers(network, batch, dtype_bytes, unique, generation)
    if layer_stride > 1:
        layers = layers[::layer_stride] or layers[:1]
    workloads = lower_passes(layers, expand_passes(passes))
    traffic_grid = [traffic_by_family(base_gpu, workload)
                    for workload in workloads]
    # Python-int accumulation, matching the scalar `sum(workload.flops)`.
    flops_total = 0
    for workload in workloads:
        flops_total += workload.flops
    return (len(layers), len(workloads), flops_total,
            build_stacks(traffic_grid))


def _design_costs(gpus: BatchedGpuSpec) -> np.ndarray:
    """Vectorized :func:`repro.analysis.frontier.design_cost`.

    Reproduces the scalar accumulation order: the weight sums start at 0 and
    add terms in the weight dicts' insertion order, so the float results are
    bitwise equal to per-point ``design_cost`` calls.
    """
    mult_of = {
        "mac_bw": gpus.mac_bw_mult,
        "regs": gpus.regs_mult,
        "smem_size": gpus.smem_size_mult,
        "smem_bw": gpus.smem_bw_mult,
        "l1_bw": gpus.l1_bw_mult,
        "l2_bw": gpus.l2_bw_mult,
        "dram_bw": gpus.dram_bw_mult,
    }
    per_sm_sum = np.zeros(len(gpus))
    for key, weight in _PER_SM_COST_WEIGHTS.items():
        per_sm_sum = per_sm_sum + weight * (mult_of[key] - 1.0)
    chip = np.zeros(len(gpus))
    for key, weight in _CHIP_COST_WEIGHTS.items():
        chip = chip + weight * (mult_of[key] - 1.0)
    return gpus.num_sm_mult * (1.0 + per_sm_sum) + chip


def _concat_stacks(stack_list: Sequence[WorkloadStack]) -> WorkloadStack:
    """Concatenate per-group workload stacks along the workload axis."""
    if len(stack_list) == 1:
        return stack_list[0]
    return WorkloadStack(**{
        f.name: np.concatenate([getattr(stack, f.name)
                                for stack in stack_list], axis=0)
        for f in dataclasses.fields(WorkloadStack)})


def _assemble_group(plan: Tuple[int, int, int, Dict],
                    times: np.ndarray, index: np.ndarray,
                    dram_rows: np.ndarray, l2_rows: np.ndarray,
                    cost_list: List[float]) -> List[Dict[str, object]]:
    """Metrics dicts of one workload-signature group from its (W, N) slab."""
    num_layers, num_workloads, flops, _ = plan
    num_labels = len(_CANDIDATE_LABELS)

    # Per-label hit masks and zero-masked times: the scalar shares Counter
    # only adds positive times, and adding the +0.0 the mask leaves behind
    # never changes a non-negative float accumulator, so summing the masked
    # rows sequentially is bit-identical to the conditional adds.
    hit = (times > 0.0)[np.newaxis] & (
        index[np.newaxis] == np.arange(num_labels)[:, np.newaxis, np.newaxis])
    masked = np.where(hit, times[np.newaxis], 0.0)      # (L, W, N)

    # Sequential per-workload accumulation via ufunc.accumulate — unlike
    # np.sum's pairwise reduction, accumulate adds strictly left to right,
    # so the last prefix equals the scalar running sums bit for bit.
    total = np.add.accumulate(times, axis=0)[-1]
    dram_bytes = np.add.accumulate(dram_rows, axis=0)[-1]
    l2_bytes = np.add.accumulate(l2_rows, axis=0)[-1]
    share = np.add.accumulate(masked, axis=1)[:, -1, :]

    # The workload index at which each label first bounds each point — the
    # scalar shares dict inserts labels in first-occurrence order (zero-time
    # workloads skipped), which the stable argsort below reproduces.
    first_seen = np.where(hit.any(axis=1), hit.argmax(axis=1), num_workloads)

    flops_f = float(flops)
    with np.errstate(divide="ignore", invalid="ignore"):
        throughput = np.where(total > 0.0, flops_f / total / 1e12, 0.0)

    # Pull everything into plain Python containers once (C-speed) so the
    # per-point dict assembly below stays cheap.
    order = np.argsort(first_seen, axis=0, kind="stable").T.tolist()
    first_list = first_seen.T.tolist()
    share_list = share.T.tolist()
    total_list = total.tolist()
    throughput_list = throughput.tolist()
    dram_list = (dram_bytes / 1e9).tolist()
    l2_list = (l2_bytes / 1e9).tolist()

    results: List[Dict[str, object]] = []
    results_append = results.append
    labels = _CANDIDATE_LABELS
    for (point_total, throughput, dram_gb, l2_gb, cost, point_order, firsts,
         shares) in zip(total_list, throughput_list, dram_list, l2_list,
                        cost_list, order, first_list, share_list):
        bottlenecks: Dict[str, float] = {}
        if point_total > 0:
            for label in point_order:
                if firsts[label] >= num_workloads:
                    break
                bottlenecks[labels[label]] = shares[label] / point_total
        results_append({
            "time_s": point_total,
            "throughput_tflops": throughput,
            "dram_gb": dram_gb,
            "l2_gb": l2_gb,
            "resource_cost": cost,
            "layers": num_layers,
            "gemms": num_workloads,
            "bottlenecks": bottlenecks,
        })
    return results


def evaluate_points(base_gpu: GpuSpec, points: Sequence[DesignPoint], *,
                    unique: bool = True,
                    layer_stride: int = 1) -> List[Dict[str, object]]:
    """Metrics dicts of many design points, one per point, in input order.

    Groups the points by workload signature; groups that range over the
    *same* design list (the common case for a grid sweep, whose workload
    axes multiply the design axes) are fused into one stacked
    (sum-of-workloads x designs) grid so the whole sweep runs in a couple of
    NumPy passes.  Each dict holds ``time_s``, ``throughput_tflops``,
    ``dram_gb``, ``l2_gb``, ``resource_cost``, ``layers``, ``gemms`` and the
    Fig. 16c-style ``bottlenecks`` time shares (labels in first-bounded
    order, zero-time workloads skipped).
    """
    results: List[Optional[Dict[str, object]]] = [None] * len(points)
    groups: Dict[Tuple[str, int, str, int], List[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(signature_of(point), []).append(i)

    # Partition signature groups by their (ordered) design list.
    generation = registry_generation()
    fused: Dict[Tuple, List[Tuple[List[int], Tuple]]] = {}
    for indices in groups.values():
        first = points[indices[0]]
        plan = _workload_plan(base_gpu, first.network, first.batch,
                              first.dtype_bytes, first.passes, unique,
                              layer_stride, generation)
        options = tuple(points[i].option for i in indices)
        fused.setdefault(options, []).append((indices, plan))

    for options, entries in fused.items():
        gpus = BatchedGpuSpec.from_options(base_gpu, options)
        cost_list = _design_costs(gpus).tolist()
        stacks = {hw: _concat_stacks([plan[3][hw] for _, plan in entries])
                  for hw in CTA_TILE_FAMILIES}
        est = estimate_grid(gpus, stacks=stacks)
        offset = 0
        for indices, plan in entries:
            num_workloads = plan[1]
            slab = slice(offset, offset + num_workloads)
            offset += num_workloads
            metrics = _assemble_group(
                plan, est.times[slab], est.bottleneck_index[slab],
                est.dram_bytes[slab], est.l2_bytes[slab], cost_list)
            for i, point_metrics in zip(indices, metrics):
                results[i] = point_metrics
    return results


__all__ = ["evaluate_points", "_workload_layers", "design_cost"]
