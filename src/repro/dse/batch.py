"""Array-of-points evaluation for DSE sweeps.

:func:`evaluate_points` turns a :class:`~repro.dse.space.PointTable` into a
:class:`MetricTable` of metric columns: it groups the rows by workload
signature, lowers each workload's layers once, and evaluates the whole group
through :mod:`repro.core.batched` in a handful of NumPy passes.  Workload
rows that are bitwise equal (a forward signature repeats rows of its
training signature, lowered passes coincide) are evaluated once, and the
grid runs one cache-sized design slab at a time (:data:`GRID_SLAB_CELLS`);
every cell reads only its own workload row and design column, so neither
changes a value.  Per-point sums accumulate left to right in layer order
(layers outer, passes inner), so the metrics equal a one-point-at-a-time
walk over the same estimates bit for bit — the fig16 pin and the scalar
test oracle (``tests/model_reference.py``) hold, and a resumed sweep's
records equal a fresh one's.  Metrics dicts are built only for the rows a
caller reads.

Workload layers and plans are memoized per process, keyed by the network
registry's generation (:func:`~repro.networks.registry.registry_generation`)
so a network registered again under the same name is re-lowered.
"""

from __future__ import annotations

import base64
import dataclasses
from collections.abc import Sequence
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

from ..analysis.frontier import (_CHIP_COST_WEIGHTS, _PER_SM_COST_WEIGHTS,
                                 design_cost)
from ..core.batched import (CANDIDATE_ORDER, CTA_TILE_FAMILIES,
                            BatchedEstimates, BatchedGpuSpec, WorkloadStack,
                            build_stacks, estimate_grid, traffic_by_family)
from ..core.workload import expand_passes, lower_passes
from ..gpu.spec import FP32_BYTES, GpuSpec
from ..networks.registry import get_network, registry_generation
from ..obs import spans as obs_spans
from .space import DesignPoint, PointTable

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


#: cells (distinct workload rows x designs) of one evaluation slab: each
#: float64 temporary of the Eq. 11-18 grid is then ~1 MiB and stays in a
#: core's L2 instead of streaming a whole-grid array through memory ~85
#: times.
GRID_SLAB_CELLS = 1 << 17


@lru_cache(maxsize=64)
def _fused_plan(base_gpu: GpuSpec, signatures: Tuple[Tuple, ...],
                unique: bool, layer_stride: int, generation: int
                ) -> Tuple[Dict[int, WorkloadStack],
                           Tuple[Tuple[Tuple, Tuple[int, ...]], ...]]:
    """The distinct workload rows of several signatures' plans.

    Concatenates the signatures' stacks along the workload axis and keys
    each row by the exact bytes of all its fields in every tile family, so
    only bitwise-equal rows merge.  Returns one stack per family of the
    distinct rows (in key order) and, per signature, its plan (see
    :func:`_workload_plan`) with its workloads' rows in those stacks, in
    evaluation order.  Memoized like the plans: a chunked sweep fuses the
    same signatures call after call.
    """
    plans = [_workload_plan(base_gpu, network, batch, dtype_bytes, passes,
                            unique, layer_stride, generation)
             for network, batch, passes, dtype_bytes in signatures]
    stacks = {hw: WorkloadStack(**{
        f.name: np.concatenate([getattr(plan[3][hw], f.name)
                                for plan in plans], axis=0)
        for f in dataclasses.fields(WorkloadStack)})
        for hw in CTA_TILE_FAMILIES}
    bounds = np.cumsum([0] + [plan[1] for plan in plans]).tolist()
    raw = np.concatenate([
        np.ascontiguousarray(getattr(stacks[hw], f.name)).reshape(
            bounds[-1], -1).view(np.uint8)
        for hw in CTA_TILE_FAMILIES for f in dataclasses.fields(WorkloadStack)
    ], axis=1)
    _, first, inverse = np.unique(
        raw.view(np.dtype((np.void, raw.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    rows = inverse.ravel().tolist()
    return ({hw: WorkloadStack(**{f.name: getattr(stack, f.name)[first]
                                  for f in dataclasses.fields(stack)})
             for hw, stack in stacks.items()},
            tuple((plan, tuple(rows[start:stop]))
                  for plan, start, stop in zip(plans, bounds, bounds[1:])))


#: keys of a metrics dict, in dict order.
METRIC_FIELDS: Tuple[str, ...] = (
    "time_s", "throughput_tflops", "dram_gb", "l2_gb", "resource_cost",
    "layers", "gemms", "bottlenecks")

#: little-endian storage dtype of every :class:`MetricTable` column.
_COLUMN_DTYPES: Dict[str, str] = {
    "time_s": "<f8", "throughput_tflops": "<f8", "dram_gb": "<f8",
    "l2_gb": "<f8", "resource_cost": "<f8", "layers": "<i4", "gemms": "<i4",
    "bottleneck_shares": "<f8", "bottleneck_order": "<i1",
}

_LABEL_INDEX: Dict[str, int] = {label: index for index, label
                                in enumerate(_CANDIDATE_LABELS)}


@dataclasses.dataclass(frozen=True, eq=False)
class MetricTable(Sequence):
    """Metrics of N evaluated design points as columns.

    A ``Sequence`` whose items are the metrics dicts (``time_s``,
    ``throughput_tflops``, ``dram_gb``, ``l2_gb``, ``resource_cost``,
    ``layers``, ``gemms`` and the Fig. 16c-style ``bottlenecks`` time
    shares, labels in first-bounded order), built only for the rows read;
    sweeps, frontiers and the result store read the columns.
    """

    time_s: np.ndarray
    throughput_tflops: np.ndarray
    dram_gb: np.ndarray
    l2_gb: np.ndarray
    resource_cost: np.ndarray
    layers: np.ndarray
    gemms: np.ndarray
    #: (N, 6) share of the time each label bounds, :data:`CANDIDATE_ORDER`
    #: columns (0.0 where a label never bounds).
    bottleneck_shares: np.ndarray
    #: (N, 6) label columns in first-bounded order, padded with -1.
    bottleneck_order: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, object]]
                     ) -> "MetricTable":
        """The table of metrics dicts (keys in :data:`METRIC_FIELDS`
        order, as :meth:`__getitem__` returns them)."""
        records = list(records)
        shares = np.zeros((len(records), len(_CANDIDATE_LABELS)))
        order = np.full(shares.shape, -1, dtype=np.int8)
        for row, record in enumerate(records):
            if tuple(record) != METRIC_FIELDS:
                raise ValueError(
                    f"not a metrics record: keys {list(record)}, expected "
                    f"{list(METRIC_FIELDS)}")
            for rank, (label, share) in enumerate(
                    record["bottlenecks"].items()):
                if label not in _LABEL_INDEX:
                    raise ValueError(f"unknown bottleneck label {label!r}")
                shares[row, _LABEL_INDEX[label]] = share
                order[row, rank] = _LABEL_INDEX[label]
        columns = {name: np.array([record[name] for record in records],
                                  dtype=_COLUMN_DTYPES[name][1:])
                   for name in METRIC_FIELDS[:-1]}
        return cls(**columns, bottleneck_shares=shares,
                   bottleneck_order=order)

    @classmethod
    def concat(cls, tables: Sequence["MetricTable"]) -> "MetricTable":
        if len(tables) == 1:
            return tables[0]
        if not tables:
            return cls.from_records(())
        return cls(**{f.name: np.concatenate([getattr(table, f.name)
                                              for table in tables])
                      for f in dataclasses.fields(cls)})

    def take(self, rows: Sequence[int]) -> "MetricTable":
        """The table of ``rows`` (row indices, in the order given)."""
        rows = np.asarray(rows, dtype=np.intp)
        return MetricTable(**{f.name: getattr(self, f.name)[rows]
                              for f in dataclasses.fields(self)})

    def encode(self) -> Dict[str, str]:
        """Columns as base64 of their little-endian bytes (bit-exact)."""
        return {name: base64.b64encode(np.ascontiguousarray(
                    getattr(self, name), dtype=dtype).tobytes()
                ).decode("ascii")
                for name, dtype in _COLUMN_DTYPES.items()}

    @classmethod
    def decode(cls, columns: Mapping[str, str], count: int) -> "MetricTable":
        """Inverse of :meth:`encode` for ``count`` rows; a missing, extra
        or wrongly sized column raises ``ValueError``."""
        if set(columns) != set(_COLUMN_DTYPES):
            raise ValueError(f"columns {sorted(columns)} are not "
                             f"{sorted(_COLUMN_DTYPES)}")
        decoded = {}
        for name, dtype in _COLUMN_DTYPES.items():
            values = np.frombuffer(base64.b64decode(columns[name],
                                                    validate=True), dtype)
            shape = ((count, len(_CANDIDATE_LABELS))
                     if name.startswith("bottleneck_") else (count,))
            decoded[name] = values.reshape(shape)
        return cls(**decoded)

    def __len__(self) -> int:
        return len(self.time_s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return next(iter(self.take([index])))

    def __iter__(self) -> Iterator[Dict[str, object]]:
        labels = _CANDIDATE_LABELS
        for (time_s, throughput, dram_gb, l2_gb, cost, layers, gemms,
             shares, order) in zip(
                *(getattr(self, f.name).tolist()
                  for f in dataclasses.fields(self))):
            bottlenecks: Dict[str, float] = {}
            for label in order:
                if label < 0:
                    break
                bottlenecks[labels[label]] = shares[label]
            yield {"time_s": time_s, "throughput_tflops": throughput,
                   "dram_gb": dram_gb, "l2_gb": l2_gb,
                   "resource_cost": cost, "layers": layers, "gemms": gemms,
                   "bottlenecks": bottlenecks}


def _assemble_group(plan: Tuple[int, int, int, Dict], rows: Sequence[int],
                    est: BatchedEstimates, costs: np.ndarray) -> MetricTable:
    """Metric columns of one workload-signature group on one design slab.

    ``rows`` maps the signature's workloads, in evaluation order, to their
    rows of ``est``.  Every sum adds the workload rows in place, left to
    right in that order, so each column equals the scalar running sums bit
    for bit.
    """
    num_layers, num_workloads, flops, _ = plan
    times, index = est.times, est.bottleneck_index
    dram_rows, l2_rows = est.dram_bytes, est.l2_bytes
    count = times.shape[1]
    columns = np.arange(count)
    total = np.array(times[rows[0]], dtype=np.float64)
    dram_bytes = np.array(dram_rows[rows[0]], dtype=np.float64)
    l2_bytes = np.array(l2_rows[rows[0]], dtype=np.float64)
    # Per label: the time it bounds and the workload where it first does.
    # The scalar shares add only positive times, and the +0.0 added for the
    # other rows never changes a non-negative accumulator.
    shares = np.zeros((len(_CANDIDATE_LABELS), count))
    first = np.full(shares.shape, num_workloads)
    for workload, row in enumerate(rows):
        row_times = times[row]
        if workload:
            total += row_times
            dram_bytes += dram_rows[row]
            l2_bytes += l2_rows[row]
        labels = index[row]
        bounded = row_times > 0.0
        shares[labels, columns] += np.where(bounded, row_times, 0.0)
        unseen = bounded & (first[labels, columns] == num_workloads)
        first[labels[unseen], columns[unseen]] = workload

    # Labels in first-bounded order (the scalar shares dict's insertion
    # order; zero-time workloads skipped), never-bounding labels as -1.
    order = np.argsort(first.T, axis=1, kind="stable")
    bounding = np.take_along_axis(first.T, order, axis=1) < num_workloads
    with np.errstate(divide="ignore", invalid="ignore"):
        throughput = np.where(total > 0.0, float(flops) / total / 1e12, 0.0)
        share_of_time = np.where(total > 0.0, shares / total, 0.0)
    return MetricTable(
        time_s=total,
        throughput_tflops=throughput,
        dram_gb=dram_bytes / 1e9,
        l2_gb=l2_bytes / 1e9,
        resource_cost=costs,
        layers=np.full(count, num_layers, dtype=np.int64),
        gemms=np.full(count, num_workloads, dtype=np.int64),
        bottleneck_shares=np.ascontiguousarray(share_of_time.T),
        bottleneck_order=np.where(bounding, order, -1).astype(np.int8))


def evaluate_points(base_gpu: GpuSpec, points: Sequence[DesignPoint], *,
                    unique: bool = True,
                    layer_stride: int = 1) -> MetricTable:
    """Metrics of many design points, one row per point, in input order.

    ``points`` is a :class:`~repro.dse.space.PointTable` (or design points,
    tabled first).  Rows are grouped by workload signature; groups that
    range over the *same* design list (the common case for a grid sweep,
    whose workload axes multiply the design axes) are fused into one
    stacked grid over their distinct workload rows, evaluated and assembled
    one design slab of at most :data:`GRID_SLAB_CELLS` cells at a time.
    """
    table = PointTable.from_points(points)
    generation = registry_generation()
    by_signature = np.argsort(table.signature_index, kind="stable")
    counts = np.bincount(table.signature_index,
                         minlength=len(table.signatures))
    # Partition signature groups by their (ordered) design list.
    fused: Dict[bytes, Tuple[np.ndarray, List[np.ndarray], List[Tuple]]] = {}
    for signature, rows in zip(
            table.signatures,
            np.split(by_signature, np.cumsum(counts)[:-1])):
        if not len(rows):
            continue
        design = table.design[rows]
        group = fused.setdefault(design.tobytes(), (design, [], []))
        group[1].append(rows)
        group[2].append(signature)

    order: List[np.ndarray] = []
    pieces: List[MetricTable] = []
    for design, group_rows, signatures in fused.values():
        stacks, groups = _fused_plan(base_gpu, tuple(signatures), unique,
                                     layer_stride, generation)
        distinct = len(stacks[CTA_TILE_FAMILIES[0]].flops)
        step = max(1, GRID_SLAB_CELLS // distinct)
        for start in range(0, len(design), step):
            slab = design[start:start + step]
            with obs_spans.trace_deep("dse.grid", rows=distinct,
                                      designs=len(slab),
                                      cells=distinct * len(slab)):
                gpus = BatchedGpuSpec.from_options(base_gpu, slab)
                costs = _design_costs(gpus)
                est = estimate_grid(gpus, stacks=stacks)
            with obs_spans.trace_deep("dse.assemble",
                                      points=len(groups) * len(slab)):
                for rows, (plan, workload_rows) in zip(group_rows, groups):
                    order.append(rows[start:start + step])
                    pieces.append(_assemble_group(plan, workload_rows, est,
                                                  costs))
    metrics = MetricTable.concat(pieces)
    if not pieces:
        return metrics
    rows = np.concatenate(order)
    inverse = np.empty_like(rows)
    inverse[rows] = np.arange(len(rows))
    return metrics.take(inverse)


__all__ = ["MetricTable", "evaluate_points", "_workload_layers",
           "design_cost"]
