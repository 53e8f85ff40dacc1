"""DeLTA performance model (Section V of the paper): estimates per workload.

Given the per-main-loop traffic volumes produced by the traffic model and the
GPU specification, the performance model evaluates the execution time of a
GEMM workload under each potential resource bottleneck (Fig. 10) and
reports the largest one together with its bottleneck label:

* **Eq. 16** — compute / shared-memory bound (cases 1 and 3): per-SM time is
  the sum of ``max(tCS, tSAS)`` over every main loop of every CTA the SM runs.
* **Eq. 17** — DRAM (global load) latency bound (case 2): too few active CTAs
  to hide ``tGLS``, so each wave of active CTAs pays the full load latency.
* **Eq. 18** — memory bandwidth bound (case 4): the per-loop transfer time of
  the saturated level dominates; evaluated separately for L1, L2 and DRAM.

The prologue (Eq. 14) is charged once and the epilogue (Eq. 15) once per CTA.
The per-SM CTA count uses the most-loaded SM (``ceil(NumCTA / NumSM)``)
because that SM determines the layer's completion time.

The equations are evaluated in one place, the structure-of-arrays
:func:`repro.core.batched._performance_grid`.  :func:`estimate_distinct`
runs a list of distinct workloads through it on one GPU and returns one
:class:`ExecutionEstimate` per workload; :func:`estimate_workloads` dedupes
an arbitrary workload list by structural key first and fans the estimates
back out, one per input row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Callable, Dict, Hashable, Iterable, List, Sequence, Tuple,
                    Union)

from ..gpu.spec import GpuSpec
from ..obs import spans as obs_spans
from .batched import (CANDIDATE_ORDER, WorkloadStack, _performance_grid,
                      single_design)
from .bottleneck import Bottleneck
from .layer import LayerConfig
from .traffic import TrafficEstimate
from .workload import GemmWorkload, as_workload


@dataclass(frozen=True)
class ExecutionEstimate:
    """Predicted execution time of one GEMM workload on one GPU."""

    workload: GemmWorkload
    gpu: GpuSpec
    #: traffic of the workload; workloads with equal structural keys in one
    #: :func:`estimate_workloads` call share this object.
    traffic: TrafficEstimate
    #: execution time in seconds of the most-loaded SM (the layer's runtime).
    time_seconds: float
    #: the resource that bounds the execution time.
    bottleneck: Bottleneck
    #: CTAs resident per SM used by the latency-hiding analysis.
    active_ctas: int
    #: CTAs executed by the most-loaded SM.
    ctas_per_sm: int

    @property
    def layer(self) -> LayerConfig:
        """The layer the workload was lowered from."""
        return self.workload.layer

    @property
    def pass_kind(self) -> str:
        return self.workload.pass_kind

    @property
    def cycles(self) -> float:
        """Execution time converted to core clock cycles."""
        return self.time_seconds * self.gpu.core_clock_hz

    @property
    def throughput_tflops(self) -> float:
        """Achieved FP32 throughput in TFLOP/s."""
        if self.time_seconds <= 0:
            return 0.0
        return self.workload.flops / self.time_seconds / 1e12

    @property
    def mac_efficiency(self) -> float:
        """Achieved fraction of the device's peak MAC throughput."""
        peak = self.gpu.fp32_flops
        return min(1.0, self.workload.flops / (self.time_seconds * peak))


def key_slots(keys: Iterable[Hashable]) -> Tuple[List[int], List[int]]:
    """Dedupe ``keys`` in first-occurrence order.

    Returns the positions of each distinct key's first occurrence and, per
    key, the slot (index into those positions) of its distinct key.
    """
    slot_of: Dict[Hashable, int] = {}
    firsts: List[int] = []
    slots: List[int] = []
    for position, key in enumerate(keys):
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(firsts)
            firsts.append(position)
        slots.append(slot)
    return firsts, slots


def estimate_distinct(gpu: GpuSpec,
                      traffic_of: Callable[[GemmWorkload], TrafficEstimate],
                      workloads: Sequence[GemmWorkload], pairs: int
                      ) -> List[ExecutionEstimate]:
    """Estimate each workload on ``gpu``, one estimate per workload.

    Callers pass workloads of distinct structural keys (see
    :func:`key_slots`).  One ``traffic_of`` call per workload, then one
    :func:`~repro.core.batched._performance_grid` call over all of them on
    ``gpu``'s one-design batch.  ``pairs`` is the number of (layer, pass)
    rows the workloads stand for; it is recorded, with the distinct count
    ``keys``, on the deep ``model.traffic`` and ``model.grid`` spans.
    """
    if not workloads:
        return []
    keys = len(workloads)
    with obs_spans.trace_deep("model.traffic", pairs=pairs, keys=keys):
        traffics = [traffic_of(workload) for workload in workloads]
    with obs_spans.trace_deep("model.grid", pairs=pairs, keys=keys):
        times, index, active, ctas_per_sm = (
            column[:, 0].tolist() for column in _performance_grid(
                single_design(gpu), WorkloadStack.from_traffic(traffics)))
    return [ExecutionEstimate(workload=workload, gpu=gpu, traffic=traffic,
                              time_seconds=times[slot],
                              bottleneck=CANDIDATE_ORDER[index[slot]],
                              active_ctas=active[slot],
                              ctas_per_sm=ctas_per_sm[slot])
            for slot, (workload, traffic)
            in enumerate(zip(workloads, traffics))]


def estimate_workloads(gpu: GpuSpec,
                       traffic_of: Callable[[GemmWorkload], TrafficEstimate],
                       sources: Iterable[Union[LayerConfig, GemmWorkload]]
                       ) -> List[ExecutionEstimate]:
    """Estimate every source on ``gpu``, one estimate per source, in order.

    Layers are evaluated as their forward pass.  Workloads with equal
    ``structural_key()`` (a network's repeated blocks) are estimated once,
    by :func:`estimate_distinct`, and share that estimate's traffic.  Each
    estimate keeps its own workload, so names and pass kinds stay per row.
    """
    workloads = [as_workload(source) for source in sources]
    firsts, slots = key_slots([workload.structural_key()
                               for workload in workloads])
    estimates = estimate_distinct(
        gpu, traffic_of, [workloads[first] for first in firsts],
        pairs=len(workloads))
    return [estimate if estimate.workload is workload
            else replace(estimate, workload=workload)
            for workload, estimate
            in zip(workloads, map(estimates.__getitem__, slots))]
