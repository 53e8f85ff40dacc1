"""High-level DeLTA facade: one object that answers traffic and time queries.

:class:`DeltaModel` is the public entry point most users want::

    from repro import DeltaModel, TITAN_XP, alexnet

    model = DeltaModel(TITAN_XP)
    for layer in alexnet(batch=256).conv_layers():
        estimate = model.estimate(layer)
        print(layer.name, estimate.time_seconds, estimate.bottleneck)

Every query accepts either a layer config (evaluated as its forward-pass
GEMM) or a :class:`~repro.core.workload.GemmWorkload` produced by the pass
lowering.  Every time estimate goes through :meth:`DeltaModel.estimate_many`,
which evaluates a whole list of workloads in one batched call, each distinct
workload once.
:meth:`DeltaModel.estimate_pass` and :meth:`DeltaModel.estimate_training_step`
cover the backward passes and whole training steps::

    step = model.estimate_training_step(alexnet(batch=256))
    print(step.total_time_seconds, step.time_by_pass)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple, Union

from ..gpu.spec import GpuSpec
from .dram import DramModelOptions
from .l1 import ReplicationMode
from .l2 import L2ModelOptions
from .layer import LayerConfig
from .performance import ExecutionEstimate, estimate_workloads
from .traffic import TrafficEstimate, TrafficModel
from .training import TrainingStepEstimate, estimate_training_step
from .workload import TRAINING_PASSES, GemmWorkload, PassKind, lower_pass

Source = Union[LayerConfig, GemmWorkload]


@dataclass(frozen=True)
class DeltaModel:
    """The complete DeLTA model: memory traffic (Sec. IV) + performance (Sec. V)."""

    gpu: GpuSpec
    l2_options: L2ModelOptions = field(default_factory=L2ModelOptions)
    dram_options: DramModelOptions = field(default_factory=DramModelOptions)
    #: how often each input matrix is streamed through L1 (see repro.core.l1).
    l1_replication: ReplicationMode = "per-cta"
    #: CTA tile height/width family (128 for stock kernels, 256 for Fig. 16a
    #: options 7-9).
    cta_tile_hw: int = 128

    @property
    def traffic_model(self) -> TrafficModel:
        return TrafficModel(
            gpu=self.gpu,
            l2_options=self.l2_options,
            dram_options=self.dram_options,
            l1_replication=self.l1_replication,
            cta_tile_hw=self.cta_tile_hw,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def traffic(self, source: Source) -> TrafficEstimate:
        """Estimate L1/L2/DRAM traffic for one workload (or forward layer)."""
        return self.traffic_model.estimate(source)

    def estimate_many(self, sources: Iterable[Source]
                      ) -> List[ExecutionEstimate]:
        """Estimate many workloads (or forward layers), in input order.

        Workloads with equal structural keys share one traffic estimate,
        and all of them are timed in one batched evaluation.
        """
        return estimate_workloads(self.gpu, self.traffic_model.estimate,
                                  sources)

    def estimate(self, source: Source) -> ExecutionEstimate:
        """Estimate execution time and bottleneck for one workload."""
        return self.estimate_many((source,))[0]

    def estimate_pass(self, layer: LayerConfig,
                      pass_kind: PassKind) -> ExecutionEstimate:
        """Estimate one training pass (forward, dgrad or wgrad) of a layer."""
        return self.estimate(lower_pass(layer, pass_kind))

    def estimate_layers(self, layers: Iterable[Source]) -> List[ExecutionEstimate]:
        """Estimate every layer of a network (or any workload iterable)."""
        return self.estimate_many(layers)

    def total_time(self, layers: Iterable[Source]) -> float:
        """Total predicted execution time (seconds) of a sequence of layers."""
        return sum(estimate.time_seconds for estimate in self.estimate_layers(layers))

    def estimate_training_step(self, network,
                               passes: Tuple[PassKind, ...] = TRAINING_PASSES
                               ) -> TrainingStepEstimate:
        """Per-pass and total time/traffic of one training step of a network."""
        return estimate_training_step(self, network, passes=passes)

    def for_gpu(self, gpu: GpuSpec) -> "DeltaModel":
        """A copy of this model targeting a different (e.g. scaled) GPU."""
        return DeltaModel(
            gpu=gpu,
            l2_options=self.l2_options,
            dram_options=self.dram_options,
            l1_replication=self.l1_replication,
            cta_tile_hw=self.cta_tile_hw,
        )
