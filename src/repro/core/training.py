"""Network-level training-step aggregation over the pass-aware workload IR.

One SGD training step executes every convolution layer three times (forward,
dgrad, wgrad — Section II of the paper).  :func:`estimate_training_step` runs
the DeLTA model over the requested passes of every layer of a
:class:`~repro.networks.base.ConvNetwork` and aggregates per-pass and total
time and memory traffic into a :class:`TrainingStepEstimate`, the
network-level result the Session API and the ``training`` experiment report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from .layer import LayerConfig
from .performance import ExecutionEstimate
from .workload import TRAINING_PASSES, PassKind, lower_passes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..networks.base import ConvNetwork
    from .model import DeltaModel

#: memory levels aggregated per pass.
TRAFFIC_LEVELS: Tuple[str, ...] = ("l1", "l2", "dram")


@dataclass(frozen=True)
class LayerPassEstimate:
    """Execution estimate of one layer's GEMM for one training pass."""

    layer_name: str
    pass_kind: PassKind
    estimate: ExecutionEstimate

    @property
    def time_seconds(self) -> float:
        return self.estimate.time_seconds

    def traffic_bytes(self, level: str) -> float:
        return self.estimate.traffic.level_bytes(level)


@dataclass(frozen=True)
class TrainingStepEstimate:
    """Per-pass and total time/traffic of one training step of a network."""

    network: str
    gpu: str
    batch: int
    passes: Tuple[PassKind, ...]
    records: Tuple[LayerPassEstimate, ...]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def time_by_pass(self) -> Dict[str, float]:
        """Total predicted seconds per pass, summed over all layers."""
        totals: Dict[str, float] = {kind: 0.0 for kind in self.passes}
        for record in self.records:
            totals[record.pass_kind] += record.time_seconds
        return totals

    def traffic_by_pass(self, level: str) -> Dict[str, float]:
        """Total traffic bytes at one memory level per pass."""
        totals: Dict[str, float] = {kind: 0.0 for kind in self.passes}
        for record in self.records:
            totals[record.pass_kind] += record.traffic_bytes(level)
        return totals

    @property
    def total_time_seconds(self) -> float:
        return sum(record.time_seconds for record in self.records)

    def total_traffic_bytes(self, level: str) -> float:
        return sum(record.traffic_bytes(level) for record in self.records)

    @property
    def total_macs(self) -> int:
        return sum(record.estimate.workload.macs for record in self.records)

    # ------------------------------------------------------------------
    # Report payloads (plain data; round-trips through Report JSON)
    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        """One row per (layer, pass) with time, bottleneck and traffic."""
        rows: List[Dict[str, object]] = []
        for record in self.records:
            estimate = record.estimate
            rows.append({
                "layer": record.layer_name,
                "pass": record.pass_kind,
                "time_ms": record.time_seconds * 1e3,
                "bottleneck": estimate.bottleneck.value,
                "TFLOP/s": estimate.throughput_tflops,
                "L1_GB": record.traffic_bytes("l1") / 1e9,
                "L2_GB": record.traffic_bytes("l2") / 1e9,
                "DRAM_GB": record.traffic_bytes("dram") / 1e9,
            })
        return rows

    def summary(self) -> Dict[str, object]:
        """Headline per-pass and total numbers."""
        payload: Dict[str, object] = {
            "total step time (ms)": self.total_time_seconds * 1e3,
        }
        for kind, seconds in self.time_by_pass.items():
            payload[f"{kind} time (ms)"] = seconds * 1e3
        payload["total DRAM (GB)"] = self.total_traffic_bytes("dram") / 1e9
        payload["layer GEMMs"] = len(self.records)
        return payload


def estimate_training_step(model: "DeltaModel",
                           network: Union["ConvNetwork",
                                          Iterable[LayerConfig]],
                           batch: int = 0,
                           passes: Tuple[PassKind, ...] = TRAINING_PASSES,
                           name: Optional[str] = None
                           ) -> TrainingStepEstimate:
    """Estimate one training step of a network (or any layer iterable).

    Layers run in forward order; within each layer the requested passes run
    in training order.  ``batch`` is inferred from the first layer when not
    given (network containers carry it on every layer); ``name`` overrides
    the reported network name for plain layer iterables.
    """
    name = name or getattr(network, "name", "custom")
    layers = list(network)
    if not layers:
        raise ValueError("training step needs at least one layer")
    estimates = model.estimate_many(lower_passes(layers, passes))
    return TrainingStepEstimate(
        network=name,
        gpu=model.gpu.name,
        batch=batch or layers[0].batch,
        passes=tuple(passes),
        records=tuple(LayerPassEstimate(layer_name=estimate.layer.name,
                                        pass_kind=estimate.pass_kind,
                                        estimate=estimate)
                      for estimate in estimates),
    )
