"""Network-level training-step aggregation over the pass-aware workload IR.

One SGD training step executes every convolution layer three times (forward,
dgrad, wgrad — Section II of the paper).  :func:`estimate_training_step` runs
the DeLTA model over the requested passes of every layer of a
:class:`~repro.networks.base.ConvNetwork` and aggregates per-pass and total
time and memory traffic into a :class:`TrainingStepEstimate`, the
network-level result the Session API and the ``training`` experiment report.

A network repeats a few layer structures many times, so the step is keyed
before it is lowered: layers are deduped by ``structural_key()``, each
distinct (layer, pass) is lowered and estimated once, and an index vector
maps every (layer, pass) row back to its distinct estimate.  Aggregates and
report rows read per-distinct columns through that index, in row order, so
names, row order and float summation order are those of a per-row loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import cycle, product
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..obs import spans as obs_spans
from .layer import LayerConfig
from .performance import ExecutionEstimate, estimate_distinct, key_slots
from .workload import TRAINING_PASSES, PassKind, lower_passes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..networks.base import ConvNetwork
    from .model import DeltaModel

#: memory levels aggregated per pass.
TRAFFIC_LEVELS: Tuple[str, ...] = ("l1", "l2", "dram")


@dataclass(frozen=True)
class LayerPassEstimate:
    """Execution estimate of one layer's GEMM for one training pass.

    Rows of one step whose layers have equal structural keys share one
    ``estimate``, lowered from the first such layer; ``layer_name`` is the
    row's own layer.
    """

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
    """Per-pass and total time/traffic of one training step of a network.

    The rows are every (layer, pass) pair, layers outer and passes inner.
    ``estimates`` holds one estimate per distinct (layer structure, pass),
    and ``index[row]`` is the row's position in it.
    """

    network: str
    gpu: str
    batch: int
    passes: Tuple[PassKind, ...]
    #: the input layers, in order (one row per layer and pass).
    layers: Tuple[LayerConfig, ...]
    estimates: Tuple[ExecutionEstimate, ...]
    index: Tuple[int, ...]

    # ------------------------------------------------------------------
    # Per-distinct columns, read per row through ``index``
    # ------------------------------------------------------------------
    @cached_property
    def _times(self) -> List[float]:
        return [estimate.time_seconds for estimate in self.estimates]

    def _level_bytes(self, level: str) -> List[float]:
        return [estimate.traffic.level_bytes(level)
                for estimate in self.estimates]

    def _key_rows(self, with_pass: bool) -> List[Dict[str, object]]:
        """The report row of each distinct estimate, ``layer`` unset."""
        rows = []
        for estimate in self.estimates:
            row: Dict[str, object] = {"layer": None}
            if with_pass:
                row["pass"] = estimate.pass_kind
            traffic = estimate.traffic
            row["time_ms"] = estimate.time_seconds * 1e3
            row["bottleneck"] = estimate.bottleneck.value
            row["TFLOP/s"] = estimate.throughput_tflops
            row["L1_GB"] = traffic.l1_bytes / 1e9
            row["L2_GB"] = traffic.l2_bytes / 1e9
            row["DRAM_GB"] = traffic.dram_bytes / 1e9
            rows.append(row)
        return rows

    def _per_row(self, values: Sequence) -> Iterable:
        return map(values.__getitem__, self.index)

    def _by_pass(self, values: Sequence[float]) -> Dict[str, float]:
        totals: Dict[str, float] = {kind: 0.0 for kind in self.passes}
        for kind, value in zip(cycle(self.passes), self._per_row(values)):
            totals[kind] += value
        return totals

    def column(self, name: str) -> List[object]:
        """One field of :meth:`rows` for every row, in row order."""
        return [row[name] for row in self._per_row(self._key_rows(False))]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @cached_property
    def records(self) -> Tuple[LayerPassEstimate, ...]:
        """One :class:`LayerPassEstimate` per row, built on first read."""
        return tuple(LayerPassEstimate(layer_name=layer.name, pass_kind=kind,
                                       estimate=self.estimates[slot])
                     for (layer, kind), slot
                     in zip(product(self.layers, self.passes), self.index))

    @property
    def time_by_pass(self) -> Dict[str, float]:
        """Total predicted seconds per pass, summed over all layers."""
        return self._by_pass(self._times)

    def traffic_by_pass(self, level: str) -> Dict[str, float]:
        """Total traffic bytes at one memory level per pass."""
        return self._by_pass(self._level_bytes(level))

    @property
    def total_time_seconds(self) -> float:
        return sum(self._per_row(self._times))

    def total_traffic_bytes(self, level: str) -> float:
        return sum(self._per_row(self._level_bytes(level)))

    @property
    def total_macs(self) -> int:
        return sum(self._per_row([estimate.workload.macs
                                  for estimate in self.estimates]))

    # ------------------------------------------------------------------
    # Report payloads (plain data; round-trips through Report JSON)
    # ------------------------------------------------------------------
    def rows(self, with_pass: bool = True) -> List[Dict[str, object]]:
        """One row per (layer, pass) with time, bottleneck and traffic.

        ``with_pass=False`` leaves out the ``pass`` column (a forward-only
        estimate's rows).  Each row is a copy of its key's row with the
        row's own layer name.
        """
        with obs_spans.trace_deep("model.rows", pairs=len(self.index),
                                  keys=len(self.estimates)):
            templates = self._key_rows(with_pass)
            rows = []
            for (layer, _), template in zip(product(self.layers, self.passes),
                                            self._per_row(templates)):
                row = template.copy()
                row["layer"] = layer.name
                rows.append(row)
        return rows

    def summary(self) -> Dict[str, object]:
        """Headline per-pass and total numbers."""
        payload: Dict[str, object] = {
            "total step time (ms)": self.total_time_seconds * 1e3,
        }
        for kind, seconds in self.time_by_pass.items():
            payload[f"{kind} time (ms)"] = seconds * 1e3
        payload["total DRAM (GB)"] = self.total_traffic_bytes("dram") / 1e9
        payload["layer GEMMs"] = len(self.index)
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

    Each distinct (layer structure, pass) is lowered and estimated once
    (the deep ``model.lower`` span, then ``model.traffic`` and
    ``model.grid``); rows fan back out through the step's index.
    """
    name = name or getattr(network, "name", "custom")
    layers = tuple(network)
    if not layers:
        raise ValueError("training step needs at least one layer")
    passes = tuple(passes)
    width = len(passes)
    pairs = len(layers) * width
    with obs_spans.trace_deep("model.lower", pairs=pairs) as span:
        firsts, slots = key_slots([layer.structural_key() for layer in layers])
        workloads = lower_passes([layers[first] for first in firsts], passes)
        index = tuple([slot * width + offset
                       for slot in slots for offset in range(width)])
        if span is not None:
            span.attrs["keys"] = len(workloads)
    estimates = estimate_distinct(model.gpu, model.traffic_model.estimate,
                                  workloads, pairs=pairs)
    return TrainingStepEstimate(
        network=name,
        gpu=model.gpu.name,
        batch=batch or layers[0].batch,
        passes=passes,
        layers=layers,
        estimates=tuple(estimates),
        index=index,
    )
