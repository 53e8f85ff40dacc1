"""Sensitivity sweeps of the traffic model (Appendix A, Fig. 17).

The paper fixes a reference synthetic layer -- 256 input channels, 13x13
IFmap, 128 output channels, 3x3 filter, stride 1 -- and sweeps one parameter
at a time (output channels, input channels, feature size, mini-batch size),
reporting the model/measured traffic ratio at each point.  The sweeps here use
the simulator substrate as the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.layer import ConvLayerConfig
from ..core.model import DeltaModel
from ..core.tiling import build_grid
from ..gpu.spec import GpuSpec
from ..sim.engine import ConvLayerSimulator, SimulatorConfig
from .validation import MEMORY_LEVELS


def reference_layer(batch: int = 32) -> ConvLayerConfig:
    """The synthetic layer of Appendix A (common GoogLeNet/ResNet shape)."""
    return ConvLayerConfig.square(
        "sensitivity_ref", batch,
        in_channels=256, in_size=13, out_channels=128,
        filter_size=3, stride=1, padding=1,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Model/measured ratios of one configuration of a sweep."""

    value: int
    layer: ConvLayerConfig
    ratios: Dict[str, float]
    model_bytes: Dict[str, float]
    measured_bytes: Dict[str, float]
    cta_tile_width: int
    num_ctas: int

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"value": self.value}
        for level in MEMORY_LEVELS:
            row[f"{level}_ratio"] = self.ratios[level]
        row["cta_tile_width"] = self.cta_tile_width
        row["num_ctas"] = self.num_ctas
        return row


@dataclass(frozen=True)
class SensitivitySweep:
    """One parameter sweep (one panel of Fig. 17)."""

    parameter: str
    gpu: GpuSpec
    points: Tuple[SweepPoint, ...]

    def ratios(self, level: str) -> List[float]:
        return [point.ratios[level] for point in self.points]

    def values(self) -> List[int]:
        return [point.value for point in self.points]

    def rows(self) -> List[Dict[str, object]]:
        return [point.as_row() for point in self.points]


def _vary(base: ConvLayerConfig, parameter: str, value: int) -> ConvLayerConfig:
    """A copy of the reference layer with one swept parameter changed."""
    if parameter == "out_channels":
        return replace(base, out_channels=value, name=f"co_{value}")
    if parameter == "in_channels":
        return replace(base, in_channels=value, name=f"ci_{value}")
    if parameter == "feature_size":
        return replace(base, in_height=value, in_width=value, name=f"hw_{value}")
    if parameter == "batch":
        return replace(base, batch=value, name=f"b_{value}")
    raise ValueError(f"unknown sweep parameter {parameter!r}")


#: default sweep values per parameter; coarser than the paper's (which steps
#: by 1-4) to keep pure-Python simulation tractable, but spanning the same
#: ranges so the trends are visible.
DEFAULT_SWEEPS: Dict[str, Tuple[int, ...]] = {
    "out_channels": (32, 48, 64, 96, 128, 192, 256, 384),
    "in_channels": (16, 64, 128, 256, 384, 512),
    "feature_size": (8, 12, 16, 24, 32, 48, 64),
    "batch": (16, 32, 64, 128),
}


def run_sweep(parameter: str, gpu: GpuSpec,
              values: Optional[Sequence[int]] = None,
              base: Optional[ConvLayerConfig] = None,
              simulator_config: Optional[SimulatorConfig] = None,
              session=None) -> SensitivitySweep:
    """Sweep one parameter and compare model vs simulated traffic.

    With a :class:`repro.api.Session`, measurements route through the
    session (its in-memory memo and optional disk cache apply); without
    one a plain simulator runs inline.
    """
    if values is None:
        values = DEFAULT_SWEEPS[parameter]
    base = base or reference_layer()
    model = DeltaModel(gpu)
    sim_config = simulator_config or SimulatorConfig(max_ctas=60)
    if session is not None:
        def measure(layer: ConvLayerConfig):
            return session.simulate(gpu, layer, sim_config)
    else:
        simulator = ConvLayerSimulator(gpu, sim_config)
        measure = simulator.run

    points: List[SweepPoint] = []
    for value in values:
        layer = _vary(base, parameter, value)
        estimate = model.traffic(layer)
        measured = measure(layer)
        ratios = {}
        model_bytes = {}
        measured_bytes = {}
        for level in MEMORY_LEVELS:
            model_bytes[level] = estimate.level_bytes(level)
            measured_bytes[level] = measured.traffic.level_bytes(level)
            ratios[level] = (model_bytes[level] / measured_bytes[level]
                             if measured_bytes[level] > 0 else float("nan"))
        grid = build_grid(layer)
        points.append(SweepPoint(
            value=value,
            layer=layer,
            ratios=ratios,
            model_bytes=model_bytes,
            measured_bytes=measured_bytes,
            cta_tile_width=grid.tile.blk_n,
            num_ctas=grid.num_ctas,
        ))
    return SensitivitySweep(parameter=parameter, gpu=gpu, points=tuple(points))


def run_all_sweeps(gpu: GpuSpec,
                   sweeps: Optional[Dict[str, Sequence[int]]] = None,
                   simulator_config: Optional[SimulatorConfig] = None,
                   base: Optional[ConvLayerConfig] = None,
                   session=None) -> Dict[str, SensitivitySweep]:
    """Run every Fig. 17 panel; returns sweeps keyed by parameter name."""
    sweeps = dict(sweeps) if sweeps is not None else dict(DEFAULT_SWEEPS)
    return {parameter: run_sweep(parameter, gpu, values, base=base,
                                 simulator_config=simulator_config,
                                 session=session)
            for parameter, values in sweeps.items()}
