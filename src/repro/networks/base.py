"""Network container: an ordered collection of GEMM-lowerable layer configs.

The paper evaluates DeLTA on the convolution layers of AlexNet, VGG16,
GoogLeNet and ResNet152.  Because many layers in these networks share the
exact same configuration, results are reported on the *unique* subset
(Section VI); :meth:`ConvNetwork.unique_layers` reproduces that subset while
:meth:`ConvNetwork.gemm_layers` returns the full list (used, e.g., for the
ResNet152 scaling study which sums over all layers).

Since the GEMM-native layer families landed, a network may mix convolution
layers with :class:`~repro.core.layer.LinearLayerConfig` (the CNNs' FC tails,
MLPs, transformer projections) and :class:`~repro.core.layer.
BatchedGemmLayerConfig` (attention score/context products); every entry
lowers to per-pass :class:`~repro.core.workload.GemmWorkload` s through the
same :func:`~repro.core.workload.lower_pass` dispatch.
:meth:`ConvNetwork.conv_layers` keeps its historical meaning — the
convolution subset only — which is what the paper's conv-centric figures
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..core.layer import ConvLayerConfig, LayerConfig


@dataclass(frozen=True)
class ConvNetwork:
    """A network reduced to its GEMM-lowerable layers, in forward order."""

    name: str
    layers: Tuple[LayerConfig, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"network {self.name!r} has no layers")

    def __iter__(self) -> Iterator[LayerConfig]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def gemm_layers(self) -> List[LayerConfig]:
        """All GEMM-lowerable layers (conv, linear, batched), in forward order."""
        return list(self.layers)

    def conv_layers(self) -> List[ConvLayerConfig]:
        """The convolution layers only, in forward order."""
        return [layer for layer in self.layers
                if isinstance(layer, ConvLayerConfig)]

    def unique_layers(self) -> List[LayerConfig]:
        """The unique-configuration subset, preserving first occurrence order.

        Identity is the layer's ``structural_key`` — the same key the
        session's simulation work-unit dedupe uses, so the two cannot drift.
        """
        seen: Dict[Tuple, LayerConfig] = {}
        for layer in self.layers:
            key = layer.structural_key()
            if key not in seen:
                seen[key] = layer
        return list(seen.values())

    def layer(self, name: str) -> LayerConfig:
        """Look up a layer by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise KeyError(f"network {self.name!r} has no layer named {name!r}")

    def with_batch(self, batch: int) -> "ConvNetwork":
        """The same network at a different mini-batch size."""
        return ConvNetwork(
            name=self.name,
            layers=tuple(layer.with_batch(batch) for layer in self.layers),
        )

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate operations of all layers."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    def describe(self) -> str:
        lines = [f"{self.name}: {len(self.layers)} layers, "
                 f"{self.total_flops / 1e9:.1f} GFLOPs per batch"]
        lines.extend("  " + layer.describe() for layer in self.layers)
        return "\n".join(lines)


#: the container holds any GEMM-lowerable layer family, not just convolutions;
#: ``Network`` is the forward-looking name, ``ConvNetwork`` the historical one.
Network = ConvNetwork
