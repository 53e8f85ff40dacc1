"""Layer configurations and their GEMM geometry.

A convolution layer (Section II-B of the paper) is described by the mini-batch
size ``B``, the input feature map dimensions ``Ci x Hi x Wi``, the filter
dimensions ``Co x Ci x Hf x Wf``, the stride and the zero padding.  The im2col
algorithm (Section II-C) lowers the convolution to a single GEMM of shape

    M x N x K  with  M = B*Ho*Wo,  N = Co,  K = Ci*Hf*Wf.

The module also carries the GEMM-native layer families that need no im2col
detour at all:

* :class:`LinearLayerConfig` — a fully-connected layer ``Y = X . W^T`` with
  dense row-major operands, lowered to one dense GEMM per training pass;
* :class:`BatchedGemmLayerConfig` — ``groups`` independent dense GEMMs of one
  shape (the attention score ``Q . K^T`` and context ``P . V`` products,
  one instance per (sample, head)).

(The seed represented FC layers as 1x1 convolutions over a 1x1 feature map;
that spelling still works, but the dense lowering models the actual row-major
activation layout instead of the BCHW detour.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple, Union

from ..gpu.spec import FP32_BYTES


@dataclass(frozen=True)
class ConvLayerConfig:
    """Configuration of a single convolution layer.

    Attributes use the paper's notation: ``i`` for input feature maps, ``o``
    for output feature maps and ``f`` for filters.
    """

    name: str
    #: mini-batch size (number of samples processed in parallel).
    batch: int
    #: number of input channels (Ci).
    in_channels: int
    #: input feature map height (Hi) and width (Wi), *without* padding.
    in_height: int
    in_width: int
    #: number of output channels (Co).
    out_channels: int
    #: filter height (Hf) and width (Wf).
    filter_height: int
    filter_width: int
    stride: int = 1
    padding: int = 0
    #: bytes per tensor element (FP32 for training, per the paper).
    dtype_bytes: int = FP32_BYTES

    def __post_init__(self) -> None:
        positive = {
            "batch": self.batch,
            "in_channels": self.in_channels,
            "in_height": self.in_height,
            "in_width": self.in_width,
            "out_channels": self.out_channels,
            "filter_height": self.filter_height,
            "filter_width": self.filter_width,
            "stride": self.stride,
            "dtype_bytes": self.dtype_bytes,
        }
        for attr, value in positive.items():
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")
        if self.filter_height > self.padded_height or self.filter_width > self.padded_width:
            raise ValueError(
                f"filter ({self.filter_height}x{self.filter_width}) larger than padded "
                f"input ({self.padded_height}x{self.padded_width}) for layer {self.name!r}"
            )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def square(cls, name: str, batch: int, in_channels: int, in_size: int,
               out_channels: int, filter_size: int, stride: int = 1,
               padding: int = 0) -> "ConvLayerConfig":
        """Create a layer with square feature maps and square filters."""
        return cls(
            name=name,
            batch=batch,
            in_channels=in_channels,
            in_height=in_size,
            in_width=in_size,
            out_channels=out_channels,
            filter_height=filter_size,
            filter_width=filter_size,
            stride=stride,
            padding=padding,
        )

    @classmethod
    def fully_connected(cls, name: str, batch: int, in_features: int,
                        out_features: int) -> "ConvLayerConfig":
        """Represent a fully-connected layer as a 1x1 convolution."""
        return cls(
            name=name,
            batch=batch,
            in_channels=in_features,
            in_height=1,
            in_width=1,
            out_channels=out_features,
            filter_height=1,
            filter_width=1,
            stride=1,
            padding=0,
        )

    def with_batch(self, batch: int) -> "ConvLayerConfig":
        """Return a copy of this layer with a different mini-batch size."""
        return replace(self, batch=batch)

    def with_name(self, name: str) -> "ConvLayerConfig":
        return replace(self, name=name)

    def with_dtype(self, dtype_bytes: int) -> "ConvLayerConfig":
        """Return a copy of this layer with a different element width."""
        return replace(self, dtype_bytes=dtype_bytes)

    def structural_key(self) -> Tuple[int, ...]:
        """Configuration identity of the layer, ignoring its name.

        Two layers with equal keys produce identical model and simulator
        results; both the network unique-layer dedupe and the session's
        simulation work-unit dedupe key on this method so they cannot drift.
        """
        return (
            self.batch,
            self.in_channels,
            self.in_height,
            self.in_width,
            self.out_channels,
            self.filter_height,
            self.filter_width,
            self.stride,
            self.padding,
            self.dtype_bytes,
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def padded_height(self) -> int:
        """Hi + 2*Pad."""
        return self.in_height + 2 * self.padding

    @property
    def padded_width(self) -> int:
        """Wi + 2*Pad."""
        return self.in_width + 2 * self.padding

    @property
    def out_height(self) -> int:
        """Ho = floor((Hi + 2*Pad - Hf) / stride) + 1."""
        return (self.padded_height - self.filter_height) // self.stride + 1

    @property
    def out_width(self) -> int:
        """Wo = floor((Wi + 2*Pad - Wf) / stride) + 1."""
        return (self.padded_width - self.filter_width) // self.stride + 1

    @property
    def is_pointwise(self) -> bool:
        """True for 1x1 convolutions (and FC layers), which have no im2col reuse."""
        return self.filter_height == 1 and self.filter_width == 1

    @property
    def filter_pixels(self) -> int:
        """Hf * Wf."""
        return self.filter_height * self.filter_width

    # ------------------------------------------------------------------
    # Sizes (element counts and bytes)
    # ------------------------------------------------------------------
    @property
    def ifmap_elements(self) -> int:
        """Unpadded IFmap footprint in elements: B*Ci*Hi*Wi."""
        return self.batch * self.in_channels * self.in_height * self.in_width

    @property
    def ofmap_elements(self) -> int:
        """OFmap footprint in elements: B*Co*Ho*Wo."""
        return self.batch * self.out_channels * self.out_height * self.out_width

    @property
    def filter_elements(self) -> int:
        """Filter footprint in elements: Co*Ci*Hf*Wf."""
        return (self.out_channels * self.in_channels
                * self.filter_height * self.filter_width)

    @property
    def ifmap_bytes(self) -> int:
        return self.ifmap_elements * self.dtype_bytes

    @property
    def ofmap_bytes(self) -> int:
        return self.ofmap_elements * self.dtype_bytes

    @property
    def filter_bytes(self) -> int:
        return self.filter_elements * self.dtype_bytes

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations of the layer: M*N*K of the GEMM."""
        shape = self.gemm_shape()
        return shape.m * shape.n * shape.k

    @property
    def flops(self) -> int:
        """Floating point operations (2 per MAC)."""
        return 2 * self.macs

    def gemm_shape(self) -> "GemmShape":
        """The im2col GEMM dimensions (M, N, K) of this layer."""
        return GemmShape(
            m=self.batch * self.out_height * self.out_width,
            n=self.out_channels,
            k=self.in_channels * self.filter_height * self.filter_width,
        )

    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of compulsory traffic (IFmap + filter + OFmap)."""
        compulsory = self.ifmap_bytes + self.filter_bytes + self.ofmap_bytes
        return self.flops / compulsory

    def describe(self) -> str:
        """One-line human readable summary of the layer."""
        return (
            f"{self.name}: B={self.batch} Ci={self.in_channels} "
            f"{self.in_height}x{self.in_width} -> Co={self.out_channels} "
            f"{self.out_height}x{self.out_width}, filter "
            f"{self.filter_height}x{self.filter_width}/s{self.stride}/p{self.padding}"
        )


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of the im2col GEMM: (M x K) * (K x N) -> (M x N)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for attr in ("m", "n", "k"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"GEMM dimension {attr} must be positive")

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k

    @property
    def ifmap_matrix_elements(self) -> int:
        """Number of elements in the (replicated) im2col IFmap matrix: M*K."""
        return self.m * self.k

    @property
    def filter_matrix_elements(self) -> int:
        """Number of elements in the filter matrix: N*K."""
        return self.n * self.k

    @property
    def ofmap_matrix_elements(self) -> int:
        """Number of elements in the output matrix: M*N."""
        return self.m * self.n

    @property
    def aspect_ratio(self) -> float:
        """M / N; im2col GEMMs are tall and skinny (>> 1)."""
        return self.m / self.n


@dataclass(frozen=True)
class LinearLayerConfig:
    """A fully-connected layer as one dense GEMM: ``Y[M,N] = X[M,K] . W[N,K]^T``.

    ``M = batch * rows_per_sample`` (``rows_per_sample`` covers token
    dimensions: a transformer projection contributes one GEMM row per
    sequence position of every sample), ``K = in_features`` and
    ``N = out_features``.  ``X`` and the gradients are row-major activation
    matrices; ``W`` is stored row-major ``[out_features, in_features]`` (the
    KCRS-like layout GEMM libraries use), so every operand of every training
    pass is contiguous along its K axis or its own axis — no im2col
    replication anywhere.
    """

    name: str
    #: mini-batch size (samples).
    batch: int
    #: input features per GEMM row (K).
    in_features: int
    #: output features per GEMM row (N).
    out_features: int
    #: GEMM rows contributed per sample (e.g. the sequence length).
    rows_per_sample: int = 1
    #: bytes per tensor element.
    dtype_bytes: int = FP32_BYTES

    def __post_init__(self) -> None:
        positive = {
            "batch": self.batch,
            "in_features": self.in_features,
            "out_features": self.out_features,
            "rows_per_sample": self.rows_per_sample,
            "dtype_bytes": self.dtype_bytes,
        }
        for attr, value in positive.items():
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")

    # ------------------------------------------------------------------
    # Copy-with helpers (shared vocabulary with ConvLayerConfig)
    # ------------------------------------------------------------------
    def with_batch(self, batch: int) -> "LinearLayerConfig":
        return replace(self, batch=batch)

    def with_name(self, name: str) -> "LinearLayerConfig":
        return replace(self, name=name)

    def with_dtype(self, dtype_bytes: int) -> "LinearLayerConfig":
        return replace(self, dtype_bytes=dtype_bytes)

    def structural_key(self) -> Tuple:
        """Configuration identity, ignoring the name.

        The leading type tag keeps linear keys disjoint from the all-integer
        convolution keys, so mixed-network dedupe can never alias layers of
        different families.
        """
        return ("linear", self.batch, self.rows_per_sample, self.in_features,
                self.out_features, self.dtype_bytes)

    # ------------------------------------------------------------------
    # Geometry and sizes
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """GEMM rows M: batch * rows_per_sample."""
        return self.batch * self.rows_per_sample

    @property
    def output_elements(self) -> int:
        """Output footprint in elements: M * N."""
        return self.rows * self.out_features

    def gemm_shape(self) -> GemmShape:
        return GemmShape(m=self.rows, n=self.out_features, k=self.in_features)

    @property
    def macs(self) -> int:
        return self.rows * self.out_features * self.in_features

    @property
    def flops(self) -> int:
        return 2 * self.macs

    def describe(self) -> str:
        rows = (f"B={self.batch}" if self.rows_per_sample == 1
                else f"B={self.batch}x{self.rows_per_sample}")
        return (f"{self.name}: linear {rows} "
                f"{self.in_features} -> {self.out_features}")


@dataclass(frozen=True)
class BatchedGemmLayerConfig:
    """``groups`` independent dense GEMMs of one shape (batched GEMM).

    The attention score product ``S = Q . K^T`` runs one ``(seq x seq x
    head_dim)`` GEMM per (sample, head) pair, and the context product
    ``C = P . V`` one ``(seq x head_dim x seq)`` GEMM; both are batched GEMMs
    with ``groups = batch * groups_per_sample`` instances.  Every operand is a
    dense row-major matrix ``[groups, rows, K]``; instance ``g``'s tensors sit
    at offset ``g * rows * K`` inside the operand's address range.
    """

    name: str
    #: mini-batch size (samples).
    batch: int
    #: GEMM instances per sample (e.g. attention heads).
    groups_per_sample: int
    #: per-instance GEMM shape.
    m: int
    n: int
    k: int
    #: bytes per tensor element.
    dtype_bytes: int = FP32_BYTES

    def __post_init__(self) -> None:
        positive = {
            "batch": self.batch,
            "groups_per_sample": self.groups_per_sample,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "dtype_bytes": self.dtype_bytes,
        }
        for attr, value in positive.items():
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")

    # ------------------------------------------------------------------
    # Copy-with helpers
    # ------------------------------------------------------------------
    def with_batch(self, batch: int) -> "BatchedGemmLayerConfig":
        return replace(self, batch=batch)

    def with_name(self, name: str) -> "BatchedGemmLayerConfig":
        return replace(self, name=name)

    def with_dtype(self, dtype_bytes: int) -> "BatchedGemmLayerConfig":
        return replace(self, dtype_bytes=dtype_bytes)

    def structural_key(self) -> Tuple:
        return ("batched_gemm", self.batch, self.groups_per_sample,
                self.m, self.n, self.k, self.dtype_bytes)

    # ------------------------------------------------------------------
    # Geometry and sizes
    # ------------------------------------------------------------------
    @property
    def groups(self) -> int:
        """Independent GEMM instances: batch * groups_per_sample."""
        return self.batch * self.groups_per_sample

    @property
    def output_elements(self) -> int:
        """Output footprint across all instances: groups * M * N."""
        return self.groups * self.m * self.n

    def gemm_shape(self) -> GemmShape:
        """The per-instance GEMM shape (totals scale by :attr:`groups`)."""
        return GemmShape(m=self.m, n=self.n, k=self.k)

    @property
    def macs(self) -> int:
        return self.groups * self.m * self.n * self.k

    @property
    def flops(self) -> int:
        return 2 * self.macs

    def describe(self) -> str:
        return (f"{self.name}: batched GEMM {self.groups}x "
                f"(M={self.m} N={self.n} K={self.k})")


#: any layer family the model stack accepts (all lower to GemmWorkloads).
LayerConfig = Union[ConvLayerConfig, LinearLayerConfig, BatchedGemmLayerConfig]

#: the GEMM-native (dense, conv-free) layer families.
DENSE_LAYER_TYPES = (LinearLayerConfig, BatchedGemmLayerConfig)
