"""Pass-aware GEMM workload IR: the unit of work the model stack consumes.

The paper models DNN *training*: every convolution layer executes three im2col
GEMMs per training step (Section II) — the forward pass, the data-gradient
pass (dgrad) and the weight-gradient pass (wgrad).  This module decouples the
memory-hierarchy and performance models from "a forward convolution layer" by
lowering a :class:`~repro.core.layer.ConvLayerConfig` onto a frozen
:class:`GemmWorkload` that carries everything the models need:

* the GEMM shape (M, N, K),
* one :class:`OperandSpec` per input operand (the M-side operand ``a`` and the
  N-side operand ``b``) describing the tensor it reads, its L1 load pattern,
  its intra-tile L2 reuse and its DRAM footprint, and
* the datatype width, which flows through every byte computation.

The three passes are operand swaps/transposes of one another (writing
``col(I)`` for the im2col expansion of the input feature map)::

    forward  O  = col(I) . W      (M, N, K) = (B*Ho*Wo,  Co,        Ci*Hf*Wf)
    dgrad    dI = col2im(dO . W^T)(M, N, K) = (B*Ho*Wo,  Ci*Hf*Wf,  Co)
    wgrad    dW = dO^T . col(I)   (M, N, K) = (Co,       Ci*Hf*Wf,  B*Ho*Wo)

dgrad swaps N and K relative to forward; wgrad swaps M and K.  Because the
product M*N*K is invariant under those swaps, each pass performs exactly the
forward pass's MAC count and a full training step costs 3x the forward MACs —
a property the tests assert for every registered network.

Operand bindings per pass:

* **forward** — ``a`` is the replicated im2col IFmap matrix (sliding-window
  reuse, Eqs. 2-8), ``b`` is the dense filter matrix.
* **dgrad** — ``a`` is the output-gradient matrix ``dO`` (dense: every element
  unique, contiguous along M), ``b`` is the transposed filter.  The im2col
  structure moves to the *output* (``col2im`` scatter), so neither input
  operand has sliding-window reuse: dgrad behaves like a pointwise GEMM.
* **wgrad** — ``a`` is ``dO^T`` (dense; the kernel streams dO along its
  contiguous K extent and transposes through shared memory), ``b`` is the
  im2col IFmap matrix entered on the N side: its tile rows now run along the
  K axis (output positions) and its columns along N (filter offsets), which
  is why the L2 sliding-window equations take explicit (rows, cols) extents.

GEMM-native layers (:class:`~repro.core.layer.LinearLayerConfig` and the
batched :class:`~repro.core.layer.BatchedGemmLayerConfig`) skip the im2col
story entirely: :func:`lower_dense` binds every pass's operands as dense
row-major matrices (the same N<->K / M<->K swaps, all-unique L2 reuse, and
``groups`` independent GEMM instances for batched layers).  See the
"GEMM-native layers" section of DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Literal, Optional, Tuple, Union

from .layer import (DENSE_LAYER_TYPES, BatchedGemmLayerConfig, ConvLayerConfig,
                    GemmShape, LayerConfig, LinearLayerConfig)

#: the three per-layer GEMMs of one training step, in execution order.
PassKind = Literal["forward", "dgrad", "wgrad"]
TRAINING_PASSES: Tuple[PassKind, ...] = ("forward", "dgrad", "wgrad")
PASS_KINDS: Tuple[PassKind, ...] = TRAINING_PASSES

#: accepted values for the public ``passes`` option (requests / CLI).
PASS_CHOICES: Tuple[str, ...] = ("forward", "dgrad", "wgrad", "training")

#: warp-load pattern of one operand, selecting its L1 inefficiency model:
#: "im2col" streams a sliding-window matrix column-wise (Eq. 2-3), "gather"
#: collects 32/blkK distant blkK-element segments per warp (the filter-matrix
#: pattern), "contiguous" streams dense rows (ideal coalescing).
L1Pattern = Literal["im2col", "gather", "contiguous"]

#: how GEMM coordinates map to tensor addresses: "conv" workloads address
#: BCHW/KCRS convolution tensors (implicit im2col), "dense" workloads address
#: row-major activation/weight matrices (linear and batched-GEMM layers).
WorkloadLayoutKind = Literal["conv", "dense"]

#: intra-tile reuse captured by the private L1: "sliding" tiles have the
#: im2col duplication (unique footprint from Eq. 5-8), "unique" tiles have no
#: duplication (every element distinct).
L2Reuse = Literal["sliding", "unique"]


def normalize_passes(value: Union[str, None]) -> str:
    """Validate and normalize a public ``passes`` option value."""
    if value is None:
        return "forward"
    normalized = str(value).strip().lower()
    if normalized not in PASS_CHOICES:
        raise ValueError(
            f"unknown pass {value!r}; expected one of {list(PASS_CHOICES)}")
    return normalized


def expand_passes(value: Union[str, None]) -> Tuple[PassKind, ...]:
    """The pass kinds a public ``passes`` option evaluates."""
    normalized = normalize_passes(value)
    if normalized == "training":
        return TRAINING_PASSES
    return (normalized,)  # type: ignore[return-value]


#: largest accepted mini-batch (a constant, not an option): every registered
#: network still evaluates to finite, positive times there, while batch
#: 2**40 overflows the model's int64 arithmetic.
MAX_BATCH = 2**31 - 1


def check_batch(value: int, what: str = "batch") -> None:
    """Validate one public mini-batch value: ``1 <= value <= MAX_BATCH``."""
    if not 0 < value <= MAX_BATCH:
        raise ValueError(f"{what} must be positive and at most {MAX_BATCH}, "
                         f"got {value!r}")


@dataclass(frozen=True)
class Im2colPattern:
    """Sliding-window reuse geometry of an im2col operand.

    Property names deliberately mirror :class:`ConvLayerConfig` so the Eq. 2-8
    helpers in :mod:`repro.core.l1` / :mod:`repro.core.l2` accept either.
    """

    batch: int
    #: channels of the backing tensor (Ci for the IFmap matrix).
    channels: int
    in_height: int
    in_width: int
    filter_height: int
    filter_width: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        positive = {
            "batch": self.batch,
            "channels": self.channels,
            "in_height": self.in_height,
            "in_width": self.in_width,
            "filter_height": self.filter_height,
            "filter_width": self.filter_width,
            "stride": self.stride,
        }
        for attr, value in positive.items():
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")

    @property
    def padded_height(self) -> int:
        return self.in_height + 2 * self.padding

    @property
    def padded_width(self) -> int:
        return self.in_width + 2 * self.padding

    @property
    def out_height(self) -> int:
        return (self.padded_height - self.filter_height) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.padded_width - self.filter_width) // self.stride + 1

    @property
    def is_pointwise(self) -> bool:
        return self.filter_height == 1 and self.filter_width == 1

    @property
    def filter_pixels(self) -> int:
        return self.filter_height * self.filter_width

    @classmethod
    def of_layer(cls, layer: ConvLayerConfig) -> "Im2colPattern":
        """The forward im2col pattern of a convolution layer."""
        return cls(
            batch=layer.batch,
            channels=layer.in_channels,
            in_height=layer.in_height,
            in_width=layer.in_width,
            filter_height=layer.filter_height,
            filter_width=layer.filter_width,
            stride=layer.stride,
            padding=layer.padding,
        )


def effective_ifmap_elements(layer: ConvLayerConfig) -> float:
    """Padded IFmap footprint actually referenced by the convolution.

    The footprint includes the zero padding (the model follows the paper and
    treats padded rows/columns as part of the address range), but excludes the
    input positions a strided 1x1 convolution never touches.
    """
    if layer.is_pointwise and layer.stride > 1:
        touched = layer.out_height * layer.out_width
        return float(layer.batch * layer.in_channels * touched)
    return float(layer.batch * layer.in_channels
                 * layer.padded_height * layer.padded_width)


@dataclass(frozen=True)
class OperandSpec:
    """One GEMM input operand: tensor identity, footprints and reuse pattern."""

    #: tensor the operand reads: "ifmap", "filter" or "ofmap_grad".
    role: str
    #: warp-load pattern selecting the L1 inefficiency model.
    l1_pattern: L1Pattern
    #: intra-tile reuse selecting the L2 unique-footprint model.
    l2_reuse: L2Reuse
    #: backing tensor footprint in elements (what the address space holds).
    tensor_elements: int
    #: effective DRAM footprint of one full read of the operand, in elements
    #: (the padded/strided-adjusted range of Eq. 10).
    dram_elements: float
    #: sliding-window geometry; required when l1_pattern/l2_reuse is im2col.
    pattern: Optional[Im2colPattern] = None
    #: whether the operand is re-read from DRAM once per orthogonal CTA
    #: dimension (Eq. 10's per-column IFmap re-read).  True for the tall
    #: forward/dgrad grids whose CTA columns execute far apart in time; False
    #: for wgrad, whose few-CTA grid runs as a handful of concurrent waves
    #: streaming the K (reduction) axis in lockstep, so every operand chunk
    #: is fetched once and shared — the same argument the paper makes for the
    #: forward filter matrix.
    dram_replicated: bool = True

    def __post_init__(self) -> None:
        if self.tensor_elements <= 0:
            raise ValueError("tensor_elements must be positive")
        if self.dram_elements <= 0:
            raise ValueError("dram_elements must be positive")
        if (self.l1_pattern == "im2col" or self.l2_reuse == "sliding") \
                and self.pattern is None:
            raise ValueError(
                f"operand {self.role!r} uses an im2col pattern but none given")


@dataclass(frozen=True)
class GemmWorkload:
    """One GEMM of a layer's training step.

    The IR the whole model stack consumes: ``a`` is the M-side input operand,
    ``b`` the N-side input operand, ``out`` describes the tensor the epilogue
    writes.  ``layer`` records the layer the workload was lowered from (the
    simulator derives exact tensor addresses from it, dispatching on
    ``layout``).  ``gemm`` is the per-instance shape and ``groups`` the number
    of independent instances (1 for convolutions and linear layers; a batched
    GEMM runs ``groups`` copies over per-instance tensor slices, so every
    total — MACs, traffic, CTAs — scales by it).
    """

    name: str
    pass_kind: PassKind
    gemm: GemmShape
    a: OperandSpec
    b: OperandSpec
    #: tensor the epilogue produces: "ofmap", "ifmap_grad" or "filter_grad"
    #: (conv) / "output", "input_grad" or "weight_grad" (dense).
    out_role: str
    #: footprint of the output tensor, in elements (across all groups).
    out_elements: int
    #: bytes per tensor element; flows through every byte computation.
    dtype_bytes: int
    #: the layer this workload was lowered from.
    layer: LayerConfig
    #: independent GEMM instances of shape ``gemm`` (batched GEMM).
    groups: int = 1
    #: GEMM-coordinate -> tensor-address mapping family.
    layout: WorkloadLayoutKind = "conv"

    def __post_init__(self) -> None:
        if self.pass_kind not in PASS_KINDS:
            raise ValueError(f"unknown pass kind {self.pass_kind!r}")
        if self.out_elements <= 0:
            raise ValueError("out_elements must be positive")
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")
        if self.groups <= 0:
            raise ValueError("groups must be positive")
        if self.layout not in ("conv", "dense"):
            raise ValueError(f"unknown workload layout {self.layout!r}")

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations: groups * M*N*K."""
        return self.groups * self.gemm.macs

    @property
    def flops(self) -> int:
        return 2 * self.macs

    def structural_key(self) -> Tuple:
        """Configuration identity of the workload, ignoring names."""
        return self.layer.structural_key() + (self.pass_kind,)

    def describe(self) -> str:
        gemm = self.gemm
        return (f"{self.name}: {self.pass_kind} GEMM "
                f"M={gemm.m} N={gemm.n} K={gemm.k} "
                f"a={self.a.role}/{self.a.l1_pattern} "
                f"b={self.b.role}/{self.b.l1_pattern} -> {self.out_role}")


# ----------------------------------------------------------------------
# Lowering: ConvLayerConfig -> per-pass GemmWorkload
# ----------------------------------------------------------------------

def _pass_name(layer: ConvLayerConfig, pass_kind: PassKind) -> str:
    return layer.name if pass_kind == "forward" else f"{layer.name}:{pass_kind}"


def lower_forward(layer: LayerConfig) -> GemmWorkload:
    """Forward pass: O = col(I) . W — exactly the seed model's geometry."""
    if isinstance(layer, DENSE_LAYER_TYPES):
        return lower_dense(layer, "forward")
    return GemmWorkload(
        name=_pass_name(layer, "forward"),
        pass_kind="forward",
        gemm=layer.gemm_shape(),
        a=OperandSpec(
            role="ifmap",
            l1_pattern="im2col",
            l2_reuse="sliding",
            tensor_elements=layer.ifmap_elements,
            dram_elements=effective_ifmap_elements(layer),
            pattern=Im2colPattern.of_layer(layer),
        ),
        b=OperandSpec(
            role="filter",
            l1_pattern="gather",
            l2_reuse="unique",
            tensor_elements=layer.filter_elements,
            dram_elements=float(layer.filter_elements),
        ),
        out_role="ofmap",
        out_elements=layer.ofmap_elements,
        dtype_bytes=layer.dtype_bytes,
        layer=layer,
    )


def lower_dgrad(layer: LayerConfig) -> GemmWorkload:
    """Data-gradient pass: dI = col2im(dO . W^T) — N and K swapped."""
    if isinstance(layer, DENSE_LAYER_TYPES):
        return lower_dense(layer, "dgrad")
    forward = layer.gemm_shape()
    return GemmWorkload(
        name=_pass_name(layer, "dgrad"),
        pass_kind="dgrad",
        gemm=GemmShape(m=forward.m, n=forward.k, k=forward.n),
        a=OperandSpec(
            role="ofmap_grad",
            l1_pattern="contiguous",
            l2_reuse="unique",
            tensor_elements=layer.ofmap_elements,
            dram_elements=float(layer.ofmap_elements),
        ),
        b=OperandSpec(
            role="filter",
            l1_pattern="gather",
            l2_reuse="unique",
            tensor_elements=layer.filter_elements,
            dram_elements=float(layer.filter_elements),
        ),
        out_role="ifmap_grad",
        out_elements=layer.ifmap_elements,
        dtype_bytes=layer.dtype_bytes,
        layer=layer,
    )


def lower_wgrad(layer: LayerConfig) -> GemmWorkload:
    """Weight-gradient pass: dW = dO^T . col(I) — M and K swapped."""
    if isinstance(layer, DENSE_LAYER_TYPES):
        return lower_dense(layer, "wgrad")
    forward = layer.gemm_shape()
    return GemmWorkload(
        name=_pass_name(layer, "wgrad"),
        pass_kind="wgrad",
        gemm=GemmShape(m=forward.n, n=forward.k, k=forward.m),
        a=OperandSpec(
            role="ofmap_grad",
            l1_pattern="contiguous",
            l2_reuse="unique",
            tensor_elements=layer.ofmap_elements,
            dram_elements=float(layer.ofmap_elements),
            dram_replicated=False,
        ),
        b=OperandSpec(
            role="ifmap",
            l1_pattern="im2col",
            l2_reuse="sliding",
            tensor_elements=layer.ifmap_elements,
            dram_elements=effective_ifmap_elements(layer),
            pattern=Im2colPattern.of_layer(layer),
            dram_replicated=False,
        ),
        out_role="filter_grad",
        out_elements=layer.filter_elements,
        dtype_bytes=layer.dtype_bytes,
        layer=layer,
    )


_LOWERINGS = {
    "forward": lower_forward,
    "dgrad": lower_dgrad,
    "wgrad": lower_wgrad,
}


# ----------------------------------------------------------------------
# Dense lowering: Linear / BatchedGemm layers -> per-pass GemmWorkload
# ----------------------------------------------------------------------
#
# A dense layer's three training passes are pure operand swaps of row-major
# matrices (writing A for the forward input X / score operand and dY for the
# output gradient):
#
#     forward  Y  = A . B^T       (M, N, K)
#     dgrad    dA = dY . B        (M, K, N)   N and K swapped
#     wgrad    dB = dY^T . A      (N, K, M)   M and K swapped
#
# In GEMM-local terms every pass's a-operand backs a [groups, m, k] tensor and
# every b-operand a [groups, n, k] tensor, which is what makes one address
# decomposition serve all three passes in the simulator.  Per-pass operand
# bindings (contiguity in the backing row-major tensor):
#
# * forward — a = A (contiguous along K: blkK-segment "gather" loads, like
#   the conv filter matrix), b = B (same).
# * dgrad — a = dY (contiguous along its K axis: "gather"), b = B entered
#   transposed (strided along K, modelled "gather" like the conv dgrad
#   filter).
# * wgrad — a = dY^T (contiguous along its *own* axis: fully coalesced
#   column loads, "contiguous"), b = A entered on the N side ("gather").
#   Like the conv wgrad, the few-CTA grid streams the K (row) axis in
#   lockstep waves, so neither operand is re-read per CTA column.

_DENSE_L1_PATTERNS = {
    "forward": ("gather", "gather"),
    "dgrad": ("gather", "gather"),
    "wgrad": ("contiguous", "gather"),
}

_DENSE_ROLES = {
    "forward": ("input", "weight", "output"),
    "dgrad": ("output_grad", "weight", "input_grad"),
    "wgrad": ("output_grad", "input", "weight_grad"),
}


def lower_dense(layer: Union[LinearLayerConfig, BatchedGemmLayerConfig],
                pass_kind: PassKind) -> GemmWorkload:
    """Lower one dense (linear or batched-GEMM) layer onto one pass's GEMM."""
    if pass_kind not in PASS_KINDS:
        raise ValueError(
            f"unknown pass kind {pass_kind!r}; expected one of "
            f"{list(PASS_KINDS)}")
    forward = layer.gemm_shape()
    if pass_kind == "forward":
        gemm = forward
    elif pass_kind == "dgrad":
        gemm = GemmShape(m=forward.m, n=forward.k, k=forward.n)
    else:  # wgrad
        gemm = GemmShape(m=forward.n, n=forward.k, k=forward.m)
    groups = getattr(layer, "groups", 1)
    a_pattern, b_pattern = _DENSE_L1_PATTERNS[pass_kind]
    a_role, b_role, out_role = _DENSE_ROLES[pass_kind]
    replicated = pass_kind != "wgrad"
    a_elements = groups * gemm.m * gemm.k
    b_elements = groups * gemm.n * gemm.k
    return GemmWorkload(
        name=_pass_name(layer, pass_kind),
        pass_kind=pass_kind,
        gemm=gemm,
        a=OperandSpec(
            role=a_role,
            l1_pattern=a_pattern,
            l2_reuse="unique",
            tensor_elements=a_elements,
            dram_elements=float(a_elements),
            dram_replicated=replicated,
        ),
        b=OperandSpec(
            role=b_role,
            l1_pattern=b_pattern,
            l2_reuse="unique",
            tensor_elements=b_elements,
            dram_elements=float(b_elements),
            dram_replicated=replicated,
        ),
        out_role=out_role,
        out_elements=groups * gemm.m * gemm.n,
        dtype_bytes=layer.dtype_bytes,
        layer=layer,
        groups=groups,
        layout="dense",
    )


def lower_pass(layer: LayerConfig, pass_kind: PassKind) -> GemmWorkload:
    """Lower one layer (conv, linear or batched GEMM) onto one pass's GEMM."""
    if isinstance(layer, DENSE_LAYER_TYPES):
        return lower_dense(layer, pass_kind)
    try:
        lowering = _LOWERINGS[pass_kind]
    except KeyError:
        raise ValueError(
            f"unknown pass kind {pass_kind!r}; expected one of "
            f"{list(PASS_KINDS)}") from None
    return lowering(layer)


def training_workloads(layer: LayerConfig) -> Tuple[GemmWorkload, ...]:
    """All three per-layer GEMMs of one training step, in execution order."""
    return tuple(lower_pass(layer, pass_kind) for pass_kind in TRAINING_PASSES)


def lower_passes(layers: Iterable[LayerConfig],
                 pass_kinds: Tuple[PassKind, ...]) -> List[GemmWorkload]:
    """Every (layer, pass) GEMM, layers outer and passes inner."""
    return [lower_pass(layer, pass_kind)
            for layer in layers for pass_kind in pass_kinds]


def as_workload(source: Union[LayerConfig, GemmWorkload],
                pass_kind: PassKind = "forward") -> GemmWorkload:
    """Coerce a layer (lowered to ``pass_kind``) or pass a workload through.

    Model entry points accept either, so existing forward-pass call sites keep
    working unchanged while pass-aware callers hand over explicit workloads.
    """
    if isinstance(source, GemmWorkload):
        return source
    if isinstance(source, (ConvLayerConfig, *DENSE_LAYER_TYPES)):
        return lower_pass(source, pass_kind)
    raise TypeError(
        f"expected a layer config or GemmWorkload, got {type(source).__name__}")
