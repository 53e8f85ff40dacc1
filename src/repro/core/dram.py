"""DRAM traffic model (Section IV-C of the paper), operand-generic.

The L2 cache is shared by all SMs, so the CTAs of one *CTA batch* (all CTAs
executing concurrently) can reuse each other's data.  With the column-wise CTA
scheduling the paper assumes for the tall-and-skinny im2col GEMM:

* the N-side operand (the filter matrix in the forward pass) has short
  re-reference distances (every CTA in a batch shares it) and a small total
  footprint, so it is read from DRAM once;
* the M-side operand (the im2col matrix in the forward pass) is re-read once
  per *column* of CTA tiles, because the re-reference distance between CTA
  columns exceeds the L2 capacity.

    Eq. 10  T_DRAM_A = A's effective footprint * (columns of CTA tiles)
            T_DRAM_B = B's effective footprint
            T_DRAM   = T_DRAM_A + T_DRAM_B

Each operand's effective footprint (``OperandSpec.dram_elements``) is set by
the lowering: the forward IFmap operand uses the padded address range (with
the strided-1x1 exception), every other operand its exact tensor size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

from .layer import ConvLayerConfig
from .tiling import GemmGrid
from .workload import GemmWorkload, as_workload, effective_ifmap_elements

__all__ = [
    "DramModelOptions",
    "DramTraffic",
    "SchedulingOrder",
    "effective_ifmap_elements",
    "estimate_dram_traffic",
]


SchedulingOrder = Literal["column", "row"]


@dataclass(frozen=True)
class DramModelOptions:
    """Assumptions of the DRAM traffic model.

    ``scheduling`` selects the CTA scheduling order assumed for inter-CTA
    reuse: the paper's column-wise order (the M-side operand re-read per CTA
    column) or a row-wise order (the N-side operand re-read per CTA row) used
    as an ablation.
    """

    scheduling: SchedulingOrder = "column"


@dataclass(frozen=True)
class DramTraffic:
    """DRAM traffic of one GEMM workload.

    ``ifmap_bytes`` is the M-side (``a``) operand's traffic and
    ``filter_bytes`` the N-side (``b``) operand's, keeping the forward-pass
    vocabulary.
    """

    ifmap_bytes: float
    filter_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.ifmap_bytes + self.filter_bytes


def estimate_dram_traffic(source: Union[ConvLayerConfig, GemmWorkload],
                          grid: GemmGrid,
                          options: DramModelOptions = DramModelOptions()) -> DramTraffic:
    """Eq. 10: DRAM load traffic of one GEMM workload, in bytes."""
    workload = as_workload(source)
    a_elements = workload.a.dram_elements
    b_elements = workload.b.dram_elements

    if options.scheduling == "column":
        a_passes = grid.ctas_n if workload.a.dram_replicated else 1
        b_passes = 1
    elif options.scheduling == "row":
        a_passes = 1
        b_passes = grid.ctas_m if workload.b.dram_replicated else 1
    else:  # pragma: no cover - guarded by Literal type
        raise ValueError(f"unknown scheduling order {options.scheduling!r}")

    dtype = workload.dtype_bytes
    return DramTraffic(
        ifmap_bytes=a_elements * a_passes * dtype,
        filter_bytes=b_elements * b_passes * dtype,
    )
