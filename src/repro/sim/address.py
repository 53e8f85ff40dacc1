"""Physical address mapping of the GEMM operand tensors.

The simulator places each GEMM workload's M-side (``a``) operand tensor at
address 0 and its N-side (``b``) operand tensor immediately after it, aligned
to a cache line (:class:`WorkloadLayout`).  For the forward pass that is the
IFmap tensor (BCHW layout, the performance-efficient ordering the paper
assumes) followed by the filter tensor (KCRS layout); the element addresses
themselves come from the trace generator's per-axis decomposition
(:mod:`repro.sim.im2col`).  Zero-padded positions are not backed by memory:
the implicit-GEMM kernel predicates those loads away, so the address
generator returns ``INVALID_ADDRESS`` for them and the trace simply omits
the access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.workload import GemmWorkload

#: marker for predicated-off (padding / out-of-range) accesses.
INVALID_ADDRESS = np.int64(-1)


def _align_up(value: int, alignment: int) -> int:
    return ((value + alignment - 1) // alignment) * alignment


@dataclass(frozen=True)
class WorkloadLayout:
    """Byte-address layout of one GEMM workload's two input operand tensors.

    The A-operand tensor sits at address 0 and the B-operand tensor follows,
    aligned to a cache line (for a forward workload A = IFmap, B = filter).
    """

    workload: GemmWorkload
    line_bytes: int = 128

    @property
    def dtype_bytes(self) -> int:
        return self.workload.dtype_bytes

    @property
    def a_base(self) -> int:
        return 0

    @property
    def a_bytes(self) -> int:
        return self.workload.a.tensor_elements * self.dtype_bytes

    @property
    def b_base(self) -> int:
        return _align_up(self.a_bytes, self.line_bytes)

    @property
    def b_bytes(self) -> int:
        return self.workload.b.tensor_elements * self.dtype_bytes

    @property
    def total_bytes(self) -> int:
        return self.b_base + self.b_bytes
