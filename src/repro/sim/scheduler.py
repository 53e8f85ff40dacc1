"""CTA scheduling for the simulator: work order and SM assignment.

The paper assumes the hardware scheduler assigns CTAs to SMs round-robin and,
for the tall-and-skinny im2col GEMM, that CTAs of the same column of the CTA
tile array execute close together in time (column-wise order, Section IV-C).
The simulator exposes both a column-major and a row-major order so the
assumption can be ablated, and groups CTAs into *waves*: the set of CTAs that
are resident on the device at the same time (``num_sm x active CTAs per SM``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Tuple

from ..core.tiling import GemmGrid, active_ctas_per_sm
from ..gpu.spec import FP32_BYTES, GpuSpec

SchedulingOrder = Literal["column", "row"]

#: (cta_m, cta_n) coordinate of one CTA in the tile array.
CtaCoord = Tuple[int, int]

#: one CTA with its SM assignment: (sm index, cta_m, cta_n).
ScheduledCta = Tuple[int, int, int]


def _coord_of(grid: GemmGrid, order: SchedulingOrder
              ) -> Callable[[int], CtaCoord]:
    """``index -> (cta_m, cta_n)`` of the index-th CTA in scheduling order.

    Computes one coordinate from its launch index with ``divmod``, so a
    consumer that stops early (the engine stops after ``max_ctas``) never
    materializes the whole grid, whose size grows with the mini-batch.

    A batched workload (``grid.groups`` > 1) launches its instances back to
    back; instance ``g``'s coordinates are offset by ``(g * ctas_m,
    g * ctas_n)``, which is exactly how the trace generator folds the
    instance index into the per-operand address decomposition.  Small
    per-instance grids therefore still fill whole waves across instances.
    """
    if order not in ("column", "row"):
        raise ValueError(f"unknown scheduling order {order!r}")
    column = order == "column"
    ctas_m, ctas_n = grid.ctas_m, grid.ctas_n
    per_group = ctas_m * ctas_n

    def coord(index: int) -> CtaCoord:
        group, rest = divmod(index, per_group)
        if column:
            n, m = divmod(rest, ctas_m)
        else:
            m, n = divmod(rest, ctas_n)
        return group * ctas_m + m, group * ctas_n + n
    return coord


@dataclass(frozen=True)
class Wave:
    """One wave: the CTAs concurrently resident across the device."""

    index: int
    ctas: Tuple[ScheduledCta, ...]

    def per_sm(self) -> dict:
        """Group the wave's CTAs by SM index."""
        groups: dict = {}
        for sm, cta_m, cta_n in self.ctas:
            groups.setdefault(sm, []).append((cta_m, cta_n))
        return groups

    @property
    def num_ctas(self) -> int:
        return len(self.ctas)


@dataclass(frozen=True)
class CtaScheduler:
    """Round-robin CTA scheduler producing waves of concurrent CTAs."""

    grid: GemmGrid
    gpu: GpuSpec
    order: SchedulingOrder = "column"
    #: element width of the scheduled workload; occupancy depends on it.
    dtype_bytes: int = FP32_BYTES

    @property
    def active_ctas_per_sm(self) -> int:
        return active_ctas_per_sm(self.grid.tile, self.gpu, self.dtype_bytes)

    @property
    def wave_size(self) -> int:
        return self.active_ctas_per_sm * self.gpu.num_sm

    def waves(self, max_waves: int | None = None) -> Iterator[Wave]:
        """Yield waves in execution order, optionally limited to ``max_waves``.

        Each wave is built from its CTAs' launch indices when it is reached,
        so memory stays bounded by one wave whatever the grid size.
        """
        coord = _coord_of(self.grid, self.order)
        num_sm = self.gpu.num_sm
        num_ctas = self.grid.num_ctas
        size = self.wave_size
        limit = self.num_waves
        if max_waves is not None:
            limit = min(max_waves, limit)
        for wave_index in range(limit):
            start = wave_index * size
            ctas = []
            for index in range(start, min(start + size, num_ctas)):
                m, n = coord(index)
                ctas.append((index % num_sm, m, n))
            yield Wave(index=wave_index, ctas=tuple(ctas))

    @property
    def num_waves(self) -> int:
        size = self.wave_size
        return (self.grid.num_ctas + size - 1) // size
