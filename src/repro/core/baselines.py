"""Prior-work baseline models used for comparison (Section III and VII).

The GPU analytical models the paper compares against (Hong & Kim, Zhou et al.)
estimate global-memory traffic from the request stream the SMs issue and treat
the cache miss rate as a fixed parameter -- in practice set to 1.0, i.e. every
L1 request also reaches L2 and DRAM.  The paper additionally sweeps the fixed
miss rate over {0.3, 0.5, 0.7, 1.0} in Fig. 15b.

:class:`FixedMissRateTrafficModel` reproduces that methodology: L1 traffic is
modeled exactly as in DeLTA (the request stream is a property of the kernel,
not of the cache), and the L2/DRAM traffic is the L1 traffic scaled by the
fixed miss rates.  :class:`FixedMissRateModel` feeds that traffic into the
same batched execution-time evaluation DeLTA uses, so the comparison isolates
the effect of the traffic assumptions, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from ..gpu.spec import GpuSpec
from .dram import DramTraffic
from .l2 import L2Traffic
from .layer import ConvLayerConfig
from .performance import ExecutionEstimate, estimate_workloads
from .tiling import GemmGrid, build_grid
from .traffic import TrafficEstimate, TrafficModel
from .workload import GemmWorkload, as_workload


#: miss rates swept in Fig. 15b; 1.0 is the value prior work advocates.
PAPER_MISS_RATES: Sequence[float] = (0.3, 0.5, 0.7, 1.0)


@dataclass(frozen=True)
class FixedMissRateTrafficModel:
    """Prior-work traffic methodology: fixed L1 and L2 miss rates."""

    gpu: GpuSpec
    l1_miss_rate: float = 1.0
    l2_miss_rate: float = 1.0
    cta_tile_hw: int = 128

    def __post_init__(self) -> None:
        for name, value in (("l1_miss_rate", self.l1_miss_rate),
                            ("l2_miss_rate", self.l2_miss_rate)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    def estimate(self, source: Union[ConvLayerConfig, GemmWorkload],
                 grid: Optional[GemmGrid] = None) -> TrafficEstimate:
        """Traffic estimate with the naive fixed-miss-rate assumption."""
        workload = as_workload(source)
        if grid is None:
            grid = build_grid(workload, tile_hw=self.cta_tile_hw)
        # The L1 request stream is identical to DeLTA's (it only depends on
        # the kernel), so reuse DeLTA's L1 model.
        delta = TrafficModel(gpu=self.gpu, cta_tile_hw=self.cta_tile_hw)
        reference = delta.estimate(workload, grid=grid)
        l1 = reference.l1

        l2_total = l1.total_bytes * self.l1_miss_rate
        dram_total = l2_total * self.l2_miss_rate
        ifmap_share = l1.ifmap_bytes / l1.total_bytes if l1.total_bytes else 0.0

        loops = max(1, grid.total_main_loops)
        dtype = workload.dtype_bytes
        l2 = L2Traffic(
            ifmap_bytes=l2_total * ifmap_share,
            filter_bytes=l2_total * (1.0 - ifmap_share),
            ifmap_elements_per_loop=l2_total * ifmap_share / loops / dtype,
            filter_elements_per_loop=l2_total * (1.0 - ifmap_share) / loops / dtype,
        )
        dram = DramTraffic(
            ifmap_bytes=dram_total * ifmap_share,
            filter_bytes=dram_total * (1.0 - ifmap_share),
        )
        return TrafficEstimate(
            workload=workload, gpu=self.gpu, grid=grid, l1=l1, l2=l2, dram=dram,
        )


@dataclass(frozen=True)
class FixedMissRateModel:
    """Prior-work performance model: DeLTA's timing framework fed by naive traffic."""

    gpu: GpuSpec
    miss_rate: float = 1.0
    cta_tile_hw: int = 128

    @property
    def traffic_model(self) -> FixedMissRateTrafficModel:
        return FixedMissRateTrafficModel(
            gpu=self.gpu,
            l1_miss_rate=self.miss_rate,
            l2_miss_rate=self.miss_rate,
            cta_tile_hw=self.cta_tile_hw,
        )

    def traffic(self, source: Union[ConvLayerConfig, GemmWorkload]) -> TrafficEstimate:
        return self.traffic_model.estimate(source)

    def estimate_many(self, sources: Iterable[Union[ConvLayerConfig,
                                                    GemmWorkload]]
                      ) -> List[ExecutionEstimate]:
        return estimate_workloads(self.gpu, self.traffic_model.estimate,
                                  sources)

    def estimate(self, source: Union[ConvLayerConfig, GemmWorkload]) -> ExecutionEstimate:
        return self.estimate_many((source,))[0]
