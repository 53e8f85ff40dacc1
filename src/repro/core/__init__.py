"""DeLTA core: the paper's analytical traffic and performance models."""

from .bottleneck import Bottleneck
from .baselines import (
    PAPER_MISS_RATES,
    FixedMissRateModel,
    FixedMissRateTrafficModel,
)
from .dram import DramModelOptions, DramTraffic, estimate_dram_traffic
from .l1 import L1Traffic, estimate_l1_traffic, filter_mli, ifmap_mli
from .l2 import L2ModelOptions, L2Traffic, estimate_l2_traffic
from .layer import (BatchedGemmLayerConfig, ConvLayerConfig, GemmShape,
                    LayerConfig, LinearLayerConfig)
from .model import DeltaModel
from .performance import ExecutionEstimate
from .training import (
    LayerPassEstimate,
    TrainingStepEstimate,
    estimate_training_step,
)
from .tiling import (
    CtaTile,
    GemmGrid,
    active_ctas_per_sm,
    build_grid,
    cta_batch_size,
    ctas_per_sm,
    select_cta_tile,
    waves,
)
from .traffic import TrafficEstimate, TrafficModel
from .workload import (
    PASS_CHOICES,
    lower_dense,
    PASS_KINDS,
    TRAINING_PASSES,
    GemmWorkload,
    Im2colPattern,
    OperandSpec,
    as_workload,
    expand_passes,
    lower_dgrad,
    lower_forward,
    lower_pass,
    lower_passes,
    lower_wgrad,
    normalize_passes,
    training_workloads,
)

__all__ = [
    "GemmWorkload",
    "Im2colPattern",
    "OperandSpec",
    "PASS_CHOICES",
    "PASS_KINDS",
    "TRAINING_PASSES",
    "as_workload",
    "expand_passes",
    "lower_forward",
    "lower_dgrad",
    "lower_wgrad",
    "lower_pass",
    "lower_passes",
    "lower_dense",
    "normalize_passes",
    "training_workloads",
    "LayerPassEstimate",
    "TrainingStepEstimate",
    "estimate_training_step",
    "Bottleneck",
    "ConvLayerConfig",
    "LinearLayerConfig",
    "BatchedGemmLayerConfig",
    "LayerConfig",
    "GemmShape",
    "CtaTile",
    "GemmGrid",
    "select_cta_tile",
    "build_grid",
    "active_ctas_per_sm",
    "ctas_per_sm",
    "cta_batch_size",
    "waves",
    "L1Traffic",
    "L2Traffic",
    "DramTraffic",
    "L2ModelOptions",
    "DramModelOptions",
    "estimate_l1_traffic",
    "estimate_l2_traffic",
    "estimate_dram_traffic",
    "ifmap_mli",
    "filter_mli",
    "TrafficModel",
    "TrafficEstimate",
    "ExecutionEstimate",
    "DeltaModel",
    "FixedMissRateModel",
    "FixedMissRateTrafficModel",
    "PAPER_MISS_RATES",
]
