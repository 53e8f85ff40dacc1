"""DeLTA reproduction: GPU performance model for CNN convolution layers.

This package reproduces "DeLTA: GPU Performance Model for Deep Learning
Applications with In-depth Memory System Traffic Analysis" (ISPASS 2019).

Public API highlights
---------------------
* :mod:`repro.api` — the session-based public API: :class:`repro.api.Session`
  plus typed requests (``EstimateRequest``, ``SweepRequest``,
  ``ValidateRequest``, ``ExperimentRequest``) and the structured
  :class:`repro.api.Report` result type.
* :class:`repro.DeltaModel` — the analytical traffic + performance model.
* :mod:`repro.gpu` — device specifications (TITAN Xp, P100, V100) and the
  design-space options of the scaling study.
* :mod:`repro.networks` — the benchmark CNNs (AlexNet, VGG16, GoogLeNet,
  ResNet152) expressed as convolution layer configurations.
* :mod:`repro.sim` — a trace-driven GPU memory-hierarchy simulator used as
  the "measured" reference in place of hardware profiling.
* :mod:`repro.dse` — design-space exploration: searchable GPU x workload
  spaces, search drivers, Pareto frontiers, and a resumable result store.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from .core import (
    TRAINING_PASSES,
    BatchedGemmLayerConfig,
    Bottleneck,
    ConvLayerConfig,
    CtaTile,
    DeltaModel,
    ExecutionEstimate,
    FixedMissRateModel,
    GemmShape,
    GemmWorkload,
    LinearLayerConfig,
    TrafficEstimate,
    TrafficModel,
    TrainingStepEstimate,
    lower_pass,
    training_workloads,
)
from .gpu import TESLA_P100, TESLA_V100, TITAN_XP, GpuSpec, all_devices, get_device
from .networks import (
    ConvNetwork,
    Network,
    alexnet,
    bert_base,
    get_network,
    googlenet,
    mlp,
    paper_benchmark_suite,
    resnet152,
    vgg16,
)
from .api import (
    DseRequest,
    EstimateRequest,
    ExperimentRequest,
    Report,
    Session,
    SweepRequest,
    ValidateRequest,
    current_session,
    use_session,
)
from .dse import (
    DesignPoint,
    ExhaustiveDriver,
    RandomDriver,
    ResultStore,
    SearchSpace,
    SuccessiveHalvingDriver,
    explore,
    grid,
    pareto_frontier,
    union,
    zip_axes,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "Bottleneck",
    "ConvLayerConfig",
    "LinearLayerConfig",
    "BatchedGemmLayerConfig",
    "CtaTile",
    "DeltaModel",
    "ExecutionEstimate",
    "FixedMissRateModel",
    "GemmShape",
    "GemmWorkload",
    "TrafficEstimate",
    "TrafficModel",
    "TrainingStepEstimate",
    "TRAINING_PASSES",
    "lower_pass",
    "training_workloads",
    "GpuSpec",
    "TITAN_XP",
    "TESLA_P100",
    "TESLA_V100",
    "all_devices",
    "get_device",
    "ConvNetwork",
    "Network",
    "alexnet",
    "vgg16",
    "googlenet",
    "resnet152",
    "mlp",
    "bert_base",
    "get_network",
    "paper_benchmark_suite",
    "Session",
    "Report",
    "EstimateRequest",
    "SweepRequest",
    "ValidateRequest",
    "ExperimentRequest",
    "DseRequest",
    "current_session",
    "use_session",
    "DesignPoint",
    "SearchSpace",
    "grid",
    "zip_axes",
    "union",
    "ExhaustiveDriver",
    "RandomDriver",
    "SuccessiveHalvingDriver",
    "ResultStore",
    "explore",
    "pareto_frontier",
]
