"""Fig. 14: execution time estimates and bottlenecks on TESLA V100.

Same methodology as Fig. 13 but on the Volta GPU (paper GMAE: 6.5%).
"""

from __future__ import annotations

from ..analysis.validation import QUICK_VALIDATION, ValidationConfig
from ..gpu.devices import TESLA_V100
from ..gpu.spec import GpuSpec
from .base import Report
from .fig13_perf_titanxp import run as _run_perf
from .registry import register_experiment

EXPERIMENT_ID = "fig14"
TITLE = "Fig. 14: normalized execution time and bottlenecks (TESLA V100)"


@register_experiment(EXPERIMENT_ID, title=TITLE, uses_validation=True,
                     default_gpus=("v100",))
def run(gpu: GpuSpec = TESLA_V100,
        config: ValidationConfig = QUICK_VALIDATION,
        session=None) -> Report:
    """Validate execution-time estimates on the V100."""
    return _run_perf(gpu=gpu, config=config,
                     experiment_id=EXPERIMENT_ID, title=TITLE,
                     session=session)
