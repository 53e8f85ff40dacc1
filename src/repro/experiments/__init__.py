"""One module per reproduced table/figure of the paper's evaluation."""

from .base import make_result
from .registry import (
    FAST_EXPERIMENTS,
    ExperimentSpec,
    all_experiment_specs,
    available_experiments,
    get_experiment,
    get_experiment_spec,
    register_experiment,
    run_experiment,
    unregister_experiment,
)

__all__ = [
    "make_result",
    "ExperimentSpec",
    "available_experiments",
    "all_experiment_specs",
    "get_experiment",
    "get_experiment_spec",
    "register_experiment",
    "unregister_experiment",
    "run_experiment",
    "FAST_EXPERIMENTS",
]
