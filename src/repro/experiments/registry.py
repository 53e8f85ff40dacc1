"""Experiment registry: decorator-registered paper tables/figures.

Every module in this package registers its ``run`` callable through the
:func:`register_experiment` decorator, together with the metadata the
session-based API needs to plan batched runs (does the experiment consume the
shared validation harness, and on which GPUs by default).  A runner returns
the experiment-kind :class:`repro.api.Report` that ``base.make_result`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..api.report import Report

ExperimentRunner = Callable[..., Report]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registration record for one reproduced table/figure."""

    experiment_id: str
    #: human readable title (matches the paper's caption).
    title: str
    runner: ExperimentRunner
    #: needs no simulation and therefore runs in well under a second.
    fast: bool = False
    #: consumes ``Session.validation_report`` — enables the batch executor to
    #: pre-plan and dedupe the per-layer simulation work units.
    uses_validation: bool = False
    #: GPUs validated when a request does not override them.
    default_gpus: Tuple[str, ...] = ()


_EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def register_experiment(experiment_id: str, *, title: str, fast: bool = False,
                        uses_validation: bool = False,
                        default_gpus: Sequence[str] = ()
                        ) -> Callable[[ExperimentRunner], ExperimentRunner]:
    """Register an experiment ``run`` callable under ``experiment_id``.

    Duplicate identifiers raise ``ValueError``.
    """
    key = experiment_id.strip().lower()

    def decorator(runner: ExperimentRunner) -> ExperimentRunner:
        if key in _EXPERIMENTS:
            raise ValueError(
                f"experiment id {experiment_id!r} is already registered by "
                f"{_EXPERIMENTS[key].runner.__module__}")
        _EXPERIMENTS[key] = ExperimentSpec(
            experiment_id=key, title=title, runner=runner, fast=fast,
            uses_validation=uses_validation, default_gpus=tuple(default_gpus))
        return runner

    return decorator


def unregister_experiment(experiment_id: str) -> None:
    """Remove an experiment registration (tests/plugins)."""
    _EXPERIMENTS.pop(experiment_id.strip().lower(), None)


def available_experiments() -> List[str]:
    """Identifiers accepted by :func:`run_experiment`."""
    return sorted(_EXPERIMENTS)


def all_experiment_specs() -> List[ExperimentSpec]:
    """Every registered experiment, sorted by identifier."""
    return [spec for _, spec in sorted(_EXPERIMENTS.items())]


def get_experiment_spec(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment's registration record by identifier."""
    key = experiment_id.strip().lower()
    try:
        return _EXPERIMENTS[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{available_experiments()}"
        ) from None


def get_experiment(experiment_id: str) -> ExperimentRunner:
    """Look up an experiment's ``run`` callable by identifier."""
    return get_experiment_spec(experiment_id).runner


def run_experiment(experiment_id: str, **kwargs) -> Report:
    """Run one experiment by identifier."""
    return get_experiment(experiment_id)(**kwargs)


# Importing the experiment modules applies their @register_experiment
# decorators; the imports sit at the bottom so the decorator exists first.
from . import dse_explore          # noqa: E402,F401
from . import fig04_miss_rates     # noqa: E402,F401
from . import fig06_cta_tile       # noqa: E402,F401
from . import fig11_traffic_accuracy  # noqa: E402,F401
from . import fig12_prior_traffic  # noqa: E402,F401
from . import fig13_perf_titanxp   # noqa: E402,F401
from . import fig14_perf_v100      # noqa: E402,F401
from . import fig15_perf_distribution  # noqa: E402,F401
from . import fig16_scaling        # noqa: E402,F401
from . import fig17_sensitivity    # noqa: E402,F401
from . import fig18_dram_microbench  # noqa: E402,F401
from . import fig19_cycles         # noqa: E402,F401
from . import fig20_traffic_absolute  # noqa: E402,F401
from . import tab01_specs          # noqa: E402,F401
from . import training_step        # noqa: E402,F401
from . import transformer_step     # noqa: E402,F401

#: experiments that need no simulation and therefore run in well under a second.
FAST_EXPERIMENTS: Tuple[str, ...] = tuple(
    spec.experiment_id for spec in all_experiment_specs() if spec.fast)
