"""Session-based public API: typed requests, batch execution, structured results.

Quick start::

    from repro.api import EstimateRequest, ExperimentRequest, Session

    with Session(jobs=4) as session:
        estimate = session.run(EstimateRequest("resnet152", gpu="v100", batch=256))
        print(estimate.render())

        fig11, fig13 = session.run_many([
            ExperimentRequest("fig11"),
            ExperimentRequest("fig13"),
        ])
        print(fig13.to_json(indent=2))

* :class:`Session` owns all execution policy (worker processes, on-disk
  simulation cache, render precision, timeouts and retries) plus the memoized
  simulation/validation results shared across requests.
* Request dataclasses (:class:`EstimateRequest`, :class:`SweepRequest`,
  :class:`ValidateRequest`, :class:`ExperimentRequest`) say *what* to compute.
* Every run returns a :class:`Report` with ``render()`` (text) and
  ``to_dict()``/``to_json()`` (machine-readable, round-trippable).
* ``Session.run_many`` dedupes identical simulation work units across the
  batch, fans them out over one shared process pool, and isolates failures:
  a failing request yields a ``Report(kind="error")`` in its slot instead of
  aborting the batch (see DESIGN.md, "Failure semantics").
* ``register_network`` / ``register_gpu`` / ``register_experiment`` extend
  the catalogs the requests refer to by name; :func:`catalog` lists them
  (``repro list --format json`` and the server's registry routes).
"""

from ..experiments.registry import (
    ExperimentSpec,
    all_experiment_specs,
    available_experiments,
    get_experiment_spec,
    register_experiment,
    unregister_experiment,
)
from ..gpu.devices import device_aliases, get_device, register_gpu, unregister_gpu
from ..resilience import (
    SessionClosedError,
    SimulationError,
    TaskError,
    TaskFailure,
)
from ..networks.registry import (
    available_networks,
    get_network,
    paper_subset_networks,
    register_network,
    unregister_network,
)
from .progress import emit_progress, observe_progress
from .report import SCHEMA_VERSION, Report
from .requests import (
    DseRequest,
    EstimateRequest,
    ExperimentRequest,
    Request,
    SweepRequest,
    ValidateRequest,
)
from .session import (
    Session,
    SessionStats,
    configure_default_session,
    current_session,
    default_session,
    reset_default_session,
    use_session,
)


def catalog() -> dict[str, object]:
    """Every name a request can refer to: networks, GPUs (with aliases), experiments."""
    return {
        "networks": available_networks(),
        "paper_subset_variants": paper_subset_networks(),
        "gpus": [{"name": name, "aliases": list(aliases)}
                 for name, aliases in device_aliases().items()],
        "experiments": [{"id": spec.experiment_id, "title": spec.title, "fast": spec.fast,
                         "uses_validation": spec.uses_validation}
                        for spec in all_experiment_specs()],
    }


__all__ = [
    "catalog",
    "Session",
    "SessionStats",
    "current_session",
    "default_session",
    "use_session",
    "configure_default_session",
    "reset_default_session",
    "observe_progress",
    "emit_progress",
    "Report",
    "SCHEMA_VERSION",
    "TaskFailure",
    "TaskError",
    "SimulationError",
    "SessionClosedError",
    "Request",
    "EstimateRequest",
    "SweepRequest",
    "ValidateRequest",
    "ExperimentRequest",
    "DseRequest",
    "register_network",
    "unregister_network",
    "available_networks",
    "paper_subset_networks",
    "get_network",
    "register_gpu",
    "unregister_gpu",
    "device_aliases",
    "get_device",
    "register_experiment",
    "unregister_experiment",
    "available_experiments",
    "all_experiment_specs",
    "get_experiment_spec",
    "ExperimentSpec",
]
