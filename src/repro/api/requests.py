"""Typed request dataclasses accepted by ``Session.run`` / ``Session.run_many``.

Requests are frozen value objects: they carry *what* to compute
(network/GPU/batch/scale), never *how*.  Jobs, caching, timeouts and retries
are set only on the :class:`repro.api.Session` that runs them; no request
overrides them.  Every mini-batch is checked by
:func:`repro.core.workload.check_batch` (``1 <= batch <= 2**31 - 1``).
(:class:`ExperimentRequest` is not hashable once ``options`` is set, since
options hold arbitrary keyword arguments.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple, Union

from ..core.workload import (PassKind, check_batch, expand_passes,
                             normalize_passes)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..dse.space import SearchSpace

Names = Union[str, Sequence[str]]


def _name_tuple(value: Optional[Names]) -> Optional[Tuple[str, ...]]:
    """Normalize a name or sequence of names to a lower-case tuple."""
    if value is None:
        return None
    if isinstance(value, str):
        value = (value,)
    return tuple(str(name).strip().lower() for name in value)


@dataclass(frozen=True)
class EstimateRequest:
    """Analytical per-layer estimate of one network on one GPU.

    Pure model evaluation: no simulation, runs in milliseconds.
    """

    network: str
    gpu: str = "titanxp"
    batch: int = 256
    #: only evaluate unique layer configurations.
    unique: bool = False
    #: restrict to the layers shown in the paper's figures.
    paper_subset: bool = False
    #: training passes to evaluate: "forward" (default), "dgrad", "wgrad" or
    #: "training" (all three, reported as a full training step).
    passes: str = "forward"

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", normalize_passes(self.passes))
        check_batch(self.batch)

    @property
    def pass_kinds(self) -> Tuple[PassKind, ...]:
        """The concrete pass kinds this request evaluates, in order."""
        return expand_passes(self.passes)


@dataclass(frozen=True)
class SweepRequest:
    """Model-only sweep over networks x GPUs x batch sizes in one call."""

    networks: Names = ("alexnet", "vgg16", "googlenet", "resnet152")
    gpus: Names = ("titanxp", "v100")
    batches: Tuple[int, ...] = (64, 256)
    unique: bool = True
    paper_subset: bool = True
    #: training passes summed per combination (see EstimateRequest.passes).
    passes: str = "forward"

    def __post_init__(self) -> None:
        object.__setattr__(self, "networks", _name_tuple(self.networks))
        object.__setattr__(self, "gpus", _name_tuple(self.gpus))
        object.__setattr__(self, "batches", tuple(int(b) for b in self.batches))
        object.__setattr__(self, "passes", normalize_passes(self.passes))
        if not (self.networks and self.gpus and self.batches):
            raise ValueError("networks, gpus and batches must be non-empty")
        for batch in self.batches:
            check_batch(batch, "batches")

    @property
    def pass_kinds(self) -> Tuple[PassKind, ...]:
        """The concrete pass kinds each combination sums over."""
        return expand_passes(self.passes)


@dataclass(frozen=True)
class ValidateRequest:
    """Model-vs-simulator validation of one GPU over the paper population."""

    gpu: str = "titanxp"
    batch: int = 32
    #: cap on exactly-simulated CTAs per layer (None = all).
    max_ctas: Optional[int] = 180
    #: layers per network (None = all unique layers).
    layers_per_network: Optional[int] = 4
    #: restrict the population to these networks (None = all four CNNs).
    networks: Optional[Names] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "networks", _name_tuple(self.networks))
        check_batch(self.batch)


@dataclass(frozen=True)
class ExperimentRequest:
    """Run one registered paper table/figure, optionally reconfigured.

    Unset override fields keep the experiment's paper-default configuration;
    the default request therefore reproduces the paper numbers exactly.
    Overrides an experiment cannot honor (e.g. a network override for the
    GPU-specification table) raise ``ValueError`` rather than being ignored.
    ``options`` passes extra keyword arguments straight to the experiment's
    ``run`` callable after validation against its signature.
    """

    experiment: str
    gpus: Optional[Names] = None
    networks: Optional[Names] = None
    batch: Optional[int] = None
    max_ctas: Optional[int] = None
    layers_per_network: Optional[int] = None
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiment", self.experiment.strip().lower())
        object.__setattr__(self, "gpus", _name_tuple(self.gpus))
        object.__setattr__(self, "networks", _name_tuple(self.networks))
        object.__setattr__(self, "options", dict(self.options))
        if self.batch is not None:
            check_batch(self.batch)


@dataclass(frozen=True)
class DseRequest:
    """Design-space exploration over a searchable GPU x workload space.

    ``space`` is a :class:`repro.dse.SearchSpace` (grid / zip / union /
    explicit); the driver decides which of its points are evaluated, the
    optional JSONL ``store_path`` makes the sweep resumable, and
    ``objectives`` select the Pareto frontier the report is built around.
    Analytic-model evaluation fans out over the session's process pool;
    ``confirm_top`` > 0 additionally cross-checks the best frontier points
    against the trace-driven simulator.
    """

    space: "SearchSpace"
    gpu: str = "titanxp"
    #: search strategy: "grid" (exhaustive), "random" or "halving".
    driver: str = "grid"
    #: evaluation budget (required for random/halving; caps grid).
    budget: Optional[int] = None
    seed: int = 0
    objectives: Tuple[str, ...] = ("throughput", "dram", "cost")
    #: JSONL result store; interrupted or repeated sweeps skip evaluated points.
    store_path: Optional[str] = None
    #: evaluate each network's unique layer configurations only.
    unique: bool = True
    #: simulator-confirm this many top frontier points (0 = model only).
    confirm_top: int = 0

    def __post_init__(self) -> None:
        from ..analysis.frontier import resolve_objectives
        from ..dse.drivers import driver_names
        from ..dse.space import SearchSpace
        if not isinstance(self.space, SearchSpace):
            raise TypeError(
                f"space must be a repro.dse.SearchSpace, "
                f"got {type(self.space).__name__}")
        object.__setattr__(self, "gpu", self.gpu.strip().lower())
        driver = self.driver.strip().lower()
        if driver not in driver_names():
            raise ValueError(
                f"unknown driver {self.driver!r}; expected one of "
                f"{list(driver_names())}")
        object.__setattr__(self, "driver", driver)
        objectives = tuple(str(name).strip().lower()
                           for name in self.objectives)
        resolve_objectives(objectives)  # validates the names
        object.__setattr__(self, "objectives", objectives)
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")
        if driver in ("random", "halving") and self.budget is None:
            raise ValueError(f"the {driver} driver requires a budget")
        if self.confirm_top < 0:
            raise ValueError("confirm_top must be non-negative")


Request = Union[EstimateRequest, SweepRequest, ValidateRequest,
                ExperimentRequest, DseRequest]
