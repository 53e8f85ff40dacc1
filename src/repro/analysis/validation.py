"""Model-vs-measured validation harness (Fig. 11, 13, 14, 15, 19, 20).

The harness runs DeLTA's analytical model and the simulator substrate on the
same layer population and collects, per layer:

* traffic at each memory level (estimated and measured),
* execution time / cycles (estimated and measured), and
* the predicted performance bottleneck,

from which the figures' normalized bars and accuracy distributions are
derived.  Exact cache simulation of the full mini-batch-256 suite is still
far slower than the analytical model, so validation runs use a reduced
mini-batch and a bounded number of simulated CTAs; the defaults are chosen so
the whole paper suite completes in minutes (see :class:`ValidationConfig`).

Every simulation runs on the task engine of :class:`repro.api.Session`
(``Session.map_tasks``), so worker crashes, task errors and stragglers get
its retries and timeout.  Two throughput settings help repeated figure runs;
each falls back to the active session's value when unset:

* ``jobs`` fans the per-layer simulations out over worker processes
  (``--jobs`` on the CLI), and
* ``sim_cache_dir`` persists per-layer simulator results on disk keyed by
  (gpu, layer, simulator config), so re-running a figure skips simulation
  entirely (``--sim-cache`` on the CLI).

See EXPERIMENTS.md for how to rerun the suite at larger scale.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..core.bottleneck import Bottleneck
from ..core.layer import LayerConfig
from ..core.model import DeltaModel
from ..core.performance import ExecutionEstimate
from ..core.tiling import build_grid
from ..core.workload import PassKind, check_count, lower_pass
from ..gpu.spec import GpuSpec
from ..networks.registry import paper_benchmark_suite
from ..obs import metrics as obs_metrics
from ..sim.engine import (ConvLayerSimulator, SimResult, SimTraffic,
                          SimulatorConfig)
from .metrics import AccuracySummary

MEMORY_LEVELS: Tuple[str, ...] = ("l1", "l2", "dram")


@dataclass(frozen=True)
class ValidationConfig:
    """Scale knobs for the validation runs."""

    #: mini-batch used for both model and simulator (paper uses 256; the
    #: substitute simulator uses a smaller batch, see DESIGN.md).
    batch: int = 32
    #: cap on exactly-simulated CTAs per layer.
    max_ctas: Optional[int] = 180
    #: restrict each network to at most this many (unique) layers; None = all.
    layers_per_network: Optional[int] = 4
    #: per-layer simulations run across this many worker processes
    #: (None = the active session's jobs setting, normally 1 = serial).
    jobs: Optional[int] = None
    #: persist per-layer simulator results under this directory
    #: (None = the active session's cache directory, normally disabled).
    sim_cache_dir: Optional[str] = None
    #: restrict the population to these networks (None = the full paper suite).
    networks: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for name in ("jobs", "max_ctas", "layers_per_network"):
            check_count(getattr(self, name), name)
        if self.networks is not None:
            normalized = tuple(name.strip().lower() for name in self.networks)
            object.__setattr__(self, "networks", normalized)

    def simulator_config(self) -> SimulatorConfig:
        return SimulatorConfig(max_ctas=self.max_ctas)


#: a configuration that runs every unique layer of the paper suite.
FULL_VALIDATION = ValidationConfig(layers_per_network=None)

#: the fast default used by benchmarks and tests.
QUICK_VALIDATION = ValidationConfig()


@dataclass(frozen=True)
class LayerValidation:
    """Model-vs-measured record for one layer on one GPU."""

    network: str
    layer: LayerConfig
    gpu: GpuSpec
    model_traffic: Dict[str, float]
    measured_traffic: Dict[str, float]
    model_time: float
    measured_time: float
    bottleneck: Bottleneck

    def traffic_ratio(self, level: str) -> float:
        measured = self.measured_traffic[level]
        if measured <= 0:
            return float("nan")
        return self.model_traffic[level] / measured

    @property
    def time_ratio(self) -> float:
        if self.measured_time <= 0:
            return float("nan")
        return self.model_time / self.measured_time

    @property
    def model_cycles(self) -> float:
        return self.model_time * self.gpu.core_clock_hz

    @property
    def measured_cycles(self) -> float:
        return self.measured_time * self.gpu.core_clock_hz

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "network": self.network,
            "layer": self.layer.name,
            "gpu": self.gpu.name,
        }
        for level in MEMORY_LEVELS:
            row[f"{level}_ratio"] = self.traffic_ratio(level)
        row["time_ratio"] = self.time_ratio
        row["bottleneck"] = self.bottleneck.value
        return row


@dataclass(frozen=True)
class ValidationReport:
    """Validation of one GPU over a set of layers."""

    gpu: GpuSpec
    records: Tuple[LayerValidation, ...]

    def traffic_ratios(self, level: str) -> List[float]:
        return [record.traffic_ratio(level) for record in self.records
                if record.measured_traffic[level] > 0]

    def time_ratios(self) -> List[float]:
        return [record.time_ratio for record in self.records
                if record.measured_time > 0]

    def traffic_summary(self, level: str) -> AccuracySummary:
        return AccuracySummary.from_ratios(self.traffic_ratios(level))

    def time_summary(self) -> AccuracySummary:
        return AccuracySummary.from_ratios(self.time_ratios())

    def bottleneck_counts(self) -> Dict[Bottleneck, int]:
        counts: Dict[Bottleneck, int] = {}
        for record in self.records:
            counts[record.bottleneck] = counts.get(record.bottleneck, 0) + 1
        return counts

    def rows(self) -> List[Dict[str, object]]:
        return [record.as_row() for record in self.records]


def select_layers(config: ValidationConfig = QUICK_VALIDATION
                  ) -> List[Tuple[str, LayerConfig]]:
    """The (network, layer) population used for a validation run."""
    suite = paper_benchmark_suite(batch=config.batch, unique=True,
                                  networks=config.networks)
    if config.layers_per_network is None:
        return suite
    selected: List[Tuple[str, LayerConfig]] = []
    counts: Dict[str, int] = {}
    for network, layer in suite:
        taken = counts.get(network, 0)
        if taken < config.layers_per_network:
            selected.append((network, layer))
            counts[network] = taken + 1
    return selected


# ----------------------------------------------------------------------
# Simulation with optional on-disk result cache
# ----------------------------------------------------------------------
_SIM_CACHE_VERSION = 3

#: corrupt cache entries are renamed aside with this suffix for post-mortem.
QUARANTINE_SUFFIX = ".corrupt"


def _sim_cache_key(gpu: GpuSpec, layer: LayerConfig,
                   config: SimulatorConfig,
                   pass_kind: PassKind = "forward") -> str:
    """Stable digest of everything that determines a simulation result."""
    payload = repr((_SIM_CACHE_VERSION, gpu, layer, config, pass_kind))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _sim_cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"delta-sim-{key}.json")


def _quarantine_cache_entry(path: str) -> Optional[str]:
    """Rename a corrupt cache entry aside so it is never read again.

    The entry keeps its bytes under ``path + QUARANTINE_SUFFIX`` for
    post-mortem inspection; the slot frees up for a clean re-simulation.
    Returns the quarantine path, or None if another process already moved it.
    """
    quarantined = path + QUARANTINE_SUFFIX
    try:
        os.replace(path, quarantined)
    except OSError:
        return None  # already quarantined/removed by a concurrent reader
    return quarantined


def simulate_layer(gpu: GpuSpec, layer: LayerConfig,
                   config: SimulatorConfig,
                   cache_dir: Optional[str] = None,
                   pass_kind: PassKind = "forward") -> SimResult:
    """Run the simulator for one layer's pass, consulting the on-disk cache."""
    workload = lower_pass(layer, pass_kind)
    if cache_dir:
        key = _sim_cache_key(gpu, layer, config, pass_kind)
        path = _sim_cache_path(cache_dir, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            grid = build_grid(workload, tile_hw=config.cta_tile_hw)
            obs_metrics.count("sim_cache_hits")
            return SimResult(
                layer=layer, gpu=gpu, grid=grid,
                traffic=SimTraffic(**stored["traffic"]),
                time_seconds=stored["time_seconds"],
                simulated_ctas=stored["simulated_ctas"],
                scale_factor=stored["scale_factor"],
                pass_kind=pass_kind,
            )
        except FileNotFoundError:
            pass  # plain cache miss
        except (OSError, ValueError, KeyError, TypeError):
            # corrupt or stale-shaped entry: quarantine it (rename-aside)
            # so the poisoned bytes are never read again, then re-simulate.
            _quarantine_cache_entry(path)
        obs_metrics.count("sim_cache_misses")
    result = ConvLayerSimulator(gpu, config).run(workload)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        traffic = result.traffic
        record = {
            "traffic": {
                "l1_bytes": traffic.l1_bytes,
                "l2_bytes": traffic.l2_bytes,
                "dram_bytes": traffic.dram_bytes,
                "dram_ifmap_bytes": traffic.dram_ifmap_bytes,
                "dram_filter_bytes": traffic.dram_filter_bytes,
                "l1_requests": traffic.l1_requests,
            },
            "time_seconds": result.time_seconds,
            "simulated_ctas": result.simulated_ctas,
            "scale_factor": result.scale_factor,
        }
        # Unique temp name per writer: concurrent runs may race on the same
        # key, and the atomic replace makes the last full write win.
        tmp_path = f"{path}.{os.getpid()}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        os.replace(tmp_path, path)
    return result


def _simulate_task(task: Tuple) -> SimResult:
    """Module-level worker so process pools can pickle it.

    ``task`` is ``(gpu, layer, config, cache_dir, pass_kind)``.
    """
    gpu, layer, config, cache_dir, pass_kind = task
    faults.fire("sim", f"{gpu.name}/{layer.name}/{pass_kind}")
    return simulate_layer(gpu, layer, config, cache_dir=cache_dir,
                          pass_kind=pass_kind)


def _record(network: str, layer: LayerConfig, gpu: GpuSpec,
            estimate: ExecutionEstimate,
            sim_result: SimResult) -> LayerValidation:
    return LayerValidation(
        network=network,
        layer=layer,
        gpu=gpu,
        model_traffic={level: estimate.traffic.level_bytes(level)
                       for level in MEMORY_LEVELS},
        measured_traffic={level: sim_result.traffic.level_bytes(level)
                          for level in MEMORY_LEVELS},
        model_time=estimate.time_seconds,
        measured_time=sim_result.time_seconds,
        bottleneck=estimate.bottleneck,
    )


def validation_records(gpu: GpuSpec,
                       population: Sequence[Tuple[str, LayerConfig]],
                       sim_results: Sequence[SimResult]
                       ) -> Tuple[LayerValidation, ...]:
    """One record per (network, layer) of ``population`` against its
    simulator result; the model side is one batched estimate."""
    estimates = DeltaModel(gpu).estimate_many(
        [layer for _, layer in population])
    return tuple(
        _record(network, layer, gpu, estimate, sim_result)
        for (network, layer), estimate, sim_result
        in zip(population, estimates, sim_results))


def validate_gpu(gpu: GpuSpec,
                 config: ValidationConfig = QUICK_VALIDATION,
                 layers: Optional[Sequence[Tuple[str, LayerConfig]]] = None
                 ) -> ValidationReport:
    """Validate DeLTA against the simulator for one GPU.

    Every population entry is simulated, with no memo and no structural
    dedupe, through :meth:`Session.map_tasks` on a fresh session: it takes
    ``config.jobs`` (else the active session's jobs) and the active
    session's timeout and retry policy, and the tasks consult
    ``config.sim_cache_dir`` (else the active session's cache directory).
    The cheap analytical model runs inline.
    """
    from ..api.session import Session, current_session
    active = current_session()
    population = list(layers) if layers is not None else select_layers(config)
    sim_config = config.simulator_config()
    cache_dir = (config.sim_cache_dir if config.sim_cache_dir is not None
                 else active.sim_cache_dir)
    tasks = [(gpu, layer, sim_config, cache_dir, "forward")
             for _, layer in population]
    with Session(jobs=config.jobs or active.jobs, timeout=active.timeout,
                 retries=active.retries,
                 retry_backoff=active.retry_backoff) as session:
        sim_results = session.map_tasks(_simulate_task, tasks)
    return ValidationReport(
        gpu=gpu, records=validation_records(gpu, population, sim_results))


def validation_report(gpu: GpuSpec,
                      config: ValidationConfig = QUICK_VALIDATION,
                      session=None) -> ValidationReport:
    """Session-scoped validation: memoized records, shared pool and cache.

    Simulation is by far the most expensive step of the evaluation; several
    figures (11, 12, 13, 14, 15, 19, 20) reuse the same model-vs-measured
    records, so the experiments and the CLI call this entry point, which
    memoizes reports (and the underlying per-layer simulations) on the active
    :class:`repro.api.Session`.  The import is deferred to keep this module
    free of a load-time cycle with :mod:`repro.api`.
    """
    from ..api.session import current_session
    session = session if session is not None else current_session()
    return session.validation_report(gpu, config)

