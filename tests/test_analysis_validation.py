"""Tests for the model-vs-simulator validation harness."""

import json
import os

import pytest

from repro import faults
from repro.analysis.validation import (
    MEMORY_LEVELS,
    ValidationConfig,
    select_layers,
    simulate_layer,
    validate_gpu,
)
from repro.api.session import Session, use_session
from repro.core.bottleneck import Bottleneck
from repro.core.layer import ConvLayerConfig
from repro.gpu import TITAN_XP
from repro.sim.engine import (ConvLayerSimulator, SimResult, SimTraffic,
                              SimulatorConfig)


TINY_CONFIG = ValidationConfig(batch=4, max_ctas=40, layers_per_network=1)


class TestLayerSelection:
    def test_layers_per_network_cap(self):
        selected = select_layers(ValidationConfig(batch=8, layers_per_network=2))
        per_network = {}
        for network, _ in selected:
            per_network[network] = per_network.get(network, 0) + 1
        assert all(count <= 2 for count in per_network.values())
        assert len(per_network) == 4

    def test_unrestricted_selection_returns_full_suite(self):
        full = select_layers(ValidationConfig(batch=8, layers_per_network=None))
        capped = select_layers(ValidationConfig(batch=8, layers_per_network=1))
        assert len(full) > len(capped)

    def test_batch_propagates(self):
        selected = select_layers(ValidationConfig(batch=4, layers_per_network=1))
        assert all(layer.batch == 4 for _, layer in selected)


def _validate_one(network, layer):
    """The record of one layer validated at a 30-CTA simulation cap."""
    report = validate_gpu(TITAN_XP, ValidationConfig(max_ctas=30),
                          layers=[(network, layer)])
    (record,) = report.records
    return record


class TestValidateLayer:
    def test_record_fields_consistent(self):
        layer = ConvLayerConfig.square("v", 2, in_channels=16, in_size=14,
                                       out_channels=32, filter_size=3, padding=1)
        record = _validate_one("Toy", layer)
        assert record.network == "Toy"
        assert set(record.model_traffic) == set(MEMORY_LEVELS)
        assert record.model_time > 0 and record.measured_time > 0
        assert isinstance(record.bottleneck, Bottleneck)
        assert record.time_ratio == pytest.approx(
            record.model_time / record.measured_time)
        row = record.as_row()
        assert row["layer"] == "v" and row["gpu"] == TITAN_XP.name

    def test_ratios_are_finite_and_reasonable(self):
        layer = ConvLayerConfig.square("v", 2, in_channels=16, in_size=14,
                                       out_channels=32, filter_size=3, padding=1)
        record = _validate_one("Toy", layer)
        for level in MEMORY_LEVELS:
            assert 0.1 < record.traffic_ratio(level) < 10.0
        assert 0.1 < record.time_ratio < 10.0


class TestValidateGpu:
    @pytest.fixture(scope="class")
    def report(self):
        return validate_gpu(TITAN_XP, TINY_CONFIG)

    def test_one_record_per_selected_layer(self, report):
        assert len(report.records) == len(select_layers(TINY_CONFIG))

    def test_summaries_available_per_level(self, report):
        for level in MEMORY_LEVELS:
            summary = report.traffic_summary(level)
            assert summary.count == len(report.records)
            assert summary.gmae >= 0.0

    def test_time_summary_and_rows(self, report):
        assert report.time_summary().count == len(report.records)
        rows = report.rows()
        assert len(rows) == len(report.records)
        assert all("time_ratio" in row for row in rows)

    def test_bottleneck_counts_cover_all_records(self, report):
        assert sum(report.bottleneck_counts().values()) == len(report.records)

    def test_explicit_layer_population(self):
        layer = ConvLayerConfig.square("only", 2, in_channels=8, in_size=14,
                                       out_channels=16, filter_size=3, padding=1)
        report = validate_gpu(TITAN_XP, TINY_CONFIG, layers=[("X", layer)])
        assert len(report.records) == 1
        assert report.records[0].layer.name == "only"


def _record_key(record):
    return (record.network, record.layer.name,
            tuple(sorted(record.measured_traffic.items())),
            record.measured_time)


class TestParallelValidation:
    def test_process_pool_matches_serial(self):
        serial = validate_gpu(TITAN_XP, replace_jobs(TINY_CONFIG, 1))
        parallel = validate_gpu(TITAN_XP, replace_jobs(TINY_CONFIG, 2))
        assert ([_record_key(r) for r in serial.records]
                == [_record_key(r) for r in parallel.records])

    def test_jobs_must_be_positive(self):
        from repro.api import configure_default_session
        with pytest.raises(ValueError):
            configure_default_session(jobs=0)

    def test_config_jobs_wins_over_session_jobs(self, sim_runs):
        """Only in-process simulations reach the patched ``run``: jobs=1
        runs here even under a jobs=2 session, which otherwise fans out."""
        layers = select_layers(TINY_CONFIG)[:2]
        with use_session(Session(jobs=2)):
            validate_gpu(TITAN_XP, replace_jobs(TINY_CONFIG, 1),
                         layers=layers)
            assert len(sim_runs) == 2
            validate_gpu(TITAN_XP, TINY_CONFIG, layers=layers)
            assert len(sim_runs) == 2

    @pytest.mark.parametrize("field", ["jobs", "max_ctas",
                                       "layers_per_network"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            ValidationConfig(**{field: value})


def replace_jobs(config: ValidationConfig, jobs: int) -> ValidationConfig:
    from dataclasses import replace
    return replace(config, jobs=jobs)


#: the sim-validate benchmark's population: TITAN Xp, batch 16, 120 CTAs,
#: three unique layers of each of the four paper networks.
BENCH_CONFIG = ValidationConfig(batch=16, max_ctas=120, layers_per_network=3,
                                jobs=1)


@pytest.fixture
def sim_runs(monkeypatch):
    """Names of the layers ``ConvLayerSimulator.run`` sees in this process;
    each run returns a fixed stand-in result instead of simulating."""
    calls = []

    def run(self, source):
        calls.append(source.layer.name)
        traffic = SimTraffic(l1_bytes=4096.0, l2_bytes=2048.0,
                             dram_bytes=1024.0, dram_ifmap_bytes=512.0,
                             dram_filter_bytes=512.0, l1_requests=32)
        return SimResult(layer=source, gpu=self.gpu, grid=None,
                         traffic=traffic, time_seconds=1e-3,
                         simulated_ctas=1, scale_factor=1.0)

    monkeypatch.setattr(ConvLayerSimulator, "run", run)
    return calls


class TestSimulationEngine:
    """validate_gpu simulates on the Session's task engine."""

    def test_every_population_entry_is_simulated(self, sim_runs):
        # 12 entries but 10 distinct structures: the GoogLeNet stem and
        # 3x3-reduce convs equal ResNet152 conv1 and conv2_1_a.
        population = select_layers(BENCH_CONFIG)
        assert len(population) == 12
        assert len({layer.structural_key() for _, layer in population}) == 10
        report = validate_gpu(TITAN_XP, BENCH_CONFIG)
        assert len(sim_runs) == 12
        assert [r.layer.name for r in report.records] == sim_runs

    def test_consecutive_calls_both_simulate(self, sim_runs):
        layers = select_layers(TINY_CONFIG)
        validate_gpu(TITAN_XP, TINY_CONFIG, layers=layers)
        validate_gpu(TITAN_XP, TINY_CONFIG, layers=layers)
        assert len(sim_runs) == 2 * len(layers)

    def test_flaky_simulation_is_retried(self, tmp_path):
        layer = TestSimulationDiskCache.LAYER
        with use_session(Session(retries=1)), \
                faults.injected(faults.flaky(site="sim", failures=1),
                                state_dir=str(tmp_path)):
            report = validate_gpu(TITAN_XP, TINY_CONFIG,
                                  layers=[("X", layer)])
        assert len(report.records) == 1
        assert report.records[0].measured_time > 0

    def test_session_cache_dir_applies_when_config_has_none(self, tmp_path):
        layer = TestSimulationDiskCache.LAYER
        with use_session(Session(sim_cache_dir=str(tmp_path))):
            validate_gpu(TITAN_XP, TINY_CONFIG, layers=[("X", layer)])
        assert len(os.listdir(tmp_path)) == 1


class TestSimulationDiskCache:
    LAYER = ConvLayerConfig.square("cached", 2, in_channels=8, in_size=14,
                                   out_channels=16, filter_size=3, padding=1)

    def test_cache_roundtrip_is_exact(self, tmp_path):
        config = SimulatorConfig(max_ctas=30)
        fresh = simulate_layer(TITAN_XP, self.LAYER, config,
                               cache_dir=str(tmp_path))
        files = [name for name in os.listdir(tmp_path)
                 if name.startswith("delta-sim-")]
        assert len(files) == 1
        cached = simulate_layer(TITAN_XP, self.LAYER, config,
                                cache_dir=str(tmp_path))
        assert cached.traffic == fresh.traffic
        assert cached.time_seconds == fresh.time_seconds
        assert cached.simulated_ctas == fresh.simulated_ctas
        assert cached.scale_factor == fresh.scale_factor

    def test_cached_result_is_actually_loaded(self, tmp_path):
        """Poisoning the stored record must show up in the next run."""
        config = SimulatorConfig(max_ctas=30)
        simulate_layer(TITAN_XP, self.LAYER, config, cache_dir=str(tmp_path))
        (path,) = [tmp_path / name for name in os.listdir(tmp_path)]
        record = json.loads(path.read_text())
        record["traffic"]["dram_bytes"] = 12345.0
        path.write_text(json.dumps(record))
        poisoned = simulate_layer(TITAN_XP, self.LAYER, config,
                                  cache_dir=str(tmp_path))
        assert poisoned.traffic.dram_bytes == 12345.0

    def test_key_depends_on_simulator_config(self, tmp_path):
        simulate_layer(TITAN_XP, self.LAYER, SimulatorConfig(max_ctas=30),
                       cache_dir=str(tmp_path))
        simulate_layer(TITAN_XP, self.LAYER, SimulatorConfig(max_ctas=20),
                       cache_dir=str(tmp_path))
        assert len(os.listdir(tmp_path)) == 2

    def test_validate_gpu_uses_cache_dir(self, tmp_path):
        from dataclasses import replace
        config = replace(TINY_CONFIG, sim_cache_dir=str(tmp_path))
        validate_gpu(TITAN_XP, config, layers=[("X", self.LAYER)])
        assert len(os.listdir(tmp_path)) == 1
