"""Tests for the model-vs-simulator validation harness."""

import json
import os

import pytest

from repro.analysis.validation import (
    MEMORY_LEVELS,
    ValidationConfig,
    select_layers,
    simulate_layer,
    validate_gpu,
    validate_layer,
)
from repro.core.bottleneck import Bottleneck
from repro.core.layer import ConvLayerConfig
from repro.gpu import TITAN_XP
from repro.sim.engine import SimulatorConfig


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


class TestValidateLayer:
    def test_record_fields_consistent(self):
        layer = ConvLayerConfig.square("v", 2, in_channels=16, in_size=14,
                                       out_channels=32, filter_size=3, padding=1)
        record = validate_layer("Toy", layer, TITAN_XP,
                                simulator_config=SimulatorConfig(max_ctas=30))
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
        record = validate_layer("Toy", layer, TITAN_XP,
                                simulator_config=SimulatorConfig(max_ctas=30))
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

    def test_effective_jobs_defaults_to_serial(self):
        assert ValidationConfig().effective_jobs >= 1


def replace_jobs(config: ValidationConfig, jobs: int) -> ValidationConfig:
    from dataclasses import replace
    return replace(config, jobs=jobs)


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
