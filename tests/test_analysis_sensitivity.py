"""Tests for the sensitivity sweeps (Fig. 17 harness)."""

import pytest

from repro.analysis.sensitivity import (
    DEFAULT_SWEEPS,
    reference_layer,
    run_all_sweeps,
    run_sweep,
)
from repro.api.session import Session, use_session
from repro.gpu import TITAN_XP
from repro.sim.engine import SimulatorConfig


FAST_SIM = SimulatorConfig(max_ctas=30)


class TestReferenceLayer:
    def test_matches_paper_appendix_configuration(self):
        layer = reference_layer()
        assert layer.in_channels == 256
        assert layer.in_height == 13
        assert layer.out_channels == 128
        assert layer.filter_height == 3
        assert layer.stride == 1


class TestSweeps:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("unknown", TITAN_XP, values=[1, 2])

    def test_output_channel_sweep_tracks_cta_tile_width(self):
        sweep = run_sweep("out_channels", TITAN_XP, values=[32, 64, 128],
                          base=reference_layer(batch=4),
                          simulator_config=FAST_SIM)
        widths = [point.cta_tile_width for point in sweep.points]
        assert widths == [32, 64, 128]

    def test_ratios_reasonable_for_feature_size_sweep(self):
        sweep = run_sweep("feature_size", TITAN_XP, values=[8, 16],
                          base=reference_layer(batch=4),
                          simulator_config=FAST_SIM)
        for level in ("l1", "l2", "dram"):
            for value in sweep.ratios(level):
                assert 0.2 < value < 5.0

    def test_batch_sweep_has_stable_ratios(self):
        """Fig. 17d: the mini-batch size barely affects the model accuracy."""
        sweep = run_sweep("batch", TITAN_XP, values=[4, 8, 16],
                          base=reference_layer(batch=4),
                          simulator_config=FAST_SIM)
        dram_ratios = sweep.ratios("dram")
        assert max(dram_ratios) / min(dram_ratios) < 1.5

    def test_rows_structure(self):
        sweep = run_sweep("in_channels", TITAN_XP, values=[16, 64],
                          base=reference_layer(batch=4),
                          simulator_config=FAST_SIM)
        rows = sweep.rows()
        assert len(rows) == 2
        assert {"value", "l1_ratio", "l2_ratio", "dram_ratio"} <= set(rows[0])

    def test_run_all_sweeps_covers_default_parameters(self):
        tiny = {name: values[:1] for name, values in DEFAULT_SWEEPS.items()}
        results = run_all_sweeps(TITAN_XP, sweeps=tiny,
                                 simulator_config=FAST_SIM)
        assert set(results) == set(DEFAULT_SWEEPS)
        assert all(len(sweep.points) == 1 for sweep in results.values())

    def test_sweep_without_session_measures_on_current_session(self):
        with use_session(Session()) as session:
            sweep = run_sweep("out_channels", TITAN_XP, values=[32, 64],
                              base=reference_layer(batch=4),
                              simulator_config=FAST_SIM)
        assert len(sweep.points) == 2
        assert session.stats.sim_tasks == 2
