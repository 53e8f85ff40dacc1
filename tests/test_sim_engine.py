"""Tests for the trace-driven convolution simulator (repro.sim.engine)."""

import pytest

from repro.core.layer import ConvLayerConfig
from repro.core.model import DeltaModel
from repro.gpu import TITAN_XP
from repro.networks import get_network
from repro.obs import spans as obs_spans
from repro.sim import engine as engine_module
from repro.sim.engine import ConvLayerSimulator, SimResult, SimulatorConfig
from sim_reference import ReferenceSimulator


def _traffic_tuple(result: SimResult):
    traffic = result.traffic
    return (traffic.l1_bytes, traffic.l2_bytes, traffic.dram_bytes,
            traffic.dram_ifmap_bytes, traffic.dram_filter_bytes,
            traffic.l1_requests, result.time_seconds, result.simulated_ctas,
            result.scale_factor)


@pytest.fixture(scope="module")
def simulator():
    return ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=60))


@pytest.fixture(scope="module")
def tiny_result(simulator):
    layer = ConvLayerConfig.square("tiny", 2, in_channels=8, in_size=14,
                                   out_channels=16, filter_size=3, padding=1)
    return simulator.run(layer)


class TestTrafficMeasurement:
    def test_traffic_hierarchy_monotonic(self, tiny_result):
        traffic = tiny_result.traffic
        assert traffic.l1_bytes >= traffic.l2_bytes >= traffic.dram_bytes > 0

    def test_miss_rates_bounded(self, tiny_result):
        assert 0 < tiny_result.traffic.l1_miss_rate <= 1.0
        assert 0 < tiny_result.traffic.l2_miss_rate <= 1.0

    def test_dram_traffic_at_least_compulsory(self, simulator):
        """DRAM reads can never be below the touched footprint of the data."""
        layer = ConvLayerConfig.square("c", 2, in_channels=16, in_size=14,
                                       out_channels=32, filter_size=3, padding=1)
        result = simulator.run(layer)
        footprint = layer.ifmap_bytes + layer.filter_bytes
        assert result.traffic.dram_bytes >= 0.7 * footprint
        assert result.traffic.dram_bytes <= 3.0 * footprint

    def test_dram_split_sums_to_total(self, tiny_result):
        traffic = tiny_result.traffic
        assert traffic.dram_bytes == pytest.approx(
            traffic.dram_ifmap_bytes + traffic.dram_filter_bytes)

    def test_level_lookup(self, tiny_result):
        traffic = tiny_result.traffic
        assert traffic.level_bytes("L1") == traffic.l1_bytes
        with pytest.raises(ValueError):
            traffic.level_bytes("l4")

    def test_time_and_cycles_positive(self, tiny_result):
        assert tiny_result.time_seconds > 0
        assert tiny_result.cycles == pytest.approx(
            tiny_result.time_seconds * TITAN_XP.core_clock_hz)


class TestKernelSpans:
    LAYER = ConvLayerConfig.square("spans", 4, in_channels=16, in_size=14,
                                   out_channels=32, filter_size=3, padding=1)

    def test_deep_trace_splits_kernel_time_per_wave(self):
        simulator = ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=60))
        with obs_spans.collect_trace(deep=True) as trace:
            result = simulator.run(self.LAYER)
        waves = [span for span in trace.spans if span.name == "sim.kernels"]
        assert waves
        for span in waves:
            attrs = span.attrs
            assert attrs["l1_ms"] >= 0 and attrs["l2_ms"] >= 0
            assert attrs["l1_ms"] + attrs["l2_ms"] <= span.duration_ms
            assert 0 <= attrs["l1_misses"] <= attrs["l1_accesses"]
        # every L1 miss is one sector of L2 traffic.
        misses = sum(span.attrs["l1_misses"] for span in waves)
        assert (misses * TITAN_XP.sector_bytes * result.scale_factor
                == pytest.approx(result.traffic.l2_bytes))

    def test_untraced_run_wraps_no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel timing without deep tracing")

        monkeypatch.setattr(engine_module, "_timed", refuse)
        ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=30)).run(
            self.LAYER)
        with obs_spans.collect_trace(deep=False):
            ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=30)).run(
                self.LAYER)


class TestSamplingAndExtrapolation:
    def test_full_simulation_when_grid_is_small(self, tiny_result):
        assert tiny_result.simulated_ctas == tiny_result.grid.num_ctas
        assert tiny_result.scale_factor == pytest.approx(1.0)

    def test_sampled_simulation_extrapolates(self):
        layer = ConvLayerConfig.square("big", 64, in_channels=16, in_size=28,
                                       out_channels=64, filter_size=3, padding=1)
        sampled = ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=30)).run(layer)
        assert sampled.simulated_ctas < sampled.grid.num_ctas
        assert sampled.scale_factor > 1.0
        # extrapolated traffic should be in the same ballpark as a larger sample.
        fuller = ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=120)).run(layer)
        assert sampled.traffic.l1_bytes == pytest.approx(fuller.traffic.l1_bytes,
                                                         rel=0.2)
        assert sampled.traffic.dram_bytes == pytest.approx(fuller.traffic.dram_bytes,
                                                           rel=0.5)

    @pytest.mark.parametrize("budget,simulated",
                             [(20, 150), (150, 150), (151, 190)])
    def test_budget_simulates_whole_waves(self, budget, simulated):
        """``max_ctas`` is wave-granular: whole waves run until at least the
        budget's CTAs ran.  AlexNet conv1 at batch 8 on TITAN Xp has 190
        CTAs in waves of 150 and 40; the last wave is never cut."""
        layer = get_network("alexnet", batch=8).unique_layers()[0]
        result = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=budget)).run(layer)
        assert result.grid.num_ctas == 190
        assert result.simulated_ctas == simulated >= budget
        assert result.scale_factor == pytest.approx(190 / simulated)

    def test_accounting_mode_changes_l1_only(self):
        layer = ConvLayerConfig.square("acct", 2, in_channels=8, in_size=14,
                                       out_channels=16, filter_size=3, padding=1)
        sector = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=60, l1_accounting="sector")).run(layer)
        request = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=60, l1_accounting="request")).run(layer)
        assert request.traffic.l1_bytes >= sector.traffic.l1_bytes
        assert request.traffic.dram_bytes == pytest.approx(
            sector.traffic.dram_bytes)


#: SimTraffic values captured from the pre-vectorization (seed) engine; the
#: vectorized engine and the test-side scalar reference
#: (tests/sim_reference.py) must reproduce every field bit-for-bit.  Tuple order matches :func:`_traffic_tuple`.
GOLDEN_CASES = {
    "small3x3_sector": (
        dict(batch=2, in_channels=8, in_size=14, out_channels=16,
             filter_size=3, padding=1),
        dict(max_ctas=60),
        (171776.0, 34432.0, 17152.0, 12544.0, 4608.0, 2926.0,
         6.371645772953439e-06, 4, 1.0),
    ),
    "small3x3_request": (
        dict(batch=2, in_channels=8, in_size=14, out_channels=16,
             filter_size=3, padding=1),
        dict(max_ctas=60, l1_accounting="request"),
        (374528.0, 34432.0, 17152.0, 12544.0, 4608.0, 2926.0,
         6.371645772953439e-06, 4, 1.0),
    ),
    "pointwise_row_sched": (
        dict(batch=2, in_channels=16, in_size=14, out_channels=32,
             filter_size=1, padding=0),
        dict(max_ctas=60, scheduling="row"),
        (45056.0, 34560.0, 27136.0, 25088.0, 2048.0, 648.0,
         2.1842964026642524e-06, 4, 1.0),
    ),
    "strided_setassoc_l2": (
        dict(batch=2, in_channels=3, in_size=56, out_channels=32,
             filter_size=7, stride=2, padding=3),
        dict(max_ctas=60, l2_fully_associative=False),
        (2600864.0, 363072.0, 94080.0, 75264.0, 18816.0, 42337.0,
         1.3074582931172688e-05, 13, 1.0),
    ),
    "reference_sampled": (
        dict(batch=8, in_channels=256, in_size=13, out_channels=128,
             filter_size=3, padding=1),
        dict(max_ctas=30),
        (27767808.0, 14777376.0, 2564096.0, 1384448.0, 1179648.0, 602856.0,
         0.00018858559657192666, 11, 1.0),
    ),
}


class TestGoldenTraffic:
    """Pin SimTraffic against the pre-rewrite engine, bit for bit."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_vectorized_engine_matches_seed(self, case):
        layer_kwargs, config_kwargs, expected = GOLDEN_CASES[case]
        layer = ConvLayerConfig.square(case, **layer_kwargs)
        result = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(**config_kwargs)).run(layer)
        assert _traffic_tuple(result) == expected

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_reference_engine_matches_seed(self, case):
        layer_kwargs, config_kwargs, expected = GOLDEN_CASES[case]
        layer = ConvLayerConfig.square(case, **layer_kwargs)
        result = ReferenceSimulator(
            TITAN_XP, SimulatorConfig(**config_kwargs)).run(layer)
        assert _traffic_tuple(result) == expected

    def test_vectorized_equals_reference_on_multi_wave_grid(self):
        """A grid larger than one wave exercises cross-wave cache state."""
        layer = ConvLayerConfig.square("multiwave", 8, in_channels=16,
                                       in_size=28, out_channels=160,
                                       filter_size=3, padding=1)
        fast = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=150)).run(layer)
        slow = ReferenceSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=150)).run(layer)
        assert _traffic_tuple(fast) == _traffic_tuple(slow)


class TestSimulatorConfigValidation:
    def test_valid_config_accepted(self):
        SimulatorConfig(max_ctas=None, l1_accounting="request",
                        scheduling="row", l1_ways=4, l2_ways=8,
                        cta_tile_hw=256)

    @pytest.mark.parametrize("kwargs", [
        dict(l1_accounting="bytes"),
        dict(scheduling="diagonal"),
        dict(l1_ways=0),
        dict(l1_ways=-2),
        dict(l2_ways=0),
        dict(cta_tile_hw=0),
        dict(max_ctas=0),
        dict(max_ctas=-5),
    ])
    def test_invalid_config_rejected_eagerly(self, kwargs):
        with pytest.raises(ValueError):
            SimulatorConfig(**kwargs)


class TestAgainstAnalyticalModel:
    """The simulator is independent of the model but must agree on the shape."""

    @pytest.mark.parametrize("filter_size,padding", [(1, 0), (3, 1)])
    def test_model_within_factor_of_simulation(self, filter_size, padding):
        layer = ConvLayerConfig.square("cmp", 4, in_channels=64, in_size=14,
                                       out_channels=64,
                                       filter_size=filter_size, padding=padding)
        sim = ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=90)).run(layer)
        model = DeltaModel(TITAN_XP).traffic(layer)
        for level in ("l1", "l2", "dram"):
            ratio = model.level_bytes(level) / sim.traffic.level_bytes(level)
            assert 0.3 < ratio < 3.5, (level, ratio)

    def test_reuse_heavy_layer_has_lower_l2_share_than_pointwise(self):
        conv = ConvLayerConfig.square("c", 4, in_channels=32, in_size=28,
                                      out_channels=64, filter_size=3, padding=1)
        pointwise = ConvLayerConfig.square("p", 4, in_channels=32, in_size=28,
                                           out_channels=64, filter_size=1)
        simulator = ConvLayerSimulator(TITAN_XP, SimulatorConfig(max_ctas=60))
        conv_result = simulator.run(conv)
        pw_result = simulator.run(pointwise)
        assert conv_result.traffic.l1_miss_rate < pw_result.traffic.l1_miss_rate

    def test_row_scheduling_increases_dram_traffic(self):
        """The paper's column-wise scheduling assumption is the favourable one."""
        layer = ConvLayerConfig.square("s", 8, in_channels=16, in_size=28,
                                       out_channels=160, filter_size=3, padding=1)
        column = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=None, scheduling="column")).run(layer)
        row = ConvLayerSimulator(
            TITAN_XP, SimulatorConfig(max_ctas=None, scheduling="row")).run(layer)
        assert row.traffic.dram_bytes >= column.traffic.dram_bytes * 0.95
