"""Tests for the GEMM main-loop execution streams (Section V, Eq. 11-13),
through the scalar reference model the batched grid is checked against."""

import pytest

from model_reference import bandwidth_times, compute_stream_times, cs_time, sas_time
from repro.core.traffic import TrafficModel
from repro.gpu import TESLA_V100, TITAN_XP


@pytest.fixture
def traffic(reference_conv_layer):
    return TrafficModel(gpu=TITAN_XP).estimate(reference_conv_layer)


class TestStreamTimes:
    def test_all_stream_times_positive(self, traffic):
        streams = compute_stream_times(traffic, TITAN_XP)
        assert streams.cs > 0 and streams.sas > 0 and streams.gls > 0
        assert streams.l1_bw > 0 and streams.l2_bw > 0 and streams.dram_bw > 0

    def test_gls_is_max_of_per_level_terms(self, traffic):
        streams = compute_stream_times(traffic, TITAN_XP)
        assert streams.gls == pytest.approx(
            max(streams.gls_l1, streams.gls_l2, streams.gls_dram))

    def test_gls_includes_pipeline_latency(self, traffic):
        streams = compute_stream_times(traffic, TITAN_XP)
        min_latency = TITAN_XP.lat_l1_cycles / TITAN_XP.core_clock_hz
        assert streams.gls >= min_latency

    def test_eq13_compute_time_formula(self, traffic):
        tile = traffic.grid.tile
        expected = tile.macs_per_loop / (TITAN_XP.macs_per_second / TITAN_XP.num_sm)
        assert cs_time(tile, TITAN_XP) == pytest.approx(expected)

    def test_eq12_smem_time_formula(self, traffic):
        tile = traffic.grid.tile
        store = (tile.blk_m + tile.blk_n) * tile.blk_k * 4
        load = (tile.warp_m + tile.warp_n) * tile.blk_k * tile.num_warps * 4
        expected = (store / TITAN_XP.smem_st_bw_per_sm
                    + load / TITAN_XP.smem_ld_bw_per_sm)
        assert sas_time(tile, TITAN_XP, 4) == pytest.approx(expected)

    def test_bandwidth_times_shared_across_sms(self, traffic):
        l1, l2, dram = bandwidth_times(traffic, TITAN_XP)
        # L2 and DRAM are divided among SMs, so their per-loop transfer time
        # uses the per-SM share of the device bandwidth.
        assert l2 == pytest.approx(
            traffic.l2_bytes_per_loop / (TITAN_XP.l2_bw / TITAN_XP.num_sm))
        assert dram == pytest.approx(
            traffic.dram_bytes_per_loop / (TITAN_XP.dram_bw / TITAN_XP.num_sm))
        assert l1 == pytest.approx(traffic.l1_bytes_per_loop / TITAN_XP.l1_bw_per_sm)

    def test_compute_or_smem_is_max(self, traffic):
        streams = compute_stream_times(traffic, TITAN_XP)
        assert streams.compute_or_smem == max(streams.cs, streams.sas)

    def test_cs_time_inversely_proportional_to_device_throughput(
            self, reference_conv_layer):
        traffic_xp = TrafficModel(gpu=TITAN_XP).estimate(reference_conv_layer)
        traffic_v100 = TrafficModel(gpu=TESLA_V100).estimate(reference_conv_layer)
        cs_xp = compute_stream_times(traffic_xp, TITAN_XP).cs
        cs_v100 = compute_stream_times(traffic_v100, TESLA_V100).cs
        # Device-level MAC rate implied by the per-SM CS time must match the
        # peak FLOP ratio of the two GPUs (same CTA tile on both).
        rate_xp = TITAN_XP.num_sm / cs_xp
        rate_v100 = TESLA_V100.num_sm / cs_v100
        assert rate_v100 / rate_xp == pytest.approx(
            TESLA_V100.fp32_flops / TITAN_XP.fp32_flops, rel=1e-6)
