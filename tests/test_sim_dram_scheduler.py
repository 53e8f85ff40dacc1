"""Tests for the DRAM channel model and the CTA scheduler."""

import dataclasses
import tracemalloc

import pytest

from repro.core.layer import ConvLayerConfig
from repro.core.tiling import build_grid
from repro.gpu import TITAN_XP
from repro.sim.dram import DramChannel
from repro.sim.scheduler import CtaScheduler


class TestDramChannel:
    def test_byte_accounting(self):
        channel = DramChannel(TITAN_XP)
        assert channel.bytes_read == 0
        channel.read(1000)
        channel.read(500)
        assert channel.bytes_read == 1500

    def test_negative_bytes_rejected(self):
        channel = DramChannel(TITAN_XP)
        with pytest.raises(ValueError):
            channel.read(-1)
        assert channel.bytes_read == 0

    def test_unloaded_latency_is_flat(self):
        channel = DramChannel(TITAN_XP)
        idle = channel.latency_cycles(0.0)
        light = channel.latency_cycles(0.05 * TITAN_XP.dram_bw)
        assert idle == pytest.approx(TITAN_XP.lat_dram_cycles)
        assert light == pytest.approx(idle, rel=0.05)

    def test_latency_explodes_near_saturation(self):
        channel = DramChannel(TITAN_XP)
        half = channel.latency_cycles(0.5 * TITAN_XP.dram_bw)
        near = channel.latency_cycles(0.99 * TITAN_XP.dram_bw)
        assert near > 2 * half
        assert near > 2 * TITAN_XP.lat_dram_cycles

    def test_latency_monotonic_in_load(self):
        channel = DramChannel(TITAN_XP)
        loads = [f * TITAN_XP.dram_bw for f in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
        latencies = [channel.latency_cycles(load) for load in loads]
        assert latencies == sorted(latencies)


@pytest.fixture
def grid():
    layer = ConvLayerConfig.square("sched", 8, in_channels=32, in_size=28,
                                   out_channels=192, filter_size=3, padding=1)
    return build_grid(layer)


def launch_order(grid, order):
    """(cta_m, cta_n) of every CTA in launch order, read off the waves."""
    scheduler = CtaScheduler(grid, TITAN_XP, order=order)
    return [(m, n) for wave in scheduler.waves() for _, m, n in wave.ctas]


class TestCtaOrder:
    def test_column_order_walks_rows_first(self, grid):
        order = launch_order(grid, "column")
        assert order[0] == (0, 0)
        assert order[1] == (1, 0)
        assert order[grid.ctas_m] == (0, 1)
        assert len(order) == grid.num_ctas

    def test_row_order_walks_columns_first(self, grid):
        order = launch_order(grid, "row")
        assert order[0] == (0, 0)
        assert order[1] == (0, 1)

    def test_unknown_order_rejected(self, grid):
        with pytest.raises(ValueError):
            launch_order(grid, "diagonal")


class TestCtaScheduler:
    def test_round_robin_sm_assignment(self, grid):
        scheduler = CtaScheduler(grid, TITAN_XP)
        scheduled = [cta for wave in scheduler.waves() for cta in wave.ctas]
        sms = [sm for sm, _, _ in scheduled]
        assert sms == [index % TITAN_XP.num_sm
                       for index in range(grid.num_ctas)]

    def test_waves_cover_all_ctas_exactly_once(self, grid):
        scheduler = CtaScheduler(grid, TITAN_XP)
        seen = []
        for wave in scheduler.waves():
            seen.extend((m, n) for _, m, n in wave.ctas)
        assert len(seen) == grid.num_ctas
        assert len(set(seen)) == grid.num_ctas

    def test_wave_size_is_active_ctas_times_sms(self, grid):
        scheduler = CtaScheduler(grid, TITAN_XP)
        assert scheduler.wave_size == (scheduler.active_ctas_per_sm
                                       * TITAN_XP.num_sm)
        first_wave = next(iter(scheduler.waves()))
        assert first_wave.num_ctas <= scheduler.wave_size

    def test_max_waves_limit(self, grid):
        scheduler = CtaScheduler(grid, TITAN_XP)
        limited = list(scheduler.waves(max_waves=2))
        assert len(limited) == min(2, scheduler.num_waves)

    def test_first_wave_of_a_huge_grid_does_not_build_the_schedule(self):
        # batch 10**6 gives 562,500 CTAs; the engine simulates a few, so
        # the first wave must arrive without materializing the others.
        layer = ConvLayerConfig.square("huge", 10**6, in_channels=256,
                                       in_size=6, out_channels=256,
                                       filter_size=1)
        scheduler = CtaScheduler(build_grid(layer), TITAN_XP)
        assert scheduler.grid.num_ctas == 562_500
        tracemalloc.start()
        try:
            wave = next(iter(scheduler.waves()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        num_sm = TITAN_XP.num_sm
        assert wave.ctas == tuple((i % num_sm, i, 0)
                                  for i in range(scheduler.wave_size))

    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("order", ["column", "row"])
    def test_waves_slice_the_launch_order(self, grid, groups, order):
        # the launch order spelled out with nested loops: instances back to
        # back, each walked column-wise (or row-wise), offset per instance.
        grid = dataclasses.replace(grid, groups=groups)
        if order == "column":
            per_group = [(m, n) for n in range(grid.ctas_n)
                         for m in range(grid.ctas_m)]
        else:
            per_group = [(m, n) for m in range(grid.ctas_m)
                         for n in range(grid.ctas_n)]
        coords = [(g * grid.ctas_m + m, g * grid.ctas_n + n)
                  for g in range(groups) for m, n in per_group]
        scheduled = [(index % TITAN_XP.num_sm, m, n)
                     for index, (m, n) in enumerate(coords)]
        scheduler = CtaScheduler(grid, TITAN_XP, order=order)
        size = scheduler.wave_size
        assert [wave.ctas for wave in scheduler.waves()] == [
            tuple(scheduled[start:start + size])
            for start in range(0, len(scheduled), size)]

    def test_per_sm_grouping(self, grid):
        scheduler = CtaScheduler(grid, TITAN_XP)
        wave = next(iter(scheduler.waves()))
        groups = wave.per_sm()
        assert sum(len(ctas) for ctas in groups.values()) == wave.num_ctas
        assert all(0 <= sm < TITAN_XP.num_sm for sm in groups)
