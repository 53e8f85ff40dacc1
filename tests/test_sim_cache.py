"""Tests for the sector-granularity cache models (repro.sim.cache)."""

import numpy as np
import pytest

from repro.sim.cache import (CacheStats, LruCache, SetAssociativeCache,
                             SetAssociativeCacheBank)


def access(cache, sector):
    """One access: a one-sector block; True on hit."""
    return bool(cache.access_block([sector])[0])


def misses(cache, sectors):
    """Access ``sectors`` as one block; returns the number of misses."""
    return int(np.count_nonzero(~cache.access_block(list(sectors))))


class TestLruCache:
    def test_cold_miss_then_hit(self):
        cache = LruCache(capacity_bytes=1024, sector_bytes=32)
        assert access(cache, 5) is False
        assert access(cache, 5) is True
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1

    def test_capacity_in_sectors(self):
        cache = LruCache(capacity_bytes=128, sector_bytes=32)
        assert cache.capacity_sectors == 4

    def test_lru_eviction_order(self):
        cache = LruCache(capacity_bytes=4 * 32, sector_bytes=32)
        for sector in range(4):
            access(cache, sector)
        access(cache, 0)          # refresh sector 0
        access(cache, 100)        # evicts sector 1 (the LRU entry)
        assert access(cache, 0) is True
        assert access(cache, 1) is False

    def test_occupancy_never_exceeds_capacity(self):
        cache = LruCache(capacity_bytes=8 * 32, sector_bytes=32)
        for sector in range(1000):
            access(cache, sector)
        assert cache.occupancy == 8

    def test_access_many_counts_misses(self):
        cache = LruCache(capacity_bytes=1024, sector_bytes=32)
        assert misses(cache, [1, 2, 3, 1, 2, 3]) == 3
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_reset_clears_state(self):
        cache = LruCache(capacity_bytes=1024, sector_bytes=32)
        misses(cache, range(10))
        cache.reset()
        assert cache.occupancy == 0
        assert cache.stats.accesses == 0
        assert access(cache, 3) is False

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(capacity_bytes=0, sector_bytes=32)


class TestSetAssociativeCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(capacity_bytes=1024, sector_bytes=32, ways=4)
        assert access(cache, 7) is False
        assert access(cache, 7) is True

    def test_way_conflict_eviction(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 32, sector_bytes=32, ways=2)
        # num_sets = 2; sectors 0, 2, 4 all map to set 0 with 2 ways.
        access(cache, 0)
        access(cache, 2)
        access(cache, 4)           # evicts 0
        assert access(cache, 0) is False
        assert access(cache, 4) is True

    def test_fully_associative_degenerate_case(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 32, sector_bytes=32, ways=16)
        assert cache.num_sets == 1
        assert cache.ways == 4

    def test_occupancy_bounded_by_capacity(self):
        cache = SetAssociativeCache(capacity_bytes=16 * 32, sector_bytes=32, ways=4)
        for sector in range(500):
            access(cache, sector)
        assert cache.occupancy <= 16

    def test_invalid_ways_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1024, sector_bytes=32, ways=0)

    def test_reset(self):
        cache = SetAssociativeCache(capacity_bytes=1024, sector_bytes=32)
        misses(cache, range(20))
        cache.reset()
        assert cache.occupancy == 0
        assert cache.stats.accesses == 0


class TestInvalidInputs:
    """-1 is the kernels' empty-slot sentinel and every state is a dense
    array, so out-of-range indices fail closed instead of aliasing."""

    def test_set_associative_rejects_negative_sector(self):
        cache = SetAssociativeCache(256, 32, ways=8)
        with pytest.raises(ValueError, match="-1"):
            cache.access_block([-1])
        assert cache.stats.accesses == 0
        assert access(cache, 3) is False

    def test_bank_rejects_negative_sector(self):
        bank = SetAssociativeCacheBank(2, 1024, 32, ways=4)
        with pytest.raises(ValueError, match="-1"):
            bank.access_block([-1], [5])
        assert not bank.access_block([1], [5])[0]

    @pytest.mark.parametrize("cache_id", [-1, 2, 7])
    def test_bank_rejects_cache_id_out_of_range(self, cache_id):
        bank = SetAssociativeCacheBank(2, 1024, 32, ways=4)
        with pytest.raises(ValueError, match=str(cache_id)):
            bank.access_block([cache_id], [5])
        assert bank.occupancy == 0

    @pytest.mark.parametrize("sector", [-1, 10, 11])
    def test_dense_lru_rejects_sector_outside_universe(self, sector):
        cache = LruCache(1024, 32, sector_universe=10)
        with pytest.raises(ValueError, match=str(sector)):
            cache.access_block([sector])
        assert cache.stats.accesses == 0
        assert access(cache, 9) is False


class TestCacheStats:
    def test_hits_and_miss_rate(self):
        stats = CacheStats(accesses=10, misses=4)
        assert stats.hits == 6
        assert stats.miss_rate == pytest.approx(0.4)

    def test_empty_stats_miss_rate_zero(self):
        assert CacheStats().miss_rate == 0.0

    def test_merge(self):
        merged = CacheStats(10, 4).merge(CacheStats(5, 1))
        assert merged.accesses == 15
        assert merged.misses == 5


class TestStreamingBehaviour:
    def test_working_set_larger_than_cache_thrashes(self):
        cache = LruCache(capacity_bytes=64 * 32, sector_bytes=32)
        # Two sequential passes over a working set 4x the capacity: LRU keeps
        # evicting the data before it is reused, so the second pass misses too.
        working_set = list(range(256))
        misses(cache, working_set)
        second_pass_misses = misses(cache, working_set)
        assert second_pass_misses == len(working_set)

    def test_working_set_smaller_than_cache_hits(self):
        cache = LruCache(capacity_bytes=512 * 32, sector_bytes=32)
        working_set = list(range(256))
        misses(cache, working_set)
        assert misses(cache, working_set) == 0
