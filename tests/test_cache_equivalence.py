"""Equivalence tests: vectorized cache kernels vs the scalar reference.

Each cache class has one access path, the batched ``access_block``.  These
tests check it against the independent OrderedDict models of LRU
replacement in ``tests/sim_reference.py``:

* one-sector blocks (one-access semantics), multi-sector blocks, and
  arbitrary interleavings of the two produce bit-identical hit masks, for
  both state forms of :class:`LruCache` (dense ``sector_universe`` array
  and dict),
* statistics stay exact under batched updates, and
* adversarial reuse patterns around the capacity boundary are classified
  exactly.

Streams are drawn with hypothesis so duplicates inside one block, repeats
across blocks, and capacity-straddling working sets all occur.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.cache import (LruCache, SetAssociativeCache,
                             SetAssociativeCacheBank)
from sim_reference import LruModel, SetAssocModel

SECTOR = 32

CACHE_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


@st.composite
def sector_streams(draw):
    """A stream plus block boundaries; small universes force heavy reuse."""
    universe = draw(st.integers(min_value=1, max_value=96))
    length = draw(st.integers(min_value=1, max_value=300))
    stream = draw(st.lists(st.integers(min_value=0, max_value=universe - 1),
                           min_size=length, max_size=length))
    num_cuts = draw(st.integers(min_value=0, max_value=5))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=length),
                                min_size=num_cuts, max_size=num_cuts)))
    return np.asarray(stream, dtype=np.int64), cuts


def run_blocks(cache, stream, cuts, single_on_odd=False):
    """Replay ``stream`` split at ``cuts``; odd blocks one sector at a time
    when ``single_on_odd``."""
    results = []
    for index, block in enumerate(np.split(stream, cuts)):
        if single_on_odd and index % 2 == 1:
            results.extend(bool(cache.access_block(block[i:i + 1])[0])
                           for i in range(block.size))
        else:
            results.extend(cache.access_block(block).tolist())
    return np.asarray(results, dtype=bool)


def run_singles(cache, stream):
    """One-access semantics: every sector in its own block."""
    return run_blocks(cache, stream, list(range(1, stream.size)))


def lru_caches(capacity, stream):
    """Both state forms: the dense sector-universe array and the dict."""
    return (LruCache(capacity * SECTOR, SECTOR,
                     sector_universe=int(stream.max()) + 1),
            LruCache(capacity * SECTOR, SECTOR))


class TestLruEquivalence:
    @given(data=sector_streams(), capacity=st.integers(1, 48))
    @CACHE_SETTINGS
    def test_block_matches_model_and_scalar(self, data, capacity):
        stream, cuts = data
        model = LruModel(capacity)
        expected = np.asarray([model.access(int(s)) for s in stream])

        for scalar in lru_caches(capacity, stream):
            assert np.array_equal(run_singles(scalar, stream), expected)

        for blocked in lru_caches(capacity, stream):
            assert np.array_equal(run_blocks(blocked, stream, cuts), expected)
            assert blocked.stats.accesses == stream.size
            assert blocked.stats.misses == int(np.count_nonzero(~expected))
            assert blocked.occupancy == len(model.entries)

    @given(data=sector_streams(), capacity=st.integers(1, 48))
    @CACHE_SETTINGS
    def test_dense_universe_path_identical(self, data, capacity):
        stream, cuts = data
        dense = LruCache(capacity * SECTOR, SECTOR,
                         sector_universe=int(stream.max()) + 1)
        sparse = LruCache(capacity * SECTOR, SECTOR)
        assert np.array_equal(run_blocks(dense, stream, cuts),
                              run_blocks(sparse, stream, cuts))

    @given(data=sector_streams(), capacity=st.integers(1, 48))
    @CACHE_SETTINGS
    def test_interleaved_scalar_and_block_calls(self, data, capacity):
        stream, cuts = data
        model = LruModel(capacity)
        expected = np.asarray([model.access(int(s)) for s in stream])
        for mixed in lru_caches(capacity, stream):
            assert np.array_equal(
                run_blocks(mixed, stream, cuts, single_on_odd=True), expected)

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    @pytest.mark.parametrize("delta", [-1, 0, 1, 8])
    def test_cyclic_working_set_at_capacity_boundary(self, capacity, delta):
        """Adversarial reuse: cyclic sweeps straddling the capacity knee."""
        working_set = capacity + delta
        if working_set <= 0:
            pytest.skip("degenerate working set")
        stream = np.tile(np.arange(working_set), 25)
        model = LruModel(capacity)
        expected = np.asarray([model.access(int(s)) for s in stream])
        cache = LruCache(capacity * SECTOR, SECTOR)
        assert np.array_equal(cache.access_block(stream), expected)
        # LRU cannot exploit cyclic reuse beyond its capacity.
        if delta > 0:
            assert not cache.access_block(np.arange(working_set)).any()

class TestSetAssociativeEquivalence:
    @given(data=sector_streams(), ways=st.integers(1, 8),
           sets=st.integers(1, 12))
    @CACHE_SETTINGS
    def test_block_matches_model_and_scalar(self, data, ways, sets):
        stream, cuts = data
        cache = SetAssociativeCache(sets * ways * SECTOR, SECTOR, ways=ways)
        model = SetAssocModel(cache.num_sets, cache.ways)
        expected = np.asarray([model.access(int(s)) for s in stream])

        scalar = SetAssociativeCache(sets * ways * SECTOR, SECTOR, ways=ways)
        assert np.array_equal(run_singles(scalar, stream), expected)

        assert np.array_equal(run_blocks(cache, stream, cuts), expected)
        assert cache.stats.accesses == stream.size
        assert cache.stats.misses == int(np.count_nonzero(~expected))

    @given(data=sector_streams(), ways=st.integers(1, 8),
           sets=st.integers(1, 12))
    @CACHE_SETTINGS
    def test_interleaved_scalar_and_block_calls(self, data, ways, sets):
        stream, cuts = data
        cache = SetAssociativeCache(sets * ways * SECTOR, SECTOR, ways=ways)
        model = SetAssocModel(cache.num_sets, cache.ways)
        expected = np.asarray([model.access(int(s)) for s in stream])
        assert np.array_equal(
            run_blocks(cache, stream, cuts, single_on_odd=True), expected)

    @pytest.mark.parametrize("ways", [1, 2, 8])
    def test_way_conflict_thrash(self, ways):
        """Adversarial: a conflict set one larger than the ways thrashes."""
        cache = SetAssociativeCache(4 * ways * SECTOR, SECTOR, ways=ways)
        conflict = np.arange(ways + 1) * cache.num_sets  # all map to set 0
        stream = np.tile(conflict, 20)
        model = SetAssocModel(cache.num_sets, cache.ways)
        expected = np.asarray([model.access(int(s)) for s in stream])
        assert np.array_equal(cache.access_block(stream), expected)
        assert not expected[ways + 1:].any()  # pure miss thrash

class TestCacheBank:
    @given(data=sector_streams(), ways=st.integers(1, 4),
           sets=st.integers(1, 6), num_caches=st.integers(1, 4))
    @CACHE_SETTINGS
    def test_bank_matches_independent_caches(self, data, ways, sets,
                                             num_caches):
        stream, cuts = data
        capacity = sets * ways * SECTOR
        rng = np.random.default_rng(stream.size)
        owners = rng.integers(0, num_caches, stream.size)

        bank = SetAssociativeCacheBank(num_caches, capacity, SECTOR,
                                       ways=ways)
        models = [SetAssocModel(bank.num_sets, bank.ways)
                  for _ in range(num_caches)]
        expected = np.asarray([models[int(c)].access(int(s))
                               for c, s in zip(owners, stream)])

        got = np.concatenate(
            [bank.access_block(owner_block, block)
             for owner_block, block in zip(np.split(owners, cuts),
                                           np.split(stream, cuts))])
        assert np.array_equal(got, expected)
        assert bank.stats.accesses == stream.size
        assert bank.stats.misses == int(np.count_nonzero(~expected))

    def test_bank_rejects_mismatched_lengths(self):
        bank = SetAssociativeCacheBank(2, 1024, SECTOR)
        with pytest.raises(ValueError):
            bank.access_block([0], [1, 2])
