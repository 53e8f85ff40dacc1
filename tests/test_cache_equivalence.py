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
  exactly, and
* the set-associative kernel's per-set MRU-first rows equal the model's
  recency order, on engine-shaped banks, long-gap one-set streams and
  sector/set ranges that overflow its packed sort keys.

Streams are drawn with hypothesis so duplicates inside one block, repeats
across blocks, and capacity-straddling working sets all occur.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import cache as cache_module
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


def assert_rows_match(rows, models, num_sets):
    """Kernel state invariants against the OrderedDict models: each row is
    its set's lines most recently used first (so tags are unique per row),
    -1 appears only as end padding, and the occupancy matches."""
    expected = np.full_like(rows, -1)
    for cache_index, model in enumerate(models):
        for set_index, entries in enumerate(model.sets):
            mru_first = list(reversed(entries))
            expected[cache_index * num_sets + set_index,
                     :len(mru_first)] = mru_first
    empty = rows < 0
    assert not (empty[:, :-1] & ~empty[:, 1:]).any(), "-1 before a tag"
    ordered = np.sort(rows, axis=1)
    assert not ((ordered[:, 1:] == ordered[:, :-1])
                & (ordered[:, 1:] >= 0)).any(), "repeated tag in a row"
    assert np.array_equal(rows, expected)
    assert int(np.count_nonzero(rows >= 0)) == sum(
        len(entries) for model in models for entries in model.sets)


def engine_block(rng, num_caches, num_segments, universe):
    """One engine-shaped L1 block: per-segment sorted, deduplicated sector
    runs (a tile's strided rows) owned by one cache each."""
    owners, sectors = [], []
    for _ in range(num_segments):
        base = int(rng.integers(0, universe))
        rows = int(rng.integers(1, 9))
        stride = int(rng.integers(1, 400))
        width = int(rng.integers(1, 33))
        run = np.unique((base + np.arange(rows)[:, None] * stride
                         + np.arange(width)[None, :]).ravel())
        owners.append(np.full(run.size, rng.integers(0, num_caches)))
        sectors.append(run)
    return np.concatenate(owners), np.concatenate(sectors)


class TestStackDistanceKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_engine_shaped_bank_blocks(self, seed):
        rng = np.random.default_rng(seed)
        num_caches, ways, sets = 6, 4, 192
        bank = SetAssociativeCacheBank(num_caches, sets * ways * SECTOR,
                                       SECTOR, ways=ways)
        assert bank.num_sets == sets
        models = [SetAssocModel(bank.num_sets, bank.ways)
                  for _ in range(num_caches)]
        for _ in range(5):
            owners, sectors = engine_block(rng, num_caches, 220, 40000)
            assert sectors.size >= 2000
            expected = np.asarray([models[int(c)].access(int(s))
                                   for c, s in zip(owners, sectors)])
            assert np.array_equal(bank.access_block(owners, sectors),
                                  expected)
            assert_rows_match(bank._rows, models, bank.num_sets)
        assert bank.occupancy == sum(len(entries) for model in models
                                     for entries in model.sets)

    @pytest.mark.parametrize("universe,length", [(6, 1500), (7, 20000),
                                                 (40, 20000)])
    def test_one_set_long_reuse_gaps(self, universe, length, monkeypatch):
        """A single set sees long stretches between reuses, so repeats need
        the exact distinct-line count (windowed and dyadic paths)."""
        counted = []
        original = cache_module._count_reuses_within

        def spy(prev, starts, stops):
            counted.append(starts.size)
            return original(prev, starts, stops)

        monkeypatch.setattr(cache_module, "_count_reuses_within", spy)
        rng = np.random.default_rng(universe)
        ways = 4
        cache = SetAssociativeCache(ways * SECTOR, SECTOR, ways=ways)
        assert cache.num_sets == 1
        model = SetAssocModel(1, ways)
        # hot phases over a few lines, broken by bursts of fresh lines.
        stream = rng.integers(0, universe, length)
        bursts = rng.integers(0, length, 8)
        stream[bursts] = universe + np.arange(bursts.size)
        expected = np.asarray([model.access(int(s)) for s in stream])
        got = np.concatenate([cache.access_block(block) for block in
                              np.array_split(stream, 3)])
        assert np.array_equal(got, expected)
        assert_rows_match(cache._rows, [model], 1)
        assert sum(counted) > 0

    def test_reuse_spanning_a_block(self):
        ways = 8
        cache = SetAssociativeCache(ways * SECTOR, SECTOR, ways=ways)
        model = SetAssocModel(1, ways)
        stream = np.concatenate([[10 ** 6], np.arange(19998) % 5,
                                 [10 ** 6], np.arange(30, 45)])
        expected = np.asarray([model.access(int(s)) for s in stream])
        assert np.array_equal(cache.access_block(stream), expected)
        assert expected[19999]
        assert_rows_match(cache._rows, [model], 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_keys_fall_back_to_lexsort(self, seed, monkeypatch):
        """Sectors from 2**40 up to 2**61 in a bank of over 2**16 sets: a
        sector and a block position no longer pack into one int64 key."""
        calls = []
        original = np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(len(keys))
            return original(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        rng = np.random.default_rng(seed)
        num_caches, ways, sets = 3, 2, 1 << 15
        bank = SetAssociativeCacheBank(num_caches, sets * ways * SECTOR,
                                       SECTOR, ways=ways)
        assert num_caches * bank.num_sets > 1 << 16
        models = [SetAssocModel(bank.num_sets, bank.ways)
                  for _ in range(num_caches)]
        # five tags, 2**40 to 2**60, on each of 16 scattered sets: constant
        # way conflicts between lines that differ only in their high bits.
        tags = np.int64(1) << (40 + 5 * rng.integers(0, 5, 80))
        lines = tags + rng.choice(sets, 16, replace=False)[np.arange(80) % 16]
        for _ in range(4):
            sectors = rng.choice(lines, 600)
            owners = rng.integers(0, num_caches, sectors.size)
            expected = np.asarray([models[int(c)].access(int(s))
                                   for c, s in zip(owners, sectors)])
            assert np.array_equal(bank.access_block(owners, sectors),
                                  expected)
        assert calls, "the packed-key path ran instead of np.lexsort"
        assert_rows_match(bank._rows, models, bank.num_sets)

    @given(data=sector_streams(), ways=st.integers(1, 8),
           sets=st.integers(1, 12))
    @CACHE_SETTINGS
    def test_rows_are_the_model_recency_order(self, data, ways, sets):
        stream, cuts = data
        cache = SetAssociativeCache(sets * ways * SECTOR, SECTOR, ways=ways)
        model = SetAssocModel(cache.num_sets, cache.ways)
        for block in np.split(stream, cuts):
            for sector in block:
                model.access(int(sector))
            cache.access_block(block)
            assert_rows_match(cache._rows, [model], cache.num_sets)
        assert cache.occupancy == sum(len(e) for e in model.sets)


def brute_reuses_within(prev, starts, stops):
    return np.asarray([sum(1 for r in range(a + 1, b) if prev[r] > a)
                       for a, b in zip(starts, stops)])


@pytest.mark.parametrize("universe,length", [(5, 300), (9, 6000)])
def test_count_reuses_within_matches_brute_force(universe, length):
    """Both counting paths: the windowed broadcast for a short block, the
    dyadic dominance count once queries times width outgrow it."""
    rng = np.random.default_rng(length)
    stream = rng.integers(0, universe, length)
    last = {}
    prev = np.full(length, -1, dtype=np.int64)
    for index, line in enumerate(stream.tolist()):
        prev[index] = last.get(line, -1)
        last[line] = index
    stops = np.flatnonzero(prev >= 0)
    starts = prev[stops]
    dyadic = (stops.size * int((stops - starts - 1).max())
              > 4 * length + cache_module._WINDOW_CHUNK)
    assert dyadic == (length > 1000)
    assert np.array_equal(
        cache_module._count_reuses_within(prev, starts, stops),
        brute_reuses_within(prev, starts, stops))
