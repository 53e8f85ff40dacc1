"""Sector-granularity cache models used by the simulator substrate.

Two replacement organizations are provided:

* :class:`LruCache` — fully associative LRU over sectors.  This is the fast
  default used for the large L2 simulations; GPU L2 caches are highly
  associative and indexed with address hashing, so a fully associative LRU is
  a close (slightly optimistic) approximation.
* :class:`SetAssociativeCache` — classic set-indexed LRU with a configurable
  number of ways, used for the per-SM L1 caches and available as an ablation
  for L2.

Both operate on integer *sector indices* (byte address // sector size) and
report hit/miss statistics.  Each cache has one access path,
``access_block(sectors)``: a vectorized kernel that classifies a whole
sector array per call, in order, and returns the boolean hit mask.  Its
decisions match an access-by-access LRU replay exactly; the test oracle
(``tests/sim_reference.py``) holds that replay as OrderedDict models that
share no code with these kernels (see tests/test_cache_equivalence.py).

The fully associative LRU uses a timestamp formulation: every access stamps
its sector with a fresh global timestamp, the cache contents are exactly the
``capacity`` most recently stamped distinct sectors, and an access hits iff
fewer than ``capacity`` live timestamps exceed the sector's previous stamp
(its reuse/stack distance is below capacity).  Because the stamp evolution is
independent of hit outcomes, a whole block can be classified with array
order-statistics instead of per-sector pointer churn.  The set-associative
cache keeps per-set ``(tag, stamp)`` way arrays and replays a block as a
short sequence of rounds, each round touching every referenced set at once.

:class:`SetAssociativeCacheBank` runs many independent set-associative caches
(e.g. one L1 per SM) through a single kernel invocation per block.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..obs.metrics import StatsView

#: block-access chunk bound: limits the worst-case quadratic work of the
#: within-block tie-break corrections (only adversarial streams hit it).
_BLOCK_CHUNK = 8192

class CacheStats(StatsView):
    """Access statistics of one cache instance.

    A registry-backed view (``repro_cache_*`` counters in ``registry``);
    the public attribute API is unchanged.
    """

    _AREA = "cache"
    _FIELDS = {
        "accesses": "sector accesses observed by this cache instance",
        "misses": "sector accesses that missed in this cache instance",
    }

    def __init__(self, accesses: int = 0, misses: int = 0) -> None:
        super().__init__(accesses=accesses, misses=misses)

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(accesses=self.accesses + other.accesses,
                          misses=self.misses + other.misses)

    def record_block(self, accesses: int, misses: int) -> None:
        """Fold a whole block's counts in at once (batched update)."""
        if accesses < 0 or misses < 0 or misses > accesses:
            raise ValueError("invalid block stats")
        self.accesses += accesses
        self.misses += misses


def _as_sector_array(sectors) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(sectors, dtype=np.int64)).ravel()


def _count_earlier_greater(values: np.ndarray,
                           query_positions: np.ndarray) -> np.ndarray:
    """For each query position q, count i < q with values[i] > values[q].

    Row-chunked O(n_query * n) broadcast; callers bound ``n`` via
    :data:`_BLOCK_CHUNK` so the worst case stays small.
    """
    n = values.size
    positions = np.arange(n)
    out = np.empty(query_positions.size, dtype=np.int64)
    row_chunk = max(1, (1 << 22) // max(n, 1))
    for start in range(0, query_positions.size, row_chunk):
        q = query_positions[start:start + row_chunk]
        mask = (values[np.newaxis, :] > values[q][:, np.newaxis]) \
            & (positions[np.newaxis, :] < q[:, np.newaxis])
        out[start:start + row_chunk] = mask.sum(axis=1)
    return out


class LruCache:
    """Fully associative LRU cache over sector indices.

    ``sector_universe`` optionally declares a dense upper bound on sector
    indices; when given, the sector -> timestamp map is a flat array (the
    fast path the simulator uses), otherwise a dict is used so arbitrary
    sector values work.
    """

    def __init__(self, capacity_bytes: int, sector_bytes: int,
                 sector_universe: Optional[int] = None) -> None:
        if capacity_bytes <= 0 or sector_bytes <= 0:
            raise ValueError("capacity and sector size must be positive")
        if sector_universe is not None and sector_universe <= 0:
            raise ValueError("sector universe must be positive")
        self.capacity_sectors = max(1, capacity_bytes // sector_bytes)
        self.sector_bytes = sector_bytes
        self.stats = CacheStats()
        self._universe = sector_universe
        self._reset_state()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._time = 0
        self._seen = 0
        if self._universe is not None:
            self._last_use_arr: Optional[np.ndarray] = np.full(
                self._universe, -1, dtype=np.int64)
            self._last_use: Optional[Dict[int, int]] = None
        else:
            self._last_use_arr = None
            self._last_use = {}
        #: sorted live timestamps among t < _snap_time (snapshot).
        self._snap = np.empty(0, dtype=np.int64)
        self._snap_time = 0
        #: sorted timestamps retired since the snapshot (both ranges).
        self._removed = np.empty(0, dtype=np.int64)

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return min(self._seen, self.capacity_sectors)

    # ------------------------------------------------------------------
    # sector -> last-stamp map
    # ------------------------------------------------------------------
    def _lookup_block(self, sectors: np.ndarray) -> np.ndarray:
        if self._last_use_arr is not None:
            return self._last_use_arr[sectors]
        get = self._last_use.get
        return np.fromiter((get(int(s), -1) for s in sectors),
                           dtype=np.int64, count=sectors.size)

    def _store_block(self, sectors: np.ndarray, stamps: np.ndarray) -> None:
        if self._last_use_arr is not None:
            self._last_use_arr[sectors] = stamps
        else:
            store = self._last_use
            for sector, stamp in zip(sectors.tolist(), stamps.tolist()):
                store[sector] = stamp

    # ------------------------------------------------------------------
    # Live-timestamp order statistics
    # ------------------------------------------------------------------
    def _maybe_rebuild(self) -> None:
        if self._removed.size <= max(2048, self._snap.size // 2):
            return
        live = np.concatenate(
            [self._snap,
             np.arange(self._snap_time, self._time, dtype=np.int64)])
        if self._removed.size:
            keep = np.ones(live.size, dtype=bool)
            keep[np.searchsorted(live, self._removed)] = False
            live = live[keep]
        self._snap = live
        self._snap_time = self._time
        self._removed = np.empty(0, dtype=np.int64)

    def _live_above(self, stamps: np.ndarray) -> np.ndarray:
        """Number of live timestamps strictly greater than each value."""
        count = (self._snap.size
                 - np.searchsorted(self._snap, stamps, side="right"))
        count = count + np.maximum(
            self._time - np.maximum(stamps + 1, self._snap_time), 0)
        if self._removed.size:
            count = count - (self._removed.size - np.searchsorted(
                self._removed, stamps, side="right"))
        return count

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access_block(self, sectors) -> np.ndarray:
        """Access a whole sector array; returns the boolean hit mask.

        Equivalent to accessing the sectors one at a time, in order, but
        vectorized.  Duplicate sectors within the block are handled exactly.
        """
        sectors = _as_sector_array(sectors)
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        if sectors.size <= _BLOCK_CHUNK:
            hits = self._access_block_chunk(sectors)
        else:
            parts = [self._access_block_chunk(sectors[start:start + _BLOCK_CHUNK])
                     for start in range(0, sectors.size, _BLOCK_CHUNK)]
            hits = np.concatenate(parts)
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def _access_block_chunk(self, sectors: np.ndarray) -> np.ndarray:
        n = sectors.size
        cap = self.capacity_sectors
        start_time = self._time
        prev_state = self._lookup_block(sectors)

        # Previous occurrence of each sector *within* the block.
        order = np.argsort(sectors, kind="stable")
        sorted_sectors = sectors[order]
        same_as_prev = np.empty(n, dtype=bool)
        same_as_prev[0] = False
        same_as_prev[1:] = sorted_sectors[1:] == sorted_sectors[:-1]
        prev_in_block = np.full(n, -1, dtype=np.int64)
        if same_as_prev.any():
            repeat_sorted = np.flatnonzero(same_as_prev)
            prev_in_block[order[repeat_sorted]] = order[repeat_sorted - 1]

        positions = np.arange(n, dtype=np.int64)
        is_repeat = prev_in_block >= 0
        is_known_first = ~is_repeat & (prev_state >= 0)
        repeats_before = np.cumsum(is_repeat) - is_repeat
        hits = np.zeros(n, dtype=bool)

        # --- repeats: at most (gap) distinct stamps can sit above the
        # within-block previous stamp, so a short gap is a guaranteed hit.
        if is_repeat.any():
            repeat_pos = positions[is_repeat]
            repeat_prev = prev_in_block[is_repeat]
            gap = repeat_pos - 1 - repeat_prev
            easy = gap < cap
            hits[repeat_pos[easy]] = True
            hard = np.flatnonzero(~easy)
            if hard.size:
                # exact: subtract block stamps already retired by an even
                # earlier repeat of another sector.
                retired = _count_earlier_greater(repeat_prev, hard)
                hits[repeat_pos[hard]] = (gap[hard] - retired) < cap

        # --- first occurrences of sectors the cache has seen before.
        if is_known_first.any():
            first_pos = positions[is_known_first]
            prev_stamps = prev_state[is_known_first]
            live0 = self._live_above(prev_stamps)
            # Stamps added by the block before each position, minus block
            # stamps already retired within the block.
            base = live0 + (first_pos - repeats_before[first_pos])
            known_before = np.cumsum(is_known_first) - is_known_first
            max_retired = known_before[first_pos]
            sure_hit = base < cap
            hits[first_pos[sure_hit]] = True
            ambiguous = np.flatnonzero(~sure_hit & (base - max_retired < cap))
            if ambiguous.size:
                # exact: earlier known-firsts retired their state stamps; only
                # those above ours shrink the count.
                retired = _count_earlier_greater(prev_stamps, ambiguous)
                hits[first_pos[ambiguous]] = (base[ambiguous] - retired) < cap

        # --- state update (stamp evolution is independent of hit results).
        retired_state = prev_state[is_known_first]
        retired_block = start_time + prev_in_block[is_repeat]
        if retired_state.size or retired_block.size:
            self._removed = np.concatenate(
                [self._removed, retired_state, retired_block])
            self._removed.sort()
        is_last_sorted = np.empty(n, dtype=bool)
        is_last_sorted[:-1] = sorted_sectors[1:] != sorted_sectors[:-1]
        is_last_sorted[-1] = True
        last_positions = order[is_last_sorted]
        self._store_block(sectors[last_positions], start_time + last_positions)
        self._seen += int(np.count_nonzero(~is_repeat & (prev_state < 0)))
        self._time = start_time + n
        self._maybe_rebuild()
        return hits


def _set_lru_block(state: np.ndarray, ways: int, set_index: np.ndarray,
                   sectors: np.ndarray, start_time: int) -> np.ndarray:
    """Replay a block through per-set LRU way arrays; returns the hit mask.

    ``state`` is a (total_sets, 2 * ways) array updated in place — tags in
    the first ``ways`` columns, recency stamps in the rest (one gather serves
    both).  The block is processed in rounds: round ``r`` handles the r-th
    access of every referenced set simultaneously, so rounds are bounded by
    the most-touched set rather than the block length.
    """
    n = sectors.size
    order = np.argsort(set_index, kind="stable")
    sorted_sets = set_index[order]
    run_start_mask = np.empty(n, dtype=bool)
    run_start_mask[0] = True
    run_start_mask[1:] = sorted_sets[1:] != sorted_sets[:-1]
    run_starts = np.flatnonzero(run_start_mask)
    run_lengths = np.diff(np.append(run_starts, n))
    rank_sorted = np.arange(n, dtype=np.int64) - np.repeat(run_starts,
                                                           run_lengths)
    # Group original positions by round so each round is a plain slice.
    by_rank = np.argsort(rank_sorted, kind="stable")
    round_positions = order[by_rank]
    round_bounds = np.searchsorted(rank_sorted[by_rank],
                                   np.arange(int(run_lengths.max()) + 1))
    rows_grouped = set_index[round_positions]
    values_grouped = sectors[round_positions]
    stamps_grouped = start_time + round_positions
    hits_grouped = np.empty(n, dtype=bool)
    for rank in range(round_bounds.size - 1):
        lo, hi = round_bounds[rank], round_bounds[rank + 1]
        rows = rows_grouped[lo:hi]      # unique sets within a round
        values = values_grouped[lo:hi]
        gathered = state[rows]
        matches = gathered[:, :ways] == values[:, np.newaxis]
        hit = matches.any(axis=1)
        hits_grouped[lo:hi] = hit
        way = np.where(hit, matches.argmax(axis=1),
                       gathered[:, ways:].argmin(axis=1))
        state[rows, way] = values
        state[rows, ways + way] = stamps_grouped[lo:hi]
    hits = np.empty(n, dtype=bool)
    hits[round_positions] = hits_grouped
    return hits


class SetAssociativeCache:
    """Set-associative LRU cache over sector indices."""

    def __init__(self, capacity_bytes: int, sector_bytes: int, ways: int = 8) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        if capacity_bytes <= 0 or sector_bytes <= 0:
            raise ValueError("capacity and sector size must be positive")
        total_sectors = max(1, capacity_bytes // sector_bytes)
        self.ways = min(ways, total_sectors)
        self.num_sets = max(1, total_sectors // self.ways)
        self.sector_bytes = sector_bytes
        self.stats = CacheStats()
        self._reset_state()

    def _reset_state(self) -> None:
        # tags in columns [:ways], recency stamps in columns [ways:].
        self._state = np.full((self.num_sets, 2 * self.ways), -1,
                              dtype=np.int64)
        self._time = 0

    def access_block(self, sectors) -> np.ndarray:
        """Access a whole sector array; returns the boolean hit mask."""
        sectors = _as_sector_array(sectors)
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        set_index = sectors % self.num_sets
        hits = _set_lru_block(self._state, self.ways, set_index, sectors,
                              self._time)
        self._time += sectors.size
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return int(np.count_nonzero(self._state[:, :self.ways] >= 0))


class SetAssociativeCacheBank:
    """A bank of independent set-associative caches sharing one kernel.

    The simulator keeps one private L1 per SM; classifying every SM's tile
    accesses in a single :meth:`access_block` call amortizes the kernel cost
    across the whole wave instead of paying it per cache.
    """

    def __init__(self, num_caches: int, capacity_bytes: int,
                 sector_bytes: int, ways: int = 8) -> None:
        if num_caches <= 0:
            raise ValueError("num_caches must be positive")
        template = SetAssociativeCache(capacity_bytes, sector_bytes, ways=ways)
        self.num_caches = num_caches
        self.ways = template.ways
        self.num_sets = template.num_sets
        self.sector_bytes = sector_bytes
        self.stats = CacheStats()
        self._reset_state()

    def _reset_state(self) -> None:
        total_sets = self.num_caches * self.num_sets
        self._state = np.full((total_sets, 2 * self.ways), -1, dtype=np.int64)
        self._time = 0

    def access_block(self, cache_ids, sectors) -> np.ndarray:
        """Access ``sectors[i]`` in cache ``cache_ids[i]``; returns hit mask."""
        sectors = _as_sector_array(sectors)
        cache_ids = _as_sector_array(cache_ids)
        if cache_ids.size != sectors.size:
            raise ValueError("cache_ids and sectors must have equal length")
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        set_index = cache_ids * self.num_sets + sectors % self.num_sets
        hits = _set_lru_block(self._state, self.ways, set_index, sectors,
                              self._time)
        self._time += sectors.size
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return int(np.count_nonzero(self._state[:, :self.ways] >= 0))
