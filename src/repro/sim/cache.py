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
order-statistics instead of per-sector pointer churn.

The set-associative cache uses the same inclusion property per set
(Mattson et al., 1970): a line is resident iff fewer than ``ways`` distinct
lines of its set were used since its last use.  Its state is one row of
tags per set in most-recently-used-first order, padded with -1, and a
block is classified in one pass from each access's previous use (see
:func:`_stack_lru_block`) instead of being replayed access by access.

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

#: elements per chunk of the set-associative kernel's windowed reuse count.
_WINDOW_CHUNK = 1 << 16

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


def _check_range(values: np.ndarray, what: str,
                 bound: Optional[int] = None) -> None:
    """Fail closed on a value below 0 or at/above ``bound`` (when given):
    -1 is the kernels' empty-slot sentinel, and an index past the dense
    state would land in another sector's or another cache's slot."""
    low = int(values.min())
    if low < 0:
        raise ValueError(f"negative {what} {low}")
    if bound is not None:
        high = int(values.max())
        if high >= bound:
            raise ValueError(f"{what} {high} outside [0, {bound})")


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
        _check_range(sectors, "sector index", self._universe)
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


def _stable_order(values: np.ndarray) -> np.ndarray:
    """A stable argsort of non-negative int64 ``values``.

    Each value and its position are packed into one int64 key when their bit
    widths fit: sorting one key is about twice as fast as a stable argsort.
    Where the packed key could overflow int64 the order comes from
    :func:`numpy.lexsort` instead.
    """
    position_bits = max(1, (values.size - 1).bit_length())
    if int(values.max()).bit_length() + position_bits > 63:
        return np.lexsort((values,))
    key = (values << position_bits) | np.arange(values.size, dtype=np.int64)
    key.sort()
    return key & ((1 << position_bits) - 1)


def _count_reuses_within(prev: np.ndarray, starts: np.ndarray,
                         stops: np.ndarray) -> np.ndarray:
    """For each window ``(starts[i], stops[i])`` (both exclusive), count the
    accesses ``r`` inside it whose previous use ``prev[r]`` is inside too.

    Those are the window's accesses that add no new distinct line, so the
    window holds ``stops - starts - 1 - count`` distinct lines.  ``prev`` is
    -1 for an access with no earlier use, and ``prev[r] > starts[i]`` already
    implies ``r > starts[i]``.  Short windows use a row-chunked broadcast
    over window offsets; when that would exceed a few passes over the block,
    a dyadic decomposition of ``[0, stop)`` counts with one sort per level,
    O(n log^2 n) time in O(n) memory.
    """
    width = int((stops - starts).max()) - 1
    if stops.size * width <= 4 * prev.size + _WINDOW_CHUNK:
        out = np.empty(stops.size, dtype=np.int64)
        offsets = np.arange(1, width + 1, dtype=np.int64)
        rows = max(1, _WINDOW_CHUNK // max(width, 1))
        for lo in range(0, stops.size, rows):
            stop = stops[lo:lo + rows, np.newaxis]
            start = starts[lo:lo + rows, np.newaxis]
            inside = stop - offsets
            reused = prev[np.maximum(inside, 0)] > start
            out[lo:lo + rows] = reused.sum(axis=1)
        return out
    # dominance count: #{r < stop : prev[r] > start}.  Keys pack
    # (r >> level, prev[r]) into 2 * bit_length(n) bits, which fits int64
    # for any block below 2**31 accesses.
    points = np.flatnonzero(prev >= 0)
    values = prev[points]
    value_bits = max(1, (prev.size - 1).bit_length())
    out = np.zeros(stops.size, dtype=np.int64)
    for level in range(int(stops.max()).bit_length()):
        take = np.flatnonzero((stops >> level) & 1)
        if take.size == 0:
            continue
        keys = np.sort(((points >> level) << value_bits) | values)
        block = (stops[take] >> level) - 1
        out[take] += (np.searchsorted(keys, (block + 1) << value_bits)
                      - np.searchsorted(keys, (block << value_bits)
                                        | starts[take], side="right"))
    return out


def _count_lower_ranked(groups: np.ndarray, ranks: np.ndarray,
                        queries: np.ndarray, ways: int) -> np.ndarray:
    """For each query index ``q`` into ``groups``/``ranks`` (grouped, in
    access order), count earlier entries of the same group with a lower
    rank.  A group holds at most ``ways`` entries, so ``ways - 1`` offsets
    reach all of them."""
    earlier = queries[:, np.newaxis] - np.arange(1, ways, dtype=np.int64)
    valid = earlier >= 0
    earlier = np.maximum(earlier, 0)
    valid &= groups[earlier] == groups[queries, np.newaxis]
    valid &= ranks[earlier] < ranks[queries, np.newaxis]
    return valid.sum(axis=1)


def _stack_lru_block(rows: np.ndarray, sets: np.ndarray,
                     sectors: np.ndarray) -> np.ndarray:
    """Classify a block through per-set LRU rows; returns the hit mask.

    ``rows`` is a (total_sets, ways) array of tags in most-recently-used
    first order, padded with -1 at the end, updated in place.  By LRU's
    inclusion property a line is resident iff fewer than ``ways`` distinct
    lines of its set were used since its last use, so every access is
    classified at once from its previous use (two sorts: by (set, position),
    then that order by sector, which keeps each set's uses of a line
    together and in access order):

    * a repeat within the block hits iff fewer than ``ways`` distinct lines
      of the set were used in between;
    * a first use hits iff it matches the resident at MRU rank ``r`` and
      ``r + B - C < ways``, where ``B`` counts the set's distinct lines
      earlier in the block and ``C`` those of them that matched residents
      ranked below ``r``.

    Each touched set's new row is the block's distinct lines, most recent
    last use first, then the residents the block did not touch in their
    order, truncated to ``ways``.
    """
    n = sectors.size
    ways = rows.shape[1]
    # --- group the block by set (A order: set, then access order).
    by_set = _stable_order(sets)
    set_a = sets[by_set]
    sector_a = sectors[by_set]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(set_a[1:], set_a[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    group = np.cumsum(head) - 1
    # --- previous use of each access's line in the block (A index or -1).
    # Ties in sector keep A order, so a line's uses in one set are adjacent.
    by_line = _stable_order(sector_a)
    line_sector = sector_a[by_line]
    line_group = group[by_line]
    same = line_sector[1:] == line_sector[:-1]
    same &= line_group[1:] == line_group[:-1]
    repeat_of = by_line[:-1][same]
    prev = np.full(n, -1, dtype=np.int64)
    prev[by_line[1:][same]] = repeat_of
    is_first = prev < 0
    firsts_incl = np.cumsum(is_first)
    firsts_before = firsts_incl - is_first
    group_base = firsts_before[heads]
    distinct = np.append(group_base[1:], firsts_incl[-1]) - group_base
    hits = np.zeros(n, dtype=bool)

    # --- repeats: the distinct lines between the two uses decide.  Fewer
    # than ``ways`` accesses in between, or fewer than ``ways + 1`` distinct
    # lines in the whole set, is a sure hit; ``ways`` or more first uses in
    # between is a sure miss; the rest count the distinct lines exactly.
    repeat = np.flatnonzero(~is_first)
    if repeat.size:
        start = prev[repeat]
        gap = repeat - start - 1
        sure = (gap < ways) | (distinct[group[repeat]] <= ways)
        hits[repeat[sure]] = True
        open_ = ~sure
        open_ &= firsts_before[repeat] - firsts_incl[start] < ways
        if open_.any():
            stop, start = repeat[open_], start[open_]
            reused = _count_reuses_within(prev, start, stop)
            hits[stop] = stop - start - 1 - reused < ways

    # --- first uses: the resident rank, shifted by the set's lines used
    # earlier in the block that were not already above it.
    touched = set_a[heads]
    old = np.take(rows, touched, axis=0)
    first = np.flatnonzero(is_first)
    match = np.take(old, group[first], axis=0) == sector_a[first, np.newaxis]
    rank = match.argmax(axis=1)
    resident = match.ravel()[np.arange(first.size) * ways + rank]
    found = first[resident]
    found_rank = rank[resident]
    found_group = group[found]
    earlier = firsts_before[found] - group_base[found_group]
    depth = found_rank + earlier
    ambiguous = np.flatnonzero(depth >= ways)
    if ambiguous.size:
        depth[ambiguous] -= _count_lower_ranked(found_group, found_rank,
                                                ambiguous, ways)
    hits[found] = depth < ways

    # --- new rows: block lines by last use (most recent first), then the
    # untouched residents in order, truncated to ``ways``.
    is_last = np.ones(n, dtype=bool)
    is_last[repeat_of] = False
    last = np.flatnonzero(is_last)
    last_group = group[last]
    column = (np.cumsum(distinct) - 1)[last_group] - np.arange(last.size)
    fresh = np.full((touched.size, ways), -1, dtype=np.int64)
    keep = np.flatnonzero(column < ways)
    fresh.ravel()[last_group[keep] * ways + column[keep]] = \
        sector_a[last[keep]]
    stay = old >= 0
    stay.ravel()[found_group * ways + found_rank] = False
    # a staying resident's column: the set's distinct block lines, then the
    # staying residents before it (a row-wise cumsum done as one flat pass).
    column = np.cumsum(stay.ravel()).reshape(stay.shape)
    column[1:] -= column[:-1, -1:].copy()
    column += (distinct - 1)[:, np.newaxis]
    slot = np.flatnonzero(stay & (column < ways))
    fresh.ravel()[slot - slot % ways + column.ravel()[slot]] = \
        old.ravel()[slot]
    rows[touched] = fresh

    out = np.empty(n, dtype=bool)
    out[by_set] = hits
    return out


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
        # per set: tags most-recently-used first, -1 padded at the end.
        self._rows = np.full((self.num_sets, self.ways), -1, dtype=np.int64)

    def access_block(self, sectors) -> np.ndarray:
        """Access a whole sector array; returns the boolean hit mask."""
        sectors = _as_sector_array(sectors)
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        _check_range(sectors, "sector index")
        hits = _stack_lru_block(self._rows, sectors % self.num_sets, sectors)
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return int(np.count_nonzero(self._rows >= 0))


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
        self._rows = np.full((self.num_caches * self.num_sets, self.ways), -1,
                             dtype=np.int64)

    def access_block(self, cache_ids, sectors) -> np.ndarray:
        """Access ``sectors[i]`` in cache ``cache_ids[i]``; returns hit mask."""
        sectors = _as_sector_array(sectors)
        cache_ids = _as_sector_array(cache_ids)
        if cache_ids.size != sectors.size:
            raise ValueError("cache_ids and sectors must have equal length")
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        _check_range(sectors, "sector index")
        _check_range(cache_ids, "cache id", self.num_caches)
        set_index = cache_ids * self.num_sets + sectors % self.num_sets
        hits = _stack_lru_block(self._rows, set_index, sectors)
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return int(np.count_nonzero(self._rows >= 0))
