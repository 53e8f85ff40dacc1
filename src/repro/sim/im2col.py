"""GEMM tile address generation and warp-level coalescing, per workload.

For each CTA main-loop iteration the GEMM kernel loads one ``blkM x blkK``
A-operand tile and one ``blkN x blkK`` B-operand tile from global memory.
:class:`GemmTraceGenerator` produces, for batches of CTA coordinates and K
offsets of any training-pass workload (forward, dgrad or wgrad), the byte
addresses of those tiles (implicitly, without ever materializing the
replicated im2col matrix), the number of L1 requests the warps issue after
coalescing, and the set of memory sectors each tile touches.  The three
passes differ only in how GEMM coordinates map to tensor addresses:

* **forward** — A is the im2col IFmap matrix (M rows are output positions, K
  columns are filter offsets), B is the KCRS filter matrix.
* **dgrad** — A is the output-gradient matrix ``dO`` (M rows are output
  positions, K columns are output channels), B is the transposed filter.
* **wgrad** — A is ``dO^T`` (M rows are output channels, K columns are output
  positions), B is the im2col IFmap matrix entered on the N side (N columns
  are filter offsets, K rows are output positions).

Every mapping decomposes into a sum of a pure own-axis part and a pure K-axis
part, so tile addresses are built with one outer add over small per-axis
coordinate vectors (:meth:`GemmTraceGenerator.tile_addresses`).

Thread-to-data mapping follows Section IV-A of the paper:

* A tiles are loaded column by column; each warp of 32 threads loads 32
  consecutive rows of one column, and the loads coalesce into L1 requests of
  ``gpu.l1_request_bytes``.
* B tiles are loaded with ``32 / blkK`` columns per warp (each thread loads
  one element), so each warp gathers several distant ``blkK``-element
  segments.

Coalescing works on a warp-major layout of the lattice, where each warp's
lanes are adjacent (column-major tiles come out K-major from the same one
transposing copy).  A warp's addresses come in runs (the inner ``w_out``
loop of im2col), so only the first lane of each run of equal sectors within
a warp enters the one sort that dedupes a whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.layer import LayerConfig
from ..core.tiling import CtaTile
from ..core.workload import GemmWorkload
from ..gpu.spec import GpuSpec, WARP_SIZE
from .address import INVALID_ADDRESS, WorkloadLayout


def _sorted_unique(values: np.ndarray, kind=None) -> np.ndarray:
    """Sorted unique values via an explicit sort (faster than np.unique's
    hash-based integer path for these heavily repeated key arrays);
    ``kind="stable"`` is near linear on mostly presorted keys."""
    if values.size == 0:
        return values.copy()
    ordered = np.sort(values, kind=kind)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _outside(values: np.ndarray, extent: int) -> np.ndarray:
    """``(values < 0) | (values >= extent)`` as one unsigned compare."""
    return values.view(f"u{values.itemsize}") >= extent


#: per-axis address decomposition of one operand: byte offsets relative to
#: the operand's base, optional feature-map (row, col) parts for the
#: padding-predication bounds check, and the in-range mask.
AxisParts = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray],
                  np.ndarray]


@dataclass(frozen=True)
class GemmTraceGenerator:
    """Generates the memory accesses of one blocked GEMM workload."""

    workload: GemmWorkload
    tile: CtaTile
    gpu: GpuSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "_layout",
                           WorkloadLayout(self.workload, self.gpu.line_bytes))

    @property
    def layout(self) -> WorkloadLayout:
        return self._layout

    @property
    def layer(self) -> LayerConfig:
        return self.workload.layer

    # ------------------------------------------------------------------
    # GEMM coordinate helpers
    # ------------------------------------------------------------------
    def _position_to_image_coords(self, values: np.ndarray
                                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map output-position indices to (batch, output row, output col)."""
        layer = self.layer
        per_image = layer.out_height * layer.out_width
        batch = values // per_image
        rem = values % per_image
        out_row = rem // layer.out_width
        out_col = rem % layer.out_width
        return batch, out_row, out_col

    def _offset_to_filter_coords(self, values: np.ndarray
                                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map filter-offset indices to (input channel, filter row, col)."""
        layer = self.layer
        per_channel = layer.filter_height * layer.filter_width
        channel = values // per_channel
        rem = values % per_channel
        f_row = rem // layer.filter_width
        f_col = rem % layer.filter_width
        return channel, f_row, f_col

    # ------------------------------------------------------------------
    # Per-axis address parts (byte offsets relative to the operand base)
    # ------------------------------------------------------------------
    def _coord_dtype(self):
        # int32 only when the own-part + K-part sum cannot overflow; int32
        # sorts are ~2x faster than int64 ones downstream.
        return (np.int32 if self.layout.total_bytes
                < np.iinfo(np.int32).max // 2 else np.int64)

    def _im2col_position_parts(self, values: np.ndarray, extent: int,
                               channels: int) -> AxisParts:
        """Output-position axis of an im2col operand (forward A rows)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        clamped = np.minimum(values, extent - 1)
        batch, out_row, out_col = self._position_to_image_coords(clamped)
        row = (out_row * layer.stride - layer.padding).astype(dtype)
        col = (out_col * layer.stride - layer.padding).astype(dtype)
        plane = layer.in_height * layer.in_width
        base = ((batch * channels * plane + row * layer.in_width + col)
                * layer.dtype_bytes).astype(dtype)
        ok = ok & (batch >= 0) & (batch < layer.batch)
        return base, row, col, ok

    def _im2col_offset_parts(self, values: np.ndarray, extent: int) -> AxisParts:
        """Filter-offset axis of an im2col operand (forward A columns)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        channel, f_row, f_col = self._offset_to_filter_coords(
            np.minimum(values, extent - 1))
        plane = layer.in_height * layer.in_width
        base = ((channel * plane + f_row * layer.in_width + f_col)
                * layer.dtype_bytes).astype(dtype)
        return base, f_row.astype(dtype), f_col.astype(dtype), ok

    def _ofmap_position_parts(self, values: np.ndarray, extent: int) -> AxisParts:
        """Output-position axis of the dO matrix (dgrad A rows, wgrad A cols)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        batch, out_row, out_col = self._position_to_image_coords(
            np.minimum(values, extent - 1))
        plane = layer.out_height * layer.out_width
        base = ((batch * layer.out_channels * plane
                 + out_row * layer.out_width + out_col)
                * layer.dtype_bytes).astype(dtype)
        return base, None, None, ok

    def _ofmap_channel_parts(self, values: np.ndarray, extent: int) -> AxisParts:
        """Output-channel axis of the dO matrix (dgrad A cols, wgrad A rows)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        plane = layer.out_height * layer.out_width
        base = (np.minimum(values, extent - 1) * plane
                * layer.dtype_bytes).astype(dtype)
        return base, None, None, ok

    def _matrix_parts(self, values: np.ndarray, extent: int,
                      pitch: int) -> AxisParts:
        """Dense row-major matrix axis: offset = value * pitch elements."""
        dtype = self._coord_dtype()
        ok = values < extent
        base = (np.minimum(values, extent - 1) * pitch
                * self.layer.dtype_bytes).astype(dtype)
        return base, None, None, ok

    # ------------------------------------------------------------------
    # Dense (linear / batched-GEMM) decomposition
    # ------------------------------------------------------------------
    def _grouped_matrix_parts(self, values: np.ndarray, rows: int, pitch: int,
                              padded_rows: int,
                              group_elements: int) -> AxisParts:
        """Row axis of a [groups, rows, pitch-major] dense operand tensor.

        Own-axis coordinates of a batched workload run over a per-instance
        padded extent of ``padded_rows`` (= CTAs per instance x block size),
        so instance ``g`` owns values ``[g * padded_rows, (g+1) *
        padded_rows)``; rows past the instance's real extent are
        predicated off.
        """
        dtype = self._coord_dtype()
        if self.workload.groups > 1 and group_elements:
            group = values // padded_rows
            row = values % padded_rows
            ok = row < rows
            base = ((group * group_elements + np.minimum(row, rows - 1) * pitch)
                    * self.workload.dtype_bytes).astype(dtype)
            return base, None, None, ok
        ok = values < rows
        base = (np.minimum(values, rows - 1) * pitch
                * self.workload.dtype_bytes).astype(dtype)
        return base, None, None, ok

    def _dense_parts(self, operand: str, axis: str,
                     values: np.ndarray) -> AxisParts:
        """Address parts of a dense workload's operand along one axis.

        Every pass's A operand backs a row-major ``[groups, m, k]`` tensor and
        every B operand a ``[groups, n, k]`` tensor (see the dense lowering in
        :mod:`repro.core.workload`); only the (pitch, contiguity) binding of
        the GEMM axes differs per pass:

        * **forward** — a: addr = m*K + k; b: addr = n*K + k.
        * **dgrad** — a = dY: addr = m*K + k (K is the forward N); b = W
          entered transposed: addr = k*N + n.
        * **wgrad** — a = dY^T: addr = k*M + m; b = X on the N side:
          addr = k*N + n.
        """
        gemm = self.workload.gemm
        pass_kind = self.workload.pass_kind
        if axis == "k":
            # Per-instance reduction axis: never carries the instance index.
            pitch = {"forward": {"a": 1, "b": 1},
                     "dgrad": {"a": 1, "b": gemm.n},
                     "wgrad": {"a": gemm.m, "b": gemm.n}}[pass_kind][operand]
            return self._grouped_matrix_parts(values, gemm.k, pitch,
                                              padded_rows=gemm.k,
                                              group_elements=0)
        tile = self.tile
        if operand == "a":
            own_pitch = {"forward": gemm.k, "dgrad": gemm.k,
                         "wgrad": 1}[pass_kind]
            rows, blk = gemm.m, tile.blk_m
            group_elements = gemm.m * gemm.k
        else:
            own_pitch = gemm.k if pass_kind == "forward" else 1
            rows, blk = gemm.n, tile.blk_n
            group_elements = gemm.n * gemm.k
        padded = -(-rows // blk) * blk
        return self._grouped_matrix_parts(values, rows, own_pitch,
                                          padded_rows=padded,
                                          group_elements=group_elements)

    def _operand_parts(self, operand: str, axis: str,
                       values: np.ndarray) -> AxisParts:
        """Address parts of one operand along ``axis`` ("own" or "k")."""
        if self.workload.layout == "dense":
            return self._dense_parts(operand, axis, values)
        layer = self.layer
        gemm = self.workload.gemm
        pass_kind = self.workload.pass_kind
        if pass_kind == "forward":
            if operand == "a":
                if axis == "own":
                    return self._im2col_position_parts(values, gemm.m,
                                                       layer.in_channels)
                return self._im2col_offset_parts(values, gemm.k)
            if axis == "own":  # filter matrix: address = n * K + k
                return self._matrix_parts(values, gemm.n, gemm.k)
            return self._matrix_parts(values, gemm.k, 1)
        if pass_kind == "dgrad":
            if operand == "a":
                if axis == "own":
                    return self._ofmap_position_parts(values, gemm.m)
                return self._ofmap_channel_parts(values, gemm.k)
            if axis == "own":  # transposed filter: address = k * N + n
                return self._matrix_parts(values, gemm.n, 1)
            return self._matrix_parts(values, gemm.k, gemm.n)
        if pass_kind == "wgrad":
            if operand == "a":
                if axis == "own":
                    return self._ofmap_channel_parts(values, gemm.m)
                return self._ofmap_position_parts(values, gemm.k)
            if axis == "own":
                return self._im2col_offset_parts(values, gemm.n)
            return self._im2col_position_parts(values, gemm.k,
                                               layer.in_channels)
        raise ValueError(f"unknown pass kind {pass_kind!r}")

    def _operand_bounds(self, operand: str) -> Optional[Tuple[int, int]]:
        """Feature-map bounds predicating an operand's loads, if any."""
        spec = self.workload.a if operand == "a" else self.workload.b
        if spec.l1_pattern == "im2col" or spec.l2_reuse == "sliding":
            return (self.layer.in_height, self.layer.in_width)
        return None

    def _operand_base(self, operand: str) -> int:
        return self.layout.a_base if operand == "a" else self.layout.b_base

    def _column_major(self, operand: str) -> bool:
        """Whether each warp of ``operand`` loads 32 rows of one tile column.

        B tiles are loaded with ``32 / blkK`` columns per warp: consecutive
        lanes walk the own-major, K-minor element order.  The A tile's warp
        map follows the operand's contiguity axis.  Conv forward and dgrad A
        operands are contiguous along M, so each warp covers 32 rows of one
        column (the paper's column-major mapping).  The conv wgrad A operand
        (dO^T) is contiguous along K: the kernel streams 32/blkK row segments
        per warp and transposes through shared memory — the same lane mapping
        the B-tile loads use — which is the load stream the lowering's
        ``contiguous`` L1 pattern models.

        Dense workloads follow the same rule by contiguity: the forward/dgrad
        A matrices are row-major along K (blkK-segment loads, matching the
        lowering's ``gather`` pattern) while the wgrad A matrix (dY^T) is
        contiguous along its own axis (fully coalesced column loads,
        ``contiguous``).
        """
        if operand == "b":
            return False
        if self.workload.layout == "dense":
            return self.workload.pass_kind == "wgrad"
        return not (self.workload.a.l1_pattern == "contiguous"
                    and self.workload.pass_kind == "wgrad")

    def _warp_line(self, operand: str) -> int:
        """Lanes per warp line of one tile in warp-major element order.

        Warp-major order is the own-major, K-minor element order for segment
        loads (one line: the whole tile) and the K-major, own-minor order for
        column-major tiles (one line per column), so each warp is 32
        adjacent elements of one line; a line's last warp may be short.
        """
        blk_own = self.tile.blk_m if operand == "a" else self.tile.blk_n
        if self._column_major(operand):
            return blk_own
        return blk_own * self.tile.blk_k

    # ------------------------------------------------------------------
    # Tile generation
    # ------------------------------------------------------------------
    def tile_addresses(self, operand: str, coords: Sequence[int],
                       k_offsets: Sequence[int]) -> np.ndarray:
        """Byte addresses of every (coord, k_offset) tile of one operand.

        ``operand`` is ``"a"`` (``coords`` are CTA rows, tiles are ``blkM x
        blkK``) or ``"b"`` (CTA columns, ``blkN x blkK``).  Row ``ci *
        len(k_offsets) + ki`` of the returned ``(tiles, blk_own * blk_k)``
        lattice is tile ``(coords[ci], k_offsets[ki])`` in own-major, K-minor
        element order.  Rows beyond M/N, columns beyond K and zero-padded
        input positions are predicated off and marked
        :data:`INVALID_ADDRESS`.  The per-axis decomposition keeps every
        division/modulo on the small per-axis coordinate vectors; only cheap
        adds/compares touch the full lattice, which stays in the narrow
        coordinate dtype.
        """
        return self._tile_lattice(operand, coords, k_offsets, k_major=False)

    def _tile_lattice(self, operand: str, coords: Sequence[int],
                      k_offsets: Sequence[int], k_major: bool) -> np.ndarray:
        """:meth:`tile_addresses`, with each tile's elements in K-major,
        own-minor order when ``k_major`` (the warp-major order of
        column-major tiles)."""
        blk_own = self.tile.blk_m if operand == "a" else self.tile.blk_n
        blk_k = self.tile.blk_k
        coords = np.asarray(coords, dtype=np.int64)
        k_offsets = np.asarray(k_offsets, dtype=np.int64)
        own_values = (coords[:, np.newaxis] * blk_own
                      + np.arange(blk_own)).ravel()
        k_values = (k_offsets[:, np.newaxis] + np.arange(blk_k)).ravel()
        base_o, row_o, col_o, ok_o = self._operand_parts(operand, "own",
                                                         own_values)
        base_k, row_k, col_k, ok_k = self._operand_parts(operand, "k",
                                                         k_values)

        # Outer sum over the (own axis, K axis) lattice, or the (K axis,
        # own axis) one for K-major tiles; predicated-off lanes are then
        # overwritten: whole rows/columns for the per-axis range checks, and
        # the lanes outside the feature map for padded operands.
        as_column, as_row = (slice(None), np.newaxis), (np.newaxis, slice(None))
        own, k = (as_row, as_column) if k_major else (as_column, as_row)
        coord_dtype = base_o.dtype.type
        invalid = coord_dtype(INVALID_ADDRESS)
        addresses = ((base_o + coord_dtype(self._operand_base(operand)))[own]
                     + base_k[k])
        bounds = self._operand_bounds(operand)
        if bounds is not None:
            height, width = bounds
            np.copyto(addresses, invalid,
                      where=(_outside(row_o[own] + row_k[k], height)
                             | _outside(col_o[own] + col_k[k], width)))
        own_major = addresses.T if k_major else addresses
        own_major[~ok_o] = invalid
        own_major[:, ~ok_k] = invalid

        if k_major:  # (nk, blk_k, ncoords, blk_own) -> (ncoords, nk, ...)
            lattice = addresses.reshape(k_offsets.size, blk_k, coords.size,
                                        blk_own).transpose(2, 0, 1, 3)
        else:  # (ncoords, blk_own, nk, blk_k) -> (ncoords, nk, ...)
            lattice = addresses.reshape(coords.size, blk_own, k_offsets.size,
                                        blk_k).transpose(0, 2, 1, 3)
        return lattice.reshape(coords.size * k_offsets.size, blk_own * blk_k)

    def _tile_batch(self, operand: str, coords: Sequence[int],
                    k_offsets: Sequence[int]) -> "TileAccessBatch":
        """Coalesced accesses of every (coord, k_offset) tile, batched.

        Tiles are indexed as in :meth:`tile_addresses`; one address
        computation in warp-major element order and one sort serve the
        whole batch, which is what makes exact trace generation tractable.
        """
        return self._build_access_batch(
            self._tile_lattice(operand, coords, k_offsets,
                               k_major=self._column_major(operand)),
            self._warp_line(operand))

    def a_tile_batch(self, cta_ms: Sequence[int],
                     k_offsets: Sequence[int]) -> "TileAccessBatch":
        """All (cta_m, k_offset) A tiles of the cross product, batched."""
        return self._tile_batch("a", cta_ms, k_offsets)

    def b_tile_batch(self, cta_ns: Sequence[int],
                     k_offsets: Sequence[int]) -> "TileAccessBatch":
        """All (cta_n, k_offset) B tiles of the cross product, batched."""
        return self._tile_batch("b", cta_ns, k_offsets)

    def _build_access_batch(self, addresses: np.ndarray,
                            line: int) -> "TileAccessBatch":
        """Coalescing counts and unique sectors for a (tiles, elements) batch.

        Each row of ``addresses`` is one tile in warp-major element order:
        lines of ``line`` elements, each split into warps of 32 adjacent
        lanes (see :meth:`_warp_line`).  A warp's lanes hit a few sectors in
        runs, and dropping adjacent duplicates cannot change a sort-unique
        set, so only the first lane of each run of equal sectors within a
        warp (predicated-off lanes dropped) builds a (tile, sector, warp)
        key: one sort of those keys covers the whole batch.  Per-tile counts
        and sector arrays fall out of run boundaries in the sorted unique
        keys.
        """
        gpu = self.gpu
        num_tiles, width = addresses.shape
        # Full-lattice passes, in the narrow coordinate dtype: the sector
        # division, one compare, the forced breaks at warp starts and one
        # ``flatnonzero``.
        sectors = (addresses // gpu.sector_bytes).ravel()
        heads = np.empty(sectors.size + 1, dtype=bool)
        heads[-1] = True  # end sentinel: ``runs[i + 1]`` ends run ``i``
        np.not_equal(sectors[1:], sectors[:-1], out=heads[1:-1])
        heads[:-1].reshape(-1, line)[:, ::WARP_SIZE] = True
        runs = np.flatnonzero(heads)
        run_sectors = sectors[runs[:-1]]
        valid = run_sectors >= 0  # INVALID_ADDRESS maps to sector -1
        # Issued loads: every lane but those of the predicated-off runs.
        invalid = np.flatnonzero(~valid)
        elements = (width - np.bincount(
            runs[invalid] // width, weights=runs[invalid + 1] - runs[invalid],
            minlength=num_tiles)).astype(np.int64)
        run_sectors = run_sectors[valid]
        index_dtype = (np.int32 if sectors.size < np.iinfo(np.int32).max
                       else np.int64)
        starts = runs[:-1][valid].astype(index_dtype)
        tiles = starts // width
        lanes = starts - tiles * width

        # Sectors: one sorted pass over the run keys yields the per-warp
        # sector count (tile, sector, warp triples), the unique tile sector
        # lists, and — because L1 request blocks are whole multiples of
        # sectors (GpuSpec enforces it) — the coalesced L1 request count as
        # well.  Keys are built in int32 whenever the combined span fits
        # (int32 sorts are ~2x faster than int64 ones).
        warps_per_line = -(-line // WARP_SIZE)
        group_span = width // line * warps_per_line
        lane_ids = np.arange(width)
        warps = (lane_ids // line * warps_per_line
                 + lane_ids % line // WARP_SIZE)[lanes]
        sector_span = int(run_sectors.max()) + 1 if run_sectors.size else 1
        key_dtype = (np.int32 if num_tiles * sector_span * group_span
                     < np.iinfo(np.int32).max else np.int64)
        tiles = tiles.astype(key_dtype, copy=False)
        warps = warps.astype(key_dtype)
        triple_keys = _sorted_unique(
            (tiles * sector_span + run_sectors.astype(key_dtype, copy=False))
            * group_span + warps)
        pair_keys = triple_keys // group_span
        keep = np.empty(pair_keys.size, dtype=bool)
        if pair_keys.size:
            keep[0] = True
            np.not_equal(pair_keys[1:], pair_keys[:-1], out=keep[1:])
        unique_pairs = pair_keys[keep]
        tile_ids = np.arange(num_tiles + 1, dtype=key_dtype)
        warp_sectors = np.diff(np.searchsorted(
            triple_keys, tile_ids * (sector_span * group_span)))
        offsets = np.searchsorted(unique_pairs, tile_ids * sector_span)

        # L1 requests: unique (tile, warp, request block).  In lane order a
        # warp's equal request blocks are adjacent and its blocks mostly
        # ascend, so only the first of each run enters a stable sort, which
        # is near linear on such presorted keys.
        ratio = gpu.l1_request_bytes // gpu.sector_bytes
        block_span = sector_span // ratio + 1
        block_dtype = (np.int32 if num_tiles * group_span * block_span
                       < np.iinfo(np.int32).max else np.int64)
        block_keys = ((tiles.astype(block_dtype) * group_span + warps)
                      * block_span
                      + (run_sectors // ratio).astype(block_dtype))
        fresh = np.empty(block_keys.size, dtype=bool)
        if block_keys.size:
            fresh[0] = True
            np.not_equal(block_keys[1:], block_keys[:-1], out=fresh[1:])
        request_keys = _sorted_unique(block_keys[fresh], kind="stable")
        requests = np.diff(np.searchsorted(
            request_keys, np.arange(num_tiles + 1, dtype=block_dtype)
            * (group_span * block_span)))

        return TileAccessBatch(
            l1_requests=requests,
            l1_sectors=warp_sectors,
            elements=elements,
            sectors=unique_pairs % sector_span,
            offsets=offsets,
            lattice_elements=addresses.size,
            sorted_keys=run_sectors.size,
        )


@dataclass(frozen=True)
class TileAccessBatch:
    """Coalesced accesses of a batch of tiles, one array entry per tile.

    ``l1_requests`` counts the coalesced L1 requests the warps issue (one per
    distinct ``gpu.l1_request_bytes`` block a warp touches), ``l1_sectors``
    the distinct 32-byte sectors per warp request summed over warps (what a
    sectored memory system fetches), and ``elements`` the loads actually
    issued (predicated-off padding excluded).
    ``sectors[offsets[i]:offsets[i + 1]]`` are tile ``i``'s unique sector
    indices, sorted.
    """

    l1_requests: np.ndarray
    l1_sectors: np.ndarray
    elements: np.ndarray
    sectors: np.ndarray
    offsets: np.ndarray
    #: lattice elements the batch was built from (predicated-off included)
    #: and keys that entered its sector sort: observability counts.
    lattice_elements: int
    sorted_keys: int
