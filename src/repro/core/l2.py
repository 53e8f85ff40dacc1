"""L2 cache traffic model (Section IV-B of the paper), operand-generic.

The im2col matrix contains many duplicated elements; the L1 cache (private to
an SM) captures the reuse *within* one CTA's input tile, so only the unique
data of each tile reaches L2.  The model estimates the unique footprint of a
sliding-window (im2col) tile from the address range it spans:

    Eq. 5  DIST_V  = rows * ((Wi + 2P) * Stride) / (Wi + 2P - Wf + 1)
    Eq. 6  A_DIST_V = DIST_V * cols / (Hf * Wf)
    Eq. 7  DIST_H  = ((cols-1)/Wf) * ((Wi - Wf + 1) + Stride*(Wf - cols + 1))
                   + ((Wf - cols + 1)/Wf) * (Stride * (cols - 1))
    Eq. 8  A_DIST_H = DIST_H * (1 + rows / ((Hi + 2P - Hf + 1)/Stride)^2)
    Eq. 9  T_L2 = (A_DIST_A + UNIQUE_B) * (K/blkK) * NumCTA

``rows`` is the tile extent along the *output-position* axis of the im2col
matrix and ``cols`` its extent along the *filter-offset* axis.  For the
forward pass the im2col operand sits on the M side, so (rows, cols) =
(blkM, blkK); for the wgrad pass it enters on the N side with its positions
running along K, so (rows, cols) = (blkK, blkN).  Operands without
sliding-window structure (filters, gradient matrices, 1x1 convolutions) are
all-unique: every tile element is distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

from .layer import ConvLayerConfig
from .tiling import CtaTile, GemmGrid
from .workload import GemmWorkload, Im2colPattern, OperandSpec, as_workload


ChannelSpanMode = Literal["paper", "at-least-one"]

PatternLike = Union[ConvLayerConfig, Im2colPattern]


@dataclass(frozen=True)
class L2ModelOptions:
    """Tunable assumptions of the L2 traffic model.

    ``channel_span_mode`` controls the Eq. 6 factor ``cols / (Hf*Wf)``:

    * ``"paper"`` applies the equation exactly as printed.
    * ``"at-least-one"`` clamps the factor to a minimum of 1, i.e. a tile
      never covers less than one vertical address range.  This is the
      ablation called out in DESIGN.md.
    """

    channel_span_mode: ChannelSpanMode = "paper"


@dataclass(frozen=True)
class L2Traffic:
    """L2 load traffic of one GEMM workload.

    ``ifmap_*`` fields describe the M-side (``a``) operand and ``filter_*``
    fields the N-side (``b``) operand, keeping the forward-pass vocabulary.
    """

    ifmap_bytes: float
    filter_bytes: float
    #: per-main-loop unique A-operand footprint, in elements.
    ifmap_elements_per_loop: float
    #: per-main-loop B-operand footprint, in elements.
    filter_elements_per_loop: float

    @property
    def total_bytes(self) -> float:
        return self.ifmap_bytes + self.filter_bytes

    @property
    def elements_per_loop(self) -> float:
        return self.ifmap_elements_per_loop + self.filter_elements_per_loop


# ----------------------------------------------------------------------
# Sliding-window footprint equations, in (rows, cols) tile extents
# ----------------------------------------------------------------------

def _vertical_distance(pattern: PatternLike, rows: int) -> float:
    """Eq. 5: address span (in elements) along one im2col column."""
    if pattern.is_pointwise:
        # Every element of a pointwise column is unique and contiguous in M
        # only through the feature-map layout; the span equals the tile rows.
        return float(rows)
    numerator = pattern.padded_width * pattern.stride
    denominator = pattern.padded_width - pattern.filter_width + 1
    return rows * numerator / denominator


def _average_vertical_distance(pattern: PatternLike, rows: int, cols: int,
                               options: L2ModelOptions) -> float:
    """Eq. 6: vertical span averaged over the channels the tile touches."""
    dist_v = _vertical_distance(pattern, rows)
    if pattern.is_pointwise:
        return dist_v
    span = cols / pattern.filter_pixels
    if options.channel_span_mode == "at-least-one":
        span = max(1.0, span)
    return dist_v * span


def _horizontal_distance(pattern: PatternLike, cols: int) -> float:
    """Eq. 7: address span (in elements) across the tile's im2col columns."""
    if pattern.is_pointwise:
        return float(cols)
    wf = pattern.filter_width
    strd = pattern.stride
    wi = pattern.in_width
    within_row_edges = (cols - 1) / wf
    within_row_step = (wi - wf + 1) + strd * (wf - cols + 1)
    same_row = (wf - cols + 1) / wf
    same_row_step = strd * (cols - 1)
    dist_h = within_row_edges * within_row_step + same_row * same_row_step
    # The address span across neighbouring columns can never be negative nor
    # smaller than the number of distinct columns minus one would imply for a
    # dense layout; clamp at 0 to keep pathological configurations sane.
    return max(0.0, dist_h)


def _average_horizontal_distance(pattern: PatternLike, rows: int,
                                 cols: int) -> float:
    """Eq. 8: horizontal span including extra samples inside one tile."""
    dist_h = _horizontal_distance(pattern, cols)
    if pattern.is_pointwise:
        return dist_h
    rows_per_sample = ((pattern.padded_height - pattern.filter_height + 1)
                       / pattern.stride)
    sample_pixels = rows_per_sample ** 2
    if sample_pixels <= 0:
        return dist_h
    return dist_h * (1.0 + rows / sample_pixels)


def sliding_tile_unique_elements(pattern: PatternLike, rows: int, cols: int,
                                 cols_extent: int,
                                 options: L2ModelOptions = L2ModelOptions()
                                 ) -> float:
    """Unique elements one (rows x cols) sliding-window tile requests from L2.

    ``cols_extent`` caps both branches at the matrix's real extent along the
    filter-offset axis (K for a forward A operand, N for a wgrad B one): a
    tile of a degenerate GEMM with fewer offsets than ``blk_k`` can only
    touch the offsets that exist, so Eq. 5-8 are evaluated over the clamped
    tile (previously only the pointwise branch clamped, letting narrow-K
    layers claim a footprint larger than their matrix slice).
    """
    cols = min(cols, cols_extent)
    if pattern.is_pointwise:
        # No reuse within the tile: every element is unique.
        return float(rows * cols)
    unique = (_average_vertical_distance(pattern, rows, cols, options)
              + _average_horizontal_distance(pattern, rows, cols))
    # The unique footprint can never exceed the tile itself.
    return min(unique, float(rows * cols))


def offset_window_unique_elements(pattern: PatternLike, rows: int, cols: int,
                                  cols_extent: int) -> float:
    """Unique elements of a (rows positions) x (cols offsets) im2col tile.

    The wgrad B binding: tile rows run along K (consecutive output positions)
    and columns along N (filter offsets), with ``cols`` = blkN far beyond one
    filter row — outside Eq. 7's validity domain (its extrapolation collapses
    to zero there).  The footprint is instead computed directly as the
    sliding-window union: the ``cols`` offsets span ``cols / (Hf*Wf)``
    channels; within each channel a window of ``min(Hf, ceil(cols/Wf))``
    filter rows slides ``rows`` steps of ``stride`` across the input, so one
    channel contributes ``window_h * (Wf + stride*(rows-1))`` pixels.
    """
    cols = min(cols, cols_extent)
    if pattern.is_pointwise:
        return float(rows * cols)
    channels = max(1.0, cols / pattern.filter_pixels)
    window_h = min(pattern.filter_height,
                   math.ceil(cols / pattern.filter_width))
    per_channel = window_h * (pattern.filter_width
                              + pattern.stride * (rows - 1))
    return min(float(channels * per_channel), float(rows * cols))


# ----------------------------------------------------------------------
# Layer-based wrappers (forward-pass vocabulary, kept for direct Eq. tests)
# ----------------------------------------------------------------------

def vertical_distance(pattern: PatternLike, tile: CtaTile) -> float:
    """Eq. 5 for a forward blkM x blkK tile."""
    return _vertical_distance(pattern, tile.blk_m)


def average_vertical_distance(pattern: PatternLike, tile: CtaTile,
                              options: L2ModelOptions = L2ModelOptions()) -> float:
    """Eq. 6 for a forward blkM x blkK tile."""
    return _average_vertical_distance(pattern, tile.blk_m, tile.blk_k, options)


def horizontal_distance(pattern: PatternLike, tile: CtaTile) -> float:
    """Eq. 7 for a forward blkM x blkK tile."""
    return _horizontal_distance(pattern, tile.blk_k)


def average_horizontal_distance(pattern: PatternLike, tile: CtaTile) -> float:
    """Eq. 8 for a forward blkM x blkK tile."""
    return _average_horizontal_distance(pattern, tile.blk_m, tile.blk_k)


def ifmap_tile_unique_elements(layer: ConvLayerConfig, tile: CtaTile,
                               options: L2ModelOptions = L2ModelOptions()) -> float:
    """Unique IFmap elements requested from L2 per forward main loop."""
    gemm = layer.gemm_shape()
    return sliding_tile_unique_elements(layer, min(tile.blk_m, gemm.m),
                                        tile.blk_k, gemm.k, options)


def filter_tile_elements(layer: ConvLayerConfig, tile: CtaTile) -> float:
    """Filter elements requested from L2 per forward main loop (all unique)."""
    gemm = layer.gemm_shape()
    return float(min(tile.blk_n, gemm.n) * min(tile.blk_k, gemm.k))


# ----------------------------------------------------------------------
# Operand-generic estimate
# ----------------------------------------------------------------------

def operand_tile_elements(workload: GemmWorkload, operand: OperandSpec,
                          axis: str, tile: CtaTile,
                          options: L2ModelOptions = L2ModelOptions()) -> float:
    """Unique elements one operand tile requests from L2 per main loop.

    ``axis`` is ``"m"`` for the A operand (blkM x blkK tiles) and ``"n"`` for
    the B operand (blkK x blkN tiles).  Sliding-window operands use the
    Eq. 5-8 footprint with their output-position extent as ``rows``; unique
    operands request every in-range tile element.
    """
    gemm = workload.gemm
    if axis == "m":
        own_tile, own_extent = tile.blk_m, gemm.m
    elif axis == "n":
        own_tile, own_extent = tile.blk_n, gemm.n
    else:
        raise ValueError(f"unknown GEMM axis {axis!r}")

    if operand.l2_reuse == "sliding":
        if axis == "m":
            # Forward binding: rows along M (positions), cols along K.  Both
            # extents clamp to the matrix: a single-CTA / batch=1 geometry
            # with fewer output positions than blkM only slides over the
            # positions that exist.
            return sliding_tile_unique_elements(
                operand.pattern, min(tile.blk_m, gemm.m), tile.blk_k, gemm.k,
                options)
        # Wgrad binding: rows along K (positions), cols along N (offsets);
        # blkN spans many filter rows, so the footprint comes from the
        # direct window union rather than Eq. 7's one-row extrapolation.
        return offset_window_unique_elements(
            operand.pattern, min(tile.blk_k, gemm.k), tile.blk_n, gemm.n)
    if operand.l2_reuse == "unique":
        return float(min(own_tile, own_extent) * min(tile.blk_k, gemm.k))
    raise ValueError(f"unknown L2 reuse mode {operand.l2_reuse!r}")


def estimate_l2_traffic(source: Union[ConvLayerConfig, GemmWorkload],
                        grid: GemmGrid,
                        options: L2ModelOptions = L2ModelOptions()) -> L2Traffic:
    """Eq. 9: total L2 load traffic of one GEMM workload, in bytes."""
    workload = as_workload(source)
    tile = grid.tile
    dtype = workload.dtype_bytes
    a_per_loop = operand_tile_elements(workload, workload.a, "m", tile, options)
    b_per_loop = operand_tile_elements(workload, workload.b, "n", tile, options)
    loops = grid.main_loops_per_cta * grid.num_ctas
    return L2Traffic(
        ifmap_bytes=a_per_loop * loops * dtype,
        filter_bytes=b_per_loop * loops * dtype,
        ifmap_elements_per_loop=a_per_loop,
        filter_elements_per_loop=b_per_loop,
    )
