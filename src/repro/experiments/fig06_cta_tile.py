"""Fig. 6: profiled CTA tile width as a function of the output channel count.

The paper profiles the cuDNN implicit-GEMM kernels and finds the CTA tile
width steps through 32, 64 and 128 as the number of output channels grows.
This experiment reproduces the lookup used by DeLTA's L2 model.
"""

from __future__ import annotations

from typing import Sequence

from ..core.layer import ConvLayerConfig
from ..core.tiling import select_cta_tile
from .base import Report, make_result
from .registry import register_experiment

EXPERIMENT_ID = "fig06"
TITLE = "Fig. 6: CTA tile width by output channel count"


@register_experiment(EXPERIMENT_ID, title=TITLE, fast=True)
def run(channel_counts: Sequence[int] | None = None,
        batch: int = 256) -> Report:
    """Tabulate the selected CTA tile for a sweep of output channel counts."""
    if channel_counts is None:
        channel_counts = list(range(1, 385, 13)) + [384]
    rows = []
    series = []
    for co in channel_counts:
        layer = ConvLayerConfig.square(
            f"co_{co}", batch, in_channels=256, in_size=13,
            out_channels=co, filter_size=3, padding=1)
        tile = select_cta_tile(layer.gemm_shape())
        rows.append({
            "out_channels": co,
            "blk_m": tile.blk_m,
            "blk_n": tile.blk_n,
            "blk_k": tile.blk_k,
            "warps": tile.num_warps,
        })
        series.append((co, tile.blk_n))

    widths = sorted({row["blk_n"] for row in rows})
    summary = {
        "tile_widths_used": ", ".join(str(w) for w in widths),
        "narrow_tiles_use_blk_k_4": all(
            row["blk_k"] == 4 for row in rows if row["blk_n"] < 128),
        "wide_tiles_use_blk_k_8": all(
            row["blk_k"] == 8 for row in rows if row["blk_n"] == 128),
    }
    return make_result(EXPERIMENT_ID, TITLE, rows=rows,
                       series={"CTA tile width (blkN)": series},
                       summary=summary)
