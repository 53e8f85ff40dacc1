"""Sanity properties of the performance model over scaled designs.

* Every estimate is a finite, positive time, for any layer on any scaled GPU,
  and for every network up to the largest accepted batch (``MAX_BATCH``,
  which every request and design point enforces).
* More of a resource should never make a design slower.  The model breaks
  this on ``num_sm`` today: the bandwidth terms divide L2/DRAM bandwidth
  among *all* SMs, occupied or not, so a small grid on more SMs gets a
  smaller per-SM share (an open item in ROADMAP.md).  The reproduced case is
  pinned as a strict xfail, so the fix has to flip it.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (EstimateRequest, ExperimentRequest, Session,
                       SweepRequest, ValidateRequest)
from repro.core.layer import ConvLayerConfig, LinearLayerConfig
from repro.core.model import DeltaModel
from repro.core.workload import MAX_BATCH, PASS_KINDS, lower_pass
from repro.dse.space import Axis, DesignPoint
from repro.gpu import TESLA_V100, TITAN_XP
from repro.gpu.design_options import DesignOption
from repro.networks import available_networks, get_network

MULTIPLIERS = st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.0, 4.0))


@st.composite
def scaled_gpus(draw):
    return draw(st.sampled_from((TITAN_XP, TESLA_V100))).scaled(
        num_sm=draw(MULTIPLIERS), mac_bw=draw(MULTIPLIERS),
        regs=draw(MULTIPLIERS), smem_size=draw(MULTIPLIERS),
        smem_bw=draw(MULTIPLIERS), l1_bw=draw(MULTIPLIERS),
        l2_bw=draw(MULTIPLIERS), dram_bw=draw(MULTIPLIERS))


@st.composite
def layers(draw):
    if draw(st.booleans()):
        in_size = draw(st.integers(min_value=4, max_value=64))
        return ConvLayerConfig.square(
            "conv", batch=draw(st.integers(min_value=1, max_value=64)),
            in_channels=draw(st.integers(min_value=1, max_value=512)),
            in_size=in_size,
            out_channels=draw(st.integers(min_value=1, max_value=512)),
            filter_size=draw(st.sampled_from(
                [size for size in (1, 3, 5) if size <= in_size])),
            stride=draw(st.integers(min_value=1, max_value=2)),
            padding=draw(st.integers(min_value=0, max_value=2)))
    return LinearLayerConfig(
        name="linear", batch=draw(st.integers(min_value=1, max_value=256)),
        in_features=draw(st.integers(min_value=1, max_value=4096)),
        out_features=draw(st.integers(min_value=1, max_value=4096)),
        dtype_bytes=draw(st.sampled_from((2, 4))))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gpu=scaled_gpus(), layer_list=st.lists(layers(), min_size=1,
                                               max_size=6),
       tile=st.sampled_from((128, 256)))
def test_every_estimate_is_finite_and_positive(gpu, layer_list, tile):
    workloads = [lower_pass(layer, kind)
                 for layer in layer_list for kind in PASS_KINDS]
    for estimate in DeltaModel(gpu, cta_tile_hw=tile).estimate_many(
            workloads):
        assert math.isfinite(estimate.time_seconds)
        assert estimate.time_seconds > 0


@pytest.mark.xfail(strict=True, reason=(
    "L2/DRAM bandwidth is shared among all SMs, not the occupied ones, so "
    "MLP forward on TITAN Xp takes 2.98 ms at 2x SMs and 4.38 ms at 4x"))
def test_more_sms_never_slower_mlp_forward():
    layers_ = get_network("mlp", batch=256).gemm_layers()
    times = {multiplier: DeltaModel(TITAN_XP.scaled(num_sm=multiplier))
             .total_time(layers_) for multiplier in (2.0, 4.0)}
    assert times[4.0] <= times[2.0]


@pytest.mark.parametrize("network", available_networks())
def test_largest_accepted_batch_gives_finite_positive_times(network):
    # MAX_BATCH is the request bound; past 2**40 the model overflows.
    report = Session().run(EstimateRequest(network, gpu="v100",
                                           batch=MAX_BATCH, unique=True,
                                           passes="training"))
    times = [row["time_ms"] for row in report.rows]
    assert times and all(math.isfinite(t) and t > 0 for t in times)


@pytest.mark.parametrize("batch", [0, MAX_BATCH + 1, 2**40])
def test_batch_outside_the_bound_is_rejected_at_construction(batch):
    with pytest.raises(ValueError, match="batch must be positive and at most"):
        EstimateRequest("alexnet", batch=batch)
    with pytest.raises(ValueError, match="batches must be positive and at"):
        SweepRequest(batches=(64, batch))
    with pytest.raises(ValueError, match="batch must be positive and at most"):
        ValidateRequest(batch=batch)
    with pytest.raises(ValueError, match="batch must be positive and at most"):
        ExperimentRequest("tab01", batch=batch)
    with pytest.raises(ValueError, match="batch must be positive and at most"):
        DesignPoint(option=DesignOption(name="baseline"), batch=batch)
    with pytest.raises(ValueError, match="batch' value must be positive and"):
        Axis("batch", (16, batch))
