"""``DeltaModel.estimate_many``: dedupe, one batched evaluation, fan-out.

Every production estimate goes through one call that evaluates each distinct
workload once and fans the rows back out in input order.  This suite pins:

* row-for-row equality with the scalar reference model
  (tests/model_reference.py) on random conv, linear and batched-GEMM
  geometries, shuffled and repeated, for every pass kind and both CTA-tile
  families, and for the fixed-miss-rate baseline;
* rows in input order, each carrying its own layer name and pass kind;
* the keyed training step (``estimate_training_step`` and the executor's
  ``_estimate_rows``), which lowers and estimates each distinct (layer,
  pass) once, against a per-row ``model.estimate(lower_pass(...))`` loop:
  names, order and float bits of rows, summary, aggregates and records;
* served estimate reports byte for byte: the ``content_json()`` digests of 24
  estimate requests were recorded from the scalar-path implementation, and
  more from the per-row lowering implementation.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.executor import _estimate_rows
from repro.api.requests import EstimateRequest, SweepRequest
from repro.api.session import Session
from repro.core.baselines import FixedMissRateModel
from repro.core.layer import (BatchedGemmLayerConfig, ConvLayerConfig,
                              LinearLayerConfig)
from repro.core.model import DeltaModel
from repro.core.traffic import TrafficModel
from repro.core.training import estimate_training_step
from repro.core.workload import PASS_KINDS, lower_pass
from repro.obs import spans as obs_spans
from repro.gpu import TESLA_P100, TESLA_V100, TITAN_XP

from model_reference import PerformanceModel

DTYPES = st.sampled_from((2, 4))


@st.composite
def conv_layers(draw):
    in_size = draw(st.integers(min_value=4, max_value=64))
    return ConvLayerConfig.square(
        "conv",
        batch=draw(st.integers(min_value=1, max_value=32)),
        in_channels=draw(st.integers(min_value=1, max_value=256)),
        in_size=in_size,
        out_channels=draw(st.integers(min_value=1, max_value=256)),
        filter_size=draw(st.sampled_from(
            [size for size in (1, 3, 5, 7) if size <= in_size])),
        stride=draw(st.integers(min_value=1, max_value=3)),
        padding=draw(st.integers(min_value=0, max_value=2)),
    ).with_dtype(draw(DTYPES))


@st.composite
def linear_layers(draw):
    return LinearLayerConfig(
        name="linear",
        batch=draw(st.integers(min_value=1, max_value=64)),
        in_features=draw(st.integers(min_value=1, max_value=2048)),
        out_features=draw(st.integers(min_value=1, max_value=2048)),
        rows_per_sample=draw(st.integers(min_value=1, max_value=128)),
        dtype_bytes=draw(DTYPES),
    )


@st.composite
def batched_gemm_layers(draw):
    return BatchedGemmLayerConfig(
        name="bgemm",
        batch=draw(st.integers(min_value=1, max_value=8)),
        groups_per_sample=draw(st.integers(min_value=1, max_value=16)),
        m=draw(st.integers(min_value=1, max_value=512)),
        n=draw(st.integers(min_value=1, max_value=512)),
        k=draw(st.integers(min_value=1, max_value=512)),
        dtype_bytes=draw(DTYPES),
    )


@st.composite
def shuffled_sources(draw):
    """Rows over a few distinct geometries, repeated in random order, each
    renamed and lowered to a random pass (forward rows sometimes stay
    layers).  Returns ``(sources, names, pass_kinds)``."""
    distinct = draw(st.lists(
        st.one_of(conv_layers(), linear_layers(), batched_gemm_layers()),
        min_size=1, max_size=5))
    picks = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(distinct) - 1),
                  st.sampled_from(PASS_KINDS), st.booleans()),
        min_size=1, max_size=16))
    sources, names, kinds = [], [], []
    for row, (index, kind, as_layer) in enumerate(picks):
        layer = dataclasses.replace(distinct[index], name=f"row{row}")
        source = (layer if kind == "forward" and as_layer
                  else lower_pass(layer, kind))
        sources.append(source)
        names.append(layer.name)
        kinds.append(kind)
    return sources, names, kinds


GPUS = st.sampled_from((TITAN_XP, TESLA_P100, TESLA_V100,
                        TITAN_XP.scaled(num_sm=2.0, mac_bw=4.0, l2_bw=1.5,
                                        dram_bw=2.0)))

FANOUT_SETTINGS = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _assert_rows_match(estimates, references, names, kinds):
    assert len(estimates) == len(references) == len(names)
    for row, (est, ref) in enumerate(zip(estimates, references)):
        assert est.time_seconds == ref.time_seconds, row
        assert est.bottleneck == ref.bottleneck, row
        for level in ("l1", "l2", "dram"):
            assert (est.traffic.level_bytes(level)
                    == ref.traffic.level_bytes(level)), (row, level)
        assert est.active_ctas == ref.active_ctas, row
        assert est.ctas_per_sm == ref.ctas_per_sm, row
        assert est.layer.name == names[row]
        assert est.pass_kind == kinds[row]


@FANOUT_SETTINGS
@given(case=shuffled_sources(), gpu=GPUS, tile=st.sampled_from((128, 256)))
def test_estimate_many_matches_oracle_row_for_row(case, gpu, tile):
    sources, names, kinds = case
    estimates = DeltaModel(gpu, cta_tile_hw=tile).estimate_many(sources)
    oracle = PerformanceModel(gpu, TrafficModel(gpu=gpu, cta_tile_hw=tile))
    _assert_rows_match(estimates, [oracle.estimate(source)
                                   for source in sources], names, kinds)


@FANOUT_SETTINGS
@given(case=shuffled_sources(), gpu=GPUS,
       miss_rate=st.sampled_from((0.3, 0.5, 0.7, 1.0)))
def test_fixed_miss_rate_model_matches_oracle(case, gpu, miss_rate):
    sources, names, kinds = case
    prior = FixedMissRateModel(gpu, miss_rate=miss_rate)
    oracle = PerformanceModel(gpu)
    references = []
    for source in sources:
        traffic = prior.traffic(source)
        references.append(oracle.estimate(traffic.workload, traffic=traffic))
    _assert_rows_match(prior.estimate_many(sources), references, names, kinds)


def test_estimate_is_a_one_row_estimate_many(reference_conv_layer):
    model = DeltaModel(TITAN_XP)
    (many,) = model.estimate_many([reference_conv_layer])
    one = model.estimate(reference_conv_layer)
    assert (one.time_seconds, one.bottleneck, one.active_ctas,
            one.ctas_per_sm) == (many.time_seconds, many.bottleneck,
                                 many.active_ctas, many.ctas_per_sm)


def test_estimate_many_of_nothing_is_empty():
    assert DeltaModel(TITAN_XP).estimate_many([]) == []


def test_repeated_layers_share_one_traffic_estimate():
    model = DeltaModel(TITAN_XP)
    layer = LinearLayerConfig(name="a", batch=8, in_features=512,
                              out_features=512)
    twin = dataclasses.replace(layer, name="b")
    first, second, other = model.estimate_many(
        [layer, twin, lower_pass(layer, "dgrad")])
    assert first.traffic is second.traffic
    assert other.traffic is not first.traffic
    assert (first.layer.name, second.layer.name) == ("a", "b")


# ----------------------------------------------------------------------
# The keyed training step equals a per-row lowering loop
# ----------------------------------------------------------------------

#: every non-empty ordered tuple of distinct passes.
PASS_TUPLES = [tuple(order) for size in range(1, len(PASS_KINDS) + 1)
               for order in itertools.permutations(PASS_KINDS, size)]


@st.composite
def repeated_layers(draw):
    """A layer list over a few distinct structures, repeated in random
    order, every layer under its own name."""
    distinct = draw(st.lists(
        st.one_of(conv_layers(), linear_layers(), batched_gemm_layers()),
        min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(min_value=0,
                                      max_value=len(distinct) - 1),
                          min_size=1, max_size=12))
    return [dataclasses.replace(distinct[index], name=f"layer{row}")
            for row, index in enumerate(picks)]


def _per_row_loop(model, layers, passes):
    """``(layer, pass, estimate)`` of every row, each lowered and
    estimated on its own."""
    return [(layer, kind, model.estimate(lower_pass(layer, kind)))
            for layer in layers for kind in passes]


def _reference_rows(loop, with_pass):
    rows = []
    for layer, kind, estimate in loop:
        row = {"layer": layer.name}
        if with_pass:
            row["pass"] = kind
        row.update({
            "time_ms": estimate.time_seconds * 1e3,
            "bottleneck": estimate.bottleneck.value,
            "TFLOP/s": estimate.throughput_tflops,
            "L1_GB": estimate.traffic.level_bytes("l1") / 1e9,
            "L2_GB": estimate.traffic.level_bytes("l2") / 1e9,
            "DRAM_GB": estimate.traffic.level_bytes("dram") / 1e9,
        })
        rows.append(row)
    return rows


def _bits(payload):
    """Key order and float bits (``repr`` round-trips every float)."""
    return json.dumps(payload)


@FANOUT_SETTINGS
@given(layers=repeated_layers(), passes=st.sampled_from(PASS_TUPLES),
       gpu=GPUS)
def test_keyed_step_matches_per_row_loop(layers, passes, gpu):
    model = DeltaModel(gpu)
    loop = _per_row_loop(model, layers, passes)
    step = estimate_training_step(model, layers, passes=passes)

    assert _bits(step.rows()) == _bits(_reference_rows(loop, True))
    assert _bits(_estimate_rows(model, layers, passes)) == _bits(
        _reference_rows(loop, passes != ("forward",)))

    by_pass = {kind: 0.0 for kind in passes}
    for _, kind, estimate in loop:
        by_pass[kind] += estimate.time_seconds
    total = sum(estimate.time_seconds for _, _, estimate in loop)
    summary = {"total step time (ms)": total * 1e3}
    summary.update({f"{kind} time (ms)": seconds * 1e3
                    for kind, seconds in by_pass.items()})
    summary["total DRAM (GB)"] = sum(
        estimate.traffic.level_bytes("dram") for _, _, estimate in loop) / 1e9
    summary["layer GEMMs"] = len(loop)
    assert _bits(step.summary()) == _bits(summary)
    assert step.total_time_seconds == total
    assert step.time_by_pass == by_pass
    assert step.total_macs == sum(estimate.workload.macs
                                  for _, _, estimate in loop)
    for level in ("l1", "l2", "dram"):
        levels = {kind: 0.0 for kind in passes}
        for _, kind, estimate in loop:
            levels[kind] += estimate.traffic.level_bytes(level)
        assert step.traffic_by_pass(level) == levels
        assert step.total_traffic_bytes(level) == sum(
            estimate.traffic.level_bytes(level) for _, _, estimate in loop)

    assert len(step.records) == len(loop)
    for record, (layer, kind, estimate) in zip(step.records, loop):
        assert (record.layer_name, record.pass_kind) == (layer.name, kind)
        assert record.estimate.workload.structural_key() \
            == estimate.workload.structural_key()
        assert (record.time_seconds, record.estimate.bottleneck,
                record.estimate.active_ctas, record.estimate.ctas_per_sm) \
            == (estimate.time_seconds, estimate.bottleneck,
                estimate.active_ctas, estimate.ctas_per_sm)
        for level in ("l1", "l2", "dram"):
            assert record.traffic_bytes(level) \
                == estimate.traffic.level_bytes(level)


def test_keyed_step_estimates_each_distinct_workload_once():
    layer = LinearLayerConfig(name="a", batch=8, in_features=512,
                              out_features=256)
    layers = [layer, dataclasses.replace(layer, name="b"),
              dataclasses.replace(layer, name="c", out_features=128), layer]
    step = estimate_training_step(DeltaModel(TITAN_XP), layers)
    assert len(step.estimates) == 2 * len(PASS_KINDS)
    assert len(step.index) == len(layers) * len(PASS_KINDS)
    assert [row["layer"] for row in step.rows()] == [
        name for name in "abca" for _ in PASS_KINDS]


def test_deep_trace_names_the_model_phases(session):
    request = EstimateRequest(network="resnet152", gpu="v100",
                              passes="training", unique=False)
    with obs_spans.collect_trace(deep=True) as trace:
        report = session.run(request)
    assert report.kind == "estimate"
    spans = {span.name: span for span in trace.spans}
    parent = spans["model.estimate"]
    for name in ("model.lower", "model.traffic", "model.grid",
                 "model.rows"):
        span = spans[name]
        assert span.parent == parent.span_id, name
        assert span.attrs["pairs"] == len(report.rows), name
        assert 0 < span.attrs["keys"] < span.attrs["pairs"], name


# ----------------------------------------------------------------------
# Served reports are byte-identical to the scalar-path implementation
# ----------------------------------------------------------------------

NETWORKS = ("alexnet", "vgg16", "googlenet", "resnet152", "mlp", "bert-base")
PASSES = ("forward", "dgrad", "wgrad", "training")
GPU_NAMES = ("titanxp", "p100", "v100")

#: sha256 of ``content_json()`` per "network/passes/gpu" (batch 256, every
#: layer), recorded from the implementation that timed each layer with the
#: scalar performance model.
REPORT_DIGESTS = {
    "alexnet/forward/titanxp":
        "94e8a9e8c90c59b35ad91c206c2411f67459c7ef0d9b7ba9f4a8b96c36f728f7",
    "alexnet/dgrad/p100":
        "383f1da46ec6fd5090d1b7f8aadf5bfdcde5a07bfc8b0eb8730518837d53989a",
    "alexnet/wgrad/v100":
        "1ac8e5f761a2fff3bd94587d5b4b3394ea1ef71e9078670e25a3443181c8e3c4",
    "alexnet/training/titanxp":
        "a986dc93e05e08a799bc3a69df0f38664b80f77c7d925d5bac17c41f867b5c20",
    "vgg16/forward/p100":
        "2f2a3085a629c1496fc4634256d1ff195105e22588377b44cd9f9c372d65a3bc",
    "vgg16/dgrad/v100":
        "08b6703e8d45cf2e72685a86d187a2a9776a07253d49249e88c474e920a35f03",
    "vgg16/wgrad/titanxp":
        "aa0bb2a5595cf966c8dccfa40ecc5f8a6afa0ccc7e694a9cb7669babd7460864",
    "vgg16/training/p100":
        "3c6a070fbafb54bcddd39cd11a89a12394008c67e822111c9853fbbe27699f97",
    "googlenet/forward/v100":
        "27003df9998916478f30cd751137433bfcadcc282d2b371f4b1a3e7947a9f95e",
    "googlenet/dgrad/titanxp":
        "9c3c1046d4cbd1fe31f41112fdf5023fbd763d71d2d2556db1279f21dc1e24e7",
    "googlenet/wgrad/p100":
        "a37e060ae4da4e74b80a8c24773e6566c29199d453ce6d4d6381f9a056a4ee3d",
    "googlenet/training/v100":
        "7cec3204594937a56a7f11231117853e3377bac1d5ad2574cb25ff51fd463b52",
    "resnet152/forward/titanxp":
        "148214ec508842aa0c258866f6d86b34f3dc3f1746f4ad24a5aa77c5e6967ae5",
    "resnet152/dgrad/p100":
        "2872c0853d37aa7bc1f1a9d0eb1db6b59334f80818b66f620b9f064e21330301",
    "resnet152/wgrad/v100":
        "5e3a3c65c77c8eed9ae0ef9f999d01081a933a6fa6599d3aa38a87df4bc37eea",
    "resnet152/training/titanxp":
        "7c62fe269df06884adfa372b6d92a897d799497a40635efc9b98df26400417a5",
    "mlp/forward/p100":
        "89f7f32ab72c75111a7a9ddc55550853556508479435ef1905d708fb08951388",
    "mlp/dgrad/v100":
        "a2b416bd7b9ccbb0319372ce4dfe6624fda8ad6e4956ed995fff0f041dac647b",
    "mlp/wgrad/titanxp":
        "491320767a95a774a7fdc1aca3f10c5721a8536c617a2fd13361f6ce7f604941",
    "mlp/training/p100":
        "ece60602aeb3cb4cf703e04116fcc2b2c4fa0b58b7652c65122698633ab7e9e2",
    "bert-base/forward/v100":
        "371426221ab6dc40caf0ccf7a1c9e34ac096519902ee621afeb03e78cd3f65af",
    "bert-base/dgrad/titanxp":
        "691223237cc0e2206a5d0b80c164de57d3b4b3b9d841948b68874379f3baa619",
    "bert-base/wgrad/p100":
        "48ec1cd2b2b1e19bd6c9df86e8c9ff86ed9152d46755c3e1d96ac1f42b7a214b",
    "bert-base/training/v100":
        "f30c43baa25dc636bb2abc61edf5b53804d2606fd27e671d796a96557c647923",
}

#: 6 networks x 4 passes, the GPU rotating through the three devices.
REPORT_CASES = [(network, passes, GPU_NAMES[index % len(GPU_NAMES)])
                for index, (network, passes)
                in enumerate(itertools.product(NETWORKS, PASSES))]


@pytest.fixture(scope="module")
def session():
    with Session() as session:
        yield session


@pytest.mark.parametrize("network,passes,gpu", REPORT_CASES)
def test_served_report_bytes_pinned(session, network, passes, gpu):
    report = session.run(EstimateRequest(network=network, gpu=gpu,
                                         passes=passes, unique=False))
    assert report.kind == "estimate", report.summary
    digest = hashlib.sha256(report.content_json().encode()).hexdigest()
    assert digest == REPORT_DIGESTS[f"{network}/{passes}/{gpu}"]


def test_report_cases_cover_every_digest():
    assert len(REPORT_CASES) == 24
    assert {f"{n}/{p}/{g}" for n, p, g in REPORT_CASES} == set(REPORT_DIGESTS)


#: sha256 of ``content_json()`` of requests the digests above leave out:
#: ``unique=True`` training at an odd batch, a paper-subset request and
#: training-pass sweeps.  Recorded from the implementation that lowered
#: and built a row for every (layer, pass) pair.
EXTRA_REPORT_DIGESTS = {
    "unique/alexnet/training/titanxp/47":
        "dc64a27db12a83703c726b48a3f809447bcedaee5061d415081a9d211a0ad40b",
    "unique/vgg16/training/p100/47":
        "e84a840620d7a08364a6c614d1d28e26ec36995cdd1e481e025a9419ea684de0",
    "unique/googlenet/training/v100/47":
        "13fcea667e85273c488a14e8b13be606974470b99a5a7ffbfb68e4e2d80378af",
    "unique/resnet152/training/titanxp/47":
        "73ab99a15f4e1282c79a4d619bb138de1402bc79ae6f57f3fc0fc13863405880",
    "unique/mlp/training/p100/47":
        "f7a4e21f58c8e296306ec0aa0b5853ef92b811fd5b06070525a4c486dd04ece4",
    "unique/bert-base/training/v100/47":
        "e980e2a976b8adbcaabc307692e49933c8459e6d65f24f39d5fbb4ccfa69c351",
    "paper-subset/resnet152/training/p100/64":
        "1f0400676969853148eafd342120f66cf2a6167d930530c95358e701b752637e",
    "sweep/googlenet+bert-base/training/v100/31+128":
        "53981942da8833064be3ccc3c049ec0d3903bee78df0e3007f4ff19f8294eba9",
    "sweep/resnet152+mlp/dgrad/titanxp+v100/47+256/every-layer":
        "0a7d5ba2cdecce37d9146ed0d22cf6470de2a650c51be181f3496b2140a2fe2b",
}

EXTRA_REPORT_REQUESTS = {
    **{f"unique/{network}/training/{GPU_NAMES[index % len(GPU_NAMES)]}/47":
       EstimateRequest(network=network, gpu=GPU_NAMES[index % len(GPU_NAMES)],
                       batch=47, passes="training", unique=True)
       for index, network in enumerate(NETWORKS)},
    "paper-subset/resnet152/training/p100/64":
        EstimateRequest(network="resnet152", gpu="p100", batch=64,
                        passes="training", paper_subset=True),
    "sweep/googlenet+bert-base/training/v100/31+128":
        SweepRequest(networks=("googlenet", "bert-base"), gpus=("v100",),
                     batches=(31, 128), passes="training"),
    "sweep/resnet152+mlp/dgrad/titanxp+v100/47+256/every-layer":
        SweepRequest(networks=("resnet152", "mlp"), gpus=("titanxp", "v100"),
                     batches=(47, 256), passes="dgrad", unique=False,
                     paper_subset=False),
}


@pytest.mark.parametrize("case", sorted(EXTRA_REPORT_DIGESTS))
def test_more_served_report_bytes_pinned(session, case):
    report = session.run(EXTRA_REPORT_REQUESTS[case])
    assert report.kind in ("estimate", "sweep"), report.summary
    digest = hashlib.sha256(report.content_json().encode()).hexdigest()
    assert digest == EXTRA_REPORT_DIGESTS[case]


def test_extra_cases_cover_every_digest():
    assert set(EXTRA_REPORT_REQUESTS) == set(EXTRA_REPORT_DIGESTS)
