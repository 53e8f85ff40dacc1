"""Tests for the DSE orchestrator (repro.dse.runner) and its API surface:
the fig16 golden pin, point evaluation semantics, session integration and
the DseRequest execution path."""

import json
from pathlib import Path

import pytest

from repro.api import DseRequest, Session
from repro.dse import (
    DesignPoint,
    confirm_frontier,
    explore,
    grid,
    runner,
    space_from_options,
)
from repro.experiments.fig16_scaling import run as run_fig16
from repro.gpu import PAPER_DESIGN_OPTIONS, TITAN_XP, DesignOption

from model_reference import evaluate_point

#: the Fig. 16 study on ResNet152 at batch 64 (all 156 GEMM layers), frozen
#: from the hand-enumerated per-option study the DSE replaced; floats are
#: stored repr-exact, so ``==`` comparisons are bit-for-bit.
GOLDEN_FIG16 = Path(__file__).with_name("golden_fig16.json")


@pytest.fixture(scope="module")
def small_space():
    return grid({"num_sm": (1, 2), "mac_bw": (1, 4), "dram_bw": (1, 2)},
                network="alexnet", batch=16)


class TestFig16Equivalence:
    """Acceptance: the DSE-backed fig16 reproduces the frozen
    hand-enumerated study (tests/golden_fig16.json) bit for bit."""

    @pytest.fixture(scope="class")
    def legacy(self):
        with open(GOLDEN_FIG16, encoding="utf-8") as handle:
            return json.load(handle)["options"]

    @pytest.fixture(scope="class")
    def dse_result(self):
        return run_fig16(batch=64)

    def test_speedups_bit_identical(self, legacy, dse_result):
        rows = [row for row in dse_result.rows if "speedup" in row]
        assert len(rows) == len(legacy) == 9
        for old, row in zip(legacy, rows):
            assert row["option"] == old["option"]
            assert row["speedup"] == old["speedup"]
            assert row["total_time_ms"] == old["total_time_s"] * 1e3

    def test_bottleneck_distributions_bit_identical(self, legacy, dse_result):
        bottleneck_rows = [row for row in dse_result.rows
                           if "speedup" not in row and "NSM" not in row]
        assert len(bottleneck_rows) == len(legacy)
        for old, row in zip(legacy, bottleneck_rows):
            assert row["option"] == old["option"]
            assert {k: v for k, v in row.items()
                    if k != "option"} == old["bottlenecks"]

    def test_series_and_summary_shape_preserved(self, dse_result):
        assert "speedup vs TITAN Xp" in dse_result.series
        assert len(dse_result.series["speedup vs TITAN Xp"]) == 9
        assert dse_result.summary["best_option"] == "9"
        assert dse_result.summary["layers"] == 156


class TestEvaluatePoint:
    def test_identity_point_matches_direct_model(self):
        from repro.core.model import DeltaModel
        from repro.networks import alexnet
        point = DesignPoint(option=DesignOption("baseline"),
                            network="alexnet", batch=16)
        metrics = evaluate_point(TITAN_XP, point, unique=False)
        model = DeltaModel(TITAN_XP)
        expected = sum(model.estimate(layer).time_seconds
                       for layer in alexnet(batch=16).gemm_layers())
        assert metrics["time_s"] == expected

    def test_training_pass_evaluates_three_gemms_per_layer(self):
        point = DesignPoint(option=DesignOption("baseline"),
                            network="alexnet", batch=16, passes="training")
        metrics = evaluate_point(TITAN_XP, point, unique=True)
        assert metrics["gemms"] == 3 * metrics["layers"]

    def test_metrics_contract(self):
        point = DesignPoint(option=DesignOption("x", num_sm=2.0),
                            network="alexnet", batch=16)
        metrics = evaluate_point(TITAN_XP, point)
        for key in ("time_s", "throughput_tflops", "dram_gb", "l2_gb",
                    "resource_cost", "layers", "gemms", "bottlenecks"):
            assert key in metrics
        assert metrics["time_s"] > 0
        assert sum(metrics["bottlenecks"].values()) == pytest.approx(1.0)

    def test_layer_stride_subsamples(self):
        point = DesignPoint(option=DesignOption("baseline"),
                            network="vgg16", batch=16)
        full = evaluate_point(TITAN_XP, point, unique=True)
        proxy = evaluate_point(TITAN_XP, point, unique=True, layer_stride=4)
        assert proxy["layers"] < full["layers"]
        assert proxy["time_s"] < full["time_s"]


class TestExplore:
    def test_full_and_proxy_chunks_fire_their_fault_sites(self, monkeypatch):
        # one worker task serves both evaluations; the proxy's fault sites
        # keep their "proxy:" prefix so fault plans can target either.
        fired = []
        monkeypatch.setattr(runner.faults, "active", lambda: True)
        monkeypatch.setattr(runner.faults, "fire",
                            lambda site, description: fired.append(
                                (site, description)))
        point = DesignPoint(option=DesignOption("wide", num_sm=2.0),
                            network="alexnet", batch=16)
        full = runner._evaluate_batch_task((TITAN_XP, (point,), True, 1))
        proxy = runner._evaluate_batch_task(
            (TITAN_XP, (point,), True, runner.PROXY_LAYER_STRIDE))
        assert fired == [("dse", "wide/alexnet/b16"),
                         ("dse", "proxy:wide/alexnet/b16")]
        assert full == [evaluate_point(TITAN_XP, point, unique=True)]
        assert proxy == [evaluate_point(TITAN_XP, point, unique=True,
                                        layer_stride=4)]

    def test_exhaustive_explore_shape(self, small_space):
        result = explore(small_space)
        assert len(result.results) == len(small_space)
        assert result.stats.planned == len(small_space)
        assert 0 < len(result.frontier) <= len(small_space)
        for index in result.frontier:
            assert result.results[index].metrics["time_s"] > 0

    def test_speedup_against_identity_baseline(self, small_space):
        result = explore(small_space)
        by_name = {r.point.name: r for r in result.results}
        assert result.speedup(by_name["baseline"]) == pytest.approx(1.0)
        assert result.speedup(by_name["num_sm=2,mac_bw=4,dram_bw=2"]) > 1.0

    def test_frontier_rows_ranked_by_primary_objective(self, small_space):
        result = explore(small_space, objectives=("throughput", "cost"))
        rows = result.frontier_rows()
        tputs = [row["TFLOP/s"] for row in rows]
        assert tputs == sorted(tputs, reverse=True)
        assert rows[0]["rank"] == 1

    def test_without_baseline(self, small_space):
        result = explore(small_space, include_baseline=False)
        assert result.baselines == {}
        assert all("speedup" not in row for row in result.frontier_rows())

    def test_session_memo_dedupes_across_explores(self, small_space):
        with Session() as session:
            first = explore(small_space, session=session)
            second = explore(small_space, session=session)
        assert first.stats.evaluated > 0
        assert second.stats.evaluated == 0
        # the identity point is part of the grid, so the implicit baseline
        # shares its key: one memo hit per unique content key.
        assert second.stats.memo_hits == len(small_space)
        assert session.stats.dse_points == first.stats.evaluated
        assert session.stats.dse_memo_hits == second.stats.memo_hits


class TestConfirmFrontier:
    def test_attaches_simulator_ratio_to_top_points(self, small_space):
        with Session() as session:
            result = explore(small_space, session=session)
            confirmed = confirm_frontier(result, session, top=1, max_ctas=10)
        attached = [r for r in confirmed.results if r.confirmation is not None]
        assert len(attached) == 1
        record = attached[0].confirmation
        assert record["sim_time_s"] > 0
        assert record["model_time_s"] > 0
        assert record["sim_model_ratio"] == pytest.approx(
            record["sim_time_s"] / record["model_time_s"])

    def test_zero_top_is_noop(self, small_space):
        result = explore(small_space)
        assert confirm_frontier(result, None, top=0) is result

    def test_confirmation_simulates_the_points_cta_tile(self, monkeypatch):
        """The simulator must run the same kernel family the design declares
        (a 256-tile frontier point simulated with the 128-tile kernel would
        'confirm' the wrong design)."""
        space = grid({"mac_bw": (4,), "cta_tile": (256,)},
                     network="alexnet", batch=8)
        with Session() as session:
            result = explore(space, session=session)
            captured = {}
            original = session.simulate

            def spy(gpu, layer, config=None, pass_kind="forward"):
                captured["config"] = config
                return original(gpu, layer, config, pass_kind=pass_kind)

            monkeypatch.setattr(session, "simulate", spy)
            confirm_frontier(result, session, top=1, max_ctas=8)
        assert captured["config"].cta_tile_hw == 256


class TestDseRequest:
    def test_request_validation(self, small_space):
        with pytest.raises(TypeError, match="SearchSpace"):
            DseRequest(space="not a space")
        with pytest.raises(ValueError, match="unknown driver"):
            DseRequest(space=small_space, driver="genetic")
        with pytest.raises(ValueError, match="requires a budget"):
            DseRequest(space=small_space, driver="random")
        with pytest.raises(ValueError, match="unknown objective"):
            DseRequest(space=small_space, objectives=("speed",))

    def test_session_run_produces_dse_report(self, small_space, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        request = DseRequest(space=small_space, store_path=store)
        with Session() as session:
            report = session.run(request)
        assert report.kind == "dse"
        assert report.summary["frontier size"] == len(report.rows)
        assert report.meta["space_size"] == len(small_space)
        assert report.meta["store_path"] == store
        assert report.children  # the what-to-scale-next sub-report
        assert report.children[0].kind == "dse-recommendations"
        # the report round-trips through JSON like every other report kind.
        from repro.api import Report
        clone = Report.from_json(report.to_json())
        assert clone.rows == report.rows

    def test_store_makes_second_request_free(self, small_space, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        request = DseRequest(space=small_space, store_path=store)
        with Session() as session:
            session.run(request)
        with Session() as fresh_session:
            report = fresh_session.run(request)
        assert report.summary["points evaluated"] == 0
        assert report.summary["store hits"] == len(small_space)


class TestDseExperiment:
    def test_registered_and_runs(self):
        from repro.experiments.registry import get_experiment_spec
        spec = get_experiment_spec("dse")
        assert spec.fast
        result = spec.runner(network="alexnet", batch=16,
                             space=grid({"num_sm": (1, 2), "dram_bw": (1, 2)},
                                        network="alexnet", batch=16))
        assert result.experiment_id == "dse"
        assert result.summary["frontier size"] >= 1
        assert any("scale_next" in row for row in result.rows)

    def test_fig16_space_reusable_through_experiment_request(self):
        """The nine-column paper table runs as a DSE space end to end."""
        from repro.api import ExperimentRequest
        space = space_from_options(PAPER_DESIGN_OPTIONS, network="alexnet",
                                   batch=16)
        with Session() as session:
            report = session.run(ExperimentRequest(
                "dse", options={"space": space, "network": "alexnet",
                                "batch": 16}))
        assert report.kind == "experiment"
        assert report.summary["space points"] == 9
