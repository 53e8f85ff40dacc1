"""Tests for the session-based public API: Session, requests, batching."""


import pytest

from repro.analysis.validation import ValidationConfig, select_layers
from repro.api import (
    EstimateRequest,
    ExperimentRequest,
    Report,
    Session,
    SweepRequest,
    ValidateRequest,
    configure_default_session,
    current_session,
    default_session,
    reset_default_session,
    use_session,
)
from repro.experiments import fig13_perf_titanxp
from repro.gpu import TITAN_XP

#: the tiny scale every simulation-backed test here runs at.
TINY = dict(batch=4, max_ctas=40, layers_per_network=1)
TINY_CONFIG = ValidationConfig(**TINY)


class TestSessionPolicy:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Session(jobs=0)
        with pytest.raises(ValueError):
            Session().jobs = -1

    def test_precision_must_be_non_negative(self):
        with pytest.raises(ValueError):
            Session(precision=-1)

    def test_context_manager_closes_pool(self):
        with Session(jobs=2) as session:
            pass
        assert session._pool is None


class TestContextLocalSession:
    def test_current_falls_back_to_default(self):
        assert current_session() is default_session()

    def test_use_session_scopes_the_active_session(self):
        session = Session(jobs=2)
        with use_session(session):
            assert current_session() is session
            assert current_session().jobs == 2
        assert current_session() is not session
        assert current_session().jobs == 1

    def test_configure_default_session(self):
        configure_default_session(jobs=5, precision=4,
                                  sim_cache_dir="/tmp/default-cache")
        assert default_session().jobs == 5
        assert default_session().precision == 4
        # with no session in use, the active policy is the default's.
        assert current_session().jobs == 5
        assert current_session().sim_cache_dir == "/tmp/default-cache"
        # the autouse fixture restores the policy afterwards

    def test_reset_default_session_makes_a_fresh_one(self):
        before = default_session()
        reset_default_session()
        after = default_session()
        assert after is not before
        assert after.jobs == 1


class TestEstimateRequests:
    def test_estimate_produces_report(self):
        with Session() as session:
            report = session.run(EstimateRequest("alexnet", gpu="v100",
                                                 batch=32, unique=True))
        assert isinstance(report, Report)
        assert report.kind == "estimate"
        assert report.title == "AlexNet on V100 (batch 32)"
        # five unique convolutions plus the fc6-fc8 classifier tail.
        assert len(report.rows) == 8
        assert report.summary["total conv time (ms)"] > 0
        assert report.meta["gpu"] == "V100"

    def test_estimate_runs_no_simulation(self):
        with Session() as session:
            session.run(EstimateRequest("googlenet", batch=16))
            assert session.stats.sim_tasks == 0

    def test_unknown_request_type_raises(self):
        with Session() as session:
            with pytest.raises(TypeError):
                session.run(object())


class TestSweepRequests:
    def test_sweep_covers_the_cross_product(self):
        request = SweepRequest(networks=("alexnet", "vgg16"),
                               gpus=("titanxp", "v100"), batches=(8, 32))
        with Session() as session:
            report = session.run(request)
        assert report.kind == "sweep"
        assert len(report.rows) == 8
        assert session.stats.sim_tasks == 0
        combos = {(row["network"], row["gpu"], row["batch"])
                  for row in report.rows}
        assert ("AlexNet", "V100", 32) in combos

    def test_sweep_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            SweepRequest(networks=())


class TestValidateRequests:
    def test_validate_report_shape(self):
        request = ValidateRequest(gpu="titanxp", networks=("alexnet",),
                                  **TINY)
        with Session() as session:
            report = session.run(request)
        assert report.kind == "validation"
        assert "model-vs-simulator validation on TITAN Xp" in report.title
        assert len(report.rows) == 1
        assert report.rows[0]["network"] == "AlexNet"
        assert "dram traffic GMAE" in report.summary

    def test_networks_filter_restricts_population(self):
        config = ValidationConfig(batch=8, layers_per_network=2,
                                  networks=("googlenet", "VGG16"))
        population = select_layers(config)
        assert {name for name, _ in population} == {"GoogLeNet", "VGG16"}


class TestBatchExecution:
    def test_run_many_dedupes_shared_units_over_one_pool(self):
        requests = [ExperimentRequest("fig13", **TINY),
                    ExperimentRequest("fig19", **TINY)]
        unique_layers = len({layer for _, layer in select_layers(TINY_CONFIG)})
        with Session(jobs=2) as session:
            reports = session.run_many(requests)
            # fig13 and fig19 validate the same population on the same GPU:
            # every unit simulates exactly once, over a single shared pool.
            assert session.stats.sim_tasks == unique_layers
            assert session.stats.pool_launches == 1
            assert session.stats.sim_memo_hits >= len(select_layers(TINY_CONFIG))
            # a follow-up batch on the same session re-simulates nothing and
            # launches no second pool.
            session.run_many([ExperimentRequest("fig12", **TINY)])
            assert session.stats.sim_tasks == unique_layers
            assert session.stats.pool_launches == 1
        assert [r.report_id for r in reports] == ["fig13", "fig19"]

    def test_config_sim_cache_dir_honored_by_session_path(self, tmp_path):
        config = ValidationConfig(sim_cache_dir=str(tmp_path), **TINY)
        with Session() as session:
            session.validation_report(TITAN_XP, config)
        assert list(tmp_path.glob("delta-sim-*.json"))

    def test_fig17_sims_share_the_session_memo(self):
        request = ExperimentRequest("fig17", max_ctas=30,
                                    options={"sweeps": {"batch": [2]}})
        with Session() as session:
            session.run(request)
            first = session.stats.sim_tasks
            assert first == 1
            session.run(request)
            assert session.stats.sim_tasks == first  # memoized, no re-sim

    def test_plan_follows_gpu_overrides_passed_via_options(self):
        from repro import TESLA_V100
        from repro.api.executor import plan_simulation_units
        request = ExperimentRequest("fig13", options={"gpu": TESLA_V100},
                                    **TINY)
        with Session() as session:
            units = plan_simulation_units(session, [request])
        assert units and all(gpu is TESLA_V100 for gpu, _, _ in units)

    def test_config_jobs_grows_the_shared_pool(self):
        # ValidationConfig(jobs=N) must actually get N workers even when the
        # session itself defaults to serial execution.
        with Session() as session:
            session.validation_report(TITAN_XP, ValidationConfig(jobs=2, **TINY))
            assert session.stats.pool_launches == 1
            assert session._pool_workers == 2

    def test_pool_holds_no_more_workers_than_tasks(self):
        with Session(jobs=4, timeout=30) as session:
            assert session.map_tasks(abs, [-1]) == [1]
            assert session._pool_workers == 1
            assert len(session._pool._processes) == 1
            # a later, larger fan-out grows the shared pool.
            assert session.map_tasks(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
            assert session._pool_workers == 4
            assert len(session._pool._processes) == 4
            assert session.stats.pool_launches == 2

    def test_experiment_report_matches_legacy_run(self):
        request = ExperimentRequest("fig13", **TINY)
        with Session() as session:
            report = session.run(request)
        legacy = fig13_perf_titanxp.run(config=TINY_CONFIG, session=Session())
        assert report.summary == legacy.summary
        assert list(report.rows) == list(legacy.rows)
        assert report.to_experiment().render() == legacy.render()


class TestExperimentOverrides:
    def test_gpu_override_flows_into_the_result(self):
        request = ExperimentRequest("fig13", gpus="v100", **TINY)
        with Session() as session:
            report = session.run(request)
        assert report.summary["gpu"] == "V100"

    def test_network_override_restricts_validation(self):
        request = ExperimentRequest("fig13", networks=("alexnet",), **TINY)
        with Session() as session:
            report = session.run(request)
        assert {row["network"] for row in report.rows} == {"AlexNet"}

    def test_unsupported_override_raises_instead_of_ignoring(self):
        with Session() as session:
            with pytest.raises(ValueError):
                session.run(ExperimentRequest("tab01", networks=("alexnet",)))
            with pytest.raises(ValueError):
                session.run(ExperimentRequest("fig06", gpus=("v100",)))

    def test_unknown_option_raises(self):
        with Session() as session:
            with pytest.raises(TypeError):
                session.run(ExperimentRequest("tab01",
                                              options={"bogus": 1}))

    def test_options_pass_through_to_the_runner(self):
        request = ExperimentRequest(
            "fig06", options={"channel_counts": [8, 40, 80, 200]})
        with Session() as session:
            report = session.run(request)
        assert len(report.rows) == 4


class TestAllExperimentsRunThroughSession:
    """Acceptance: every registered experiment runs via ExperimentRequest."""

    FAST = ("tab01", "fig06", "fig16", "fig18")

    @pytest.mark.parametrize("experiment_id", FAST)
    def test_fast_experiments(self, experiment_id):
        with Session() as session:
            report = session.run(ExperimentRequest(experiment_id))
        assert report.report_id == experiment_id
        assert report.kind == "experiment"

    def test_simulation_backed_experiments(self):
        # one shared session: the validation population simulates once.
        overrides = dict(TINY)
        requests = [ExperimentRequest(experiment_id, gpus="titanxp",
                                      **overrides)
                    for experiment_id in ("fig11", "fig12", "fig13", "fig14",
                                          "fig15", "fig19", "fig20")]
        with Session() as session:
            reports = session.run_many(requests)
        assert [r.report_id for r in reports] == [
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig19", "fig20"]
        unique_layers = len({layer for _, layer in select_layers(TINY_CONFIG)})
        assert session.stats.sim_tasks == unique_layers

    def test_direct_simulation_experiments(self):
        with Session() as session:
            fig04 = session.run(ExperimentRequest(
                "fig04", batch=4, max_ctas=40,
                options={"layer_names": ("3a_1x1",)}))
            assert len(fig04.rows) == 1
            fig17 = session.run(ExperimentRequest(
                "fig17", max_ctas=30,
                options={"sweeps": {"batch": [2, 4]}}))
            assert len(fig17.rows) == 2


class TestWorkUnitDedupe:
    """The executor's dedupe key is the layer's structural key + pass kind."""

    def test_same_structure_different_name_dedupes(self):
        from repro.core.layer import ConvLayerConfig
        from repro.sim.engine import SimulatorConfig
        layer_a = ConvLayerConfig.square("a", 1, 4, 8, 8, 3, padding=1)
        layer_b = layer_a.with_name("b")
        assert layer_a.structural_key() == layer_b.structural_key()
        config = SimulatorConfig(max_ctas=10)
        with Session() as session:
            session.simulate_many([(TITAN_XP, layer_a, config),
                                   (TITAN_XP, layer_b, config)])
            assert session.stats.sim_tasks == 1
            assert session.stats.sim_memo_hits == 1

    def test_pass_kind_distinguishes_units(self):
        from repro.core.layer import ConvLayerConfig
        from repro.sim.engine import SimulatorConfig
        layer = ConvLayerConfig.square("a", 1, 4, 8, 8, 3, padding=1)
        config = SimulatorConfig(max_ctas=10)
        with Session() as session:
            forward = session.simulate(TITAN_XP, layer, config)
            wgrad = session.simulate(TITAN_XP, layer, config,
                                     pass_kind="wgrad")
            assert session.stats.sim_tasks == 2
            assert forward.pass_kind == "forward"
            assert wgrad.pass_kind == "wgrad"
            # repeat requests hit the memo, per pass kind.
            session.simulate(TITAN_XP, layer, config, pass_kind="wgrad")
            assert session.stats.sim_tasks == 2

    def test_dtype_distinguishes_units(self):
        from repro.core.layer import ConvLayerConfig
        layer = ConvLayerConfig.square("a", 1, 4, 8, 8, 3, padding=1)
        assert layer.structural_key() != layer.with_dtype(2).structural_key()

    def test_network_dedupe_uses_the_same_key(self):
        from repro.core.layer import ConvLayerConfig
        from repro.networks.base import ConvNetwork
        layer = ConvLayerConfig.square("x", 1, 4, 8, 8, 3, padding=1)
        network = ConvNetwork(name="n", layers=(layer, layer.with_name("y")))
        assert len(network.unique_layers()) == 1
