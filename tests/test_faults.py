"""The deterministic fault-injection harness, and the recovery paths it proves.

Covers the `repro.faults` machinery itself (specs, ticket claiming, file
faults) and the acceptance scenarios of the resilience layer: a killed worker
mid-``simulate_many`` recovers bit-identically, a crashing design point is
recorded and resumed past, a corrupt sim-cache entry is quarantined and
re-simulated identically, a straggler is cancelled by the wall-clock timeout,
and a flaky task succeeds on retry N.
"""

import glob
import json
import os

import pytest

from repro import faults
from repro.analysis.validation import (QUARANTINE_SUFFIX, _sim_cache_key,
                                       _sim_cache_path, simulate_layer)
from repro.api import Session, SimulationError, ValidateRequest
from repro.dse import (ExhaustiveDriver, ResultStore, SuccessiveHalvingDriver,
                       explore, grid)
from repro.gpu.devices import TITAN_XP
from repro.networks.registry import get_network
from repro.resilience import TaskError, TaskFailure
from repro.sim.engine import SimulatorConfig

TINY = dict(batch=4, max_ctas=40, layers_per_network=1)

SIM_CONFIG = SimulatorConfig(max_ctas=20)


def _tiny_units(count=3):
    layers = get_network("alexnet", batch=4).unique_layers()[:count]
    return [(TITAN_XP, layer, SIM_CONFIG) for layer in layers]


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------

class TestFaultSpecs:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultSpec(site="sim", kind="explode")

    def test_times_validated(self):
        with pytest.raises(ValueError, match="times must be positive"):
            faults.FaultSpec(site="sim", kind="crash", times=0)

    def test_constructors(self):
        assert faults.crash(site="sim").kind == "crash"
        assert faults.hang(seconds=5.0).hang_seconds == 5.0
        flaky = faults.flaky(site="dse", failures=3)
        assert (flaky.kind, flaky.times) == ("error", 3)


class TestPlanInstallation:
    def test_install_and_clear(self, tmp_path):
        assert not faults.active()
        faults.install([faults.crash()], state_dir=str(tmp_path))
        assert faults.active()
        faults.clear()
        assert not faults.active()

    def test_injected_context_manager_clears_on_exit(self, tmp_path):
        with faults.injected(faults.flaky(), state_dir=str(tmp_path)):
            assert faults.active()
        assert not faults.active()

    def test_no_plan_fire_is_noop(self):
        faults.fire("sim", "anything")  # must not raise


class TestFire:
    def test_error_spec_fires_exactly_times(self, tmp_path):
        with faults.injected(faults.flaky(site="sim", failures=2),
                             state_dir=str(tmp_path)):
            for _ in range(2):
                with pytest.raises(faults.InjectedFault):
                    faults.fire("sim", "task")
            faults.fire("sim", "task")  # tickets exhausted: spec retired

    def test_site_filter(self, tmp_path):
        with faults.injected(faults.flaky(site="dse"),
                             state_dir=str(tmp_path)):
            faults.fire("sim", "task")  # wrong site: no-op
            with pytest.raises(faults.InjectedFault):
                faults.fire("dse", "task")

    def test_match_filter(self, tmp_path):
        with faults.injected(faults.flaky(site="*", match="conv2"),
                             state_dir=str(tmp_path)):
            faults.fire("sim", "titanxp/conv1/forward")
            with pytest.raises(faults.InjectedFault):
                faults.fire("sim", "titanxp/conv2/forward")

    def test_tickets_shared_across_specs_independently(self, tmp_path):
        with faults.injected(faults.flaky(site="sim"),
                             faults.flaky(site="dse"),
                             state_dir=str(tmp_path)):
            with pytest.raises(faults.InjectedFault):
                faults.fire("sim", "a")
            with pytest.raises(faults.InjectedFault):
                faults.fire("dse", "b")

    def test_vanished_state_dir_fails_safe(self, tmp_path):
        state = tmp_path / "gone"
        faults.install([faults.flaky()], state_dir=str(state))
        os.rmdir(state)
        faults.fire("sim", "task")  # cannot claim a ticket: must not fire
        faults.clear()


class TestFileFaults:
    def test_corrupt_file_is_deterministic_and_never_json(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text("{}")
        b.write_text("{}")
        faults.corrupt_file(str(a), seed=3)
        faults.corrupt_file(str(b), seed=3)
        assert a.read_bytes() == b.read_bytes()
        with pytest.raises(ValueError):
            json.loads(a.read_bytes().decode("utf-8", errors="replace"))

    def test_tear_file_keeps_prefix(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"0123456789")
        faults.tear_file(str(path), keep_bytes=4)
        assert path.read_bytes() == b"0123"
        with pytest.raises(ValueError):
            faults.tear_file(str(path), keep_bytes=-1)


# ----------------------------------------------------------------------
# Acceptance: worker crash mid-simulate_many recovers bit-identically
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_killed_worker_yields_bit_identical_results(self, tmp_path):
        with Session(jobs=2) as clean_session:
            clean = clean_session.run(ValidateRequest(gpu="titanxp", **TINY))

        with faults.injected(faults.crash(site="sim"),
                             state_dir=str(tmp_path)):
            with Session(jobs=2, retry_backoff=0.01) as session:
                recovered = session.run(ValidateRequest(gpu="titanxp", **TINY))
                assert session.stats.pool_recoveries >= 1
                assert session.stats.task_retries >= 1

        # content identity: meta["timing"] is the only run-to-run delta.
        assert recovered.content_json() == clean.content_json()

    def test_crash_budget_exhaustion_is_a_structured_failure(self, tmp_path):
        units = _tiny_units(2)
        with faults.injected(faults.crash(site="sim", times=5),
                             state_dir=str(tmp_path)):
            with Session(jobs=2, retries=1, retry_backoff=0.01) as session:
                outcomes = session.simulate_many(units, strict=False)
        failures = [o for o in outcomes if isinstance(o, TaskFailure)]
        assert failures
        assert all(f.kind == "crash" for f in failures)
        assert all(f.attempts == 2 for f in failures)  # 1 try + 1 retry

    def test_strict_crash_exhaustion_raises_simulation_error(self, tmp_path):
        with faults.injected(faults.crash(site="sim", times=8),
                             state_dir=str(tmp_path)):
            with Session(jobs=2, retries=1, retry_backoff=0.01) as session:
                with pytest.raises(SimulationError):
                    session.simulate_many(_tiny_units(2))


# ----------------------------------------------------------------------
# Acceptance: flaky task succeeds on retry N
# ----------------------------------------------------------------------

class TestFlakyRetry:
    def test_flaky_task_succeeds_within_budget(self, tmp_path):
        with Session(jobs=2) as clean_session:
            clean = clean_session.simulate_many(_tiny_units())
        with faults.injected(faults.flaky(site="sim", failures=2),
                             state_dir=str(tmp_path)):
            with Session(jobs=2, retries=2, retry_backoff=0.01) as session:
                recovered = session.simulate_many(_tiny_units())
                assert session.stats.task_retries >= 2
        assert [r.traffic for r in recovered] == [r.traffic for r in clean]

    def test_flaky_serial_path_retries_too(self, tmp_path):
        with faults.injected(faults.flaky(site="sim", failures=1),
                             state_dir=str(tmp_path)):
            with Session(jobs=1, retry_backoff=0.0) as session:
                results = session.simulate_many(_tiny_units(1))
                assert session.stats.task_retries == 1
        assert results[0].traffic.dram_bytes > 0


# ----------------------------------------------------------------------
# Acceptance: straggler cancelled by the wall-clock timeout
# ----------------------------------------------------------------------

class TestTimeouts:
    def test_straggler_cancelled_and_reported(self, tmp_path):
        units = _tiny_units(3)
        hang_layer = units[0][1].name
        with faults.injected(
                faults.hang(site="sim", match=hang_layer, seconds=60),
                state_dir=str(tmp_path)):
            with Session(jobs=2, timeout=3.0, retry_backoff=0.01) as session:
                outcomes = session.simulate_many(units, strict=False)
                assert session.stats.task_timeouts == 1
                assert session.stats.pool_recoveries >= 1
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].kind == "timeout"
        assert "wall-clock timeout" in outcomes[0].message
        # the healthy units still completed
        assert all(not isinstance(o, TaskFailure) for o in outcomes[1:])


# ----------------------------------------------------------------------
# Acceptance: DSE records the crashing point and resumes past it
# ----------------------------------------------------------------------

class TestDseFaultIsolation:
    SPACE = grid({"num_sm": (1, 2), "mac_bw": (1, 2)},
                 network="alexnet", batch=8)

    def test_crashing_point_recorded_and_resumed_past(self, tmp_path):
        store_path = str(tmp_path / "sweep.jsonl")
        # pin the crash to one specific point; it fires on every retry, so
        # that point permanently fails while every other point completes.
        # The batched path retries at two levels — the whole chunk first,
        # then one point per task — so the ticket budget covers
        # both ladders: 2 * (retries + 1) fires.
        with faults.injected(
                faults.crash(site="dse", match="num_sm=2,mac_bw=2", times=12),
                state_dir=str(tmp_path / "state")):
            with Session(jobs=2, retries=2, retry_backoff=0.01) as session:
                with ResultStore(store_path) as store:
                    first = explore(self.SPACE, driver=ExhaustiveDriver(),
                                    store=store, session=session)
        assert first.stats.failed == 1
        assert len(first.failures) == 1
        failure = first.failures[0]
        assert failure.point.name == "num_sm=2,mac_bw=2"
        assert failure.failure.kind == "crash"
        assert not failure.cached
        assert len(first.results) == len(self.SPACE) - 1

        # resume with no faults installed: the failure record is replayed
        # from disk, not re-evaluated, and everything else is a store hit.
        with Session(jobs=2) as session:
            with ResultStore(store_path) as store:
                resumed = explore(self.SPACE, driver=ExhaustiveDriver(),
                                  store=store, session=session)
        assert resumed.stats.evaluated == 0
        assert resumed.stats.skipped_failures == 1
        assert len(resumed.failures) == 1
        assert resumed.failures[0].cached
        assert {r.point.name for r in resumed.results} == \
            {r.point.name for r in first.results}

    def test_error_point_isolated_without_store(self, tmp_path):
        with faults.injected(
                faults.flaky(site="dse", match="num_sm=2,mac_bw=2",
                             failures=5),
                state_dir=str(tmp_path)):
            with Session(jobs=2, retries=1, retry_backoff=0.01) as session:
                exploration = explore(self.SPACE, session=session)
        assert len(exploration.failures) == 1
        assert exploration.failures[0].failure.error_type == "InjectedFault"
        assert exploration.failures[0].failure.attempts == 2
        rows = exploration.failure_rows()
        assert rows[0]["design"] == "num_sm=2,mac_bw=2"
        assert rows[0]["kind"] == "error"

    def test_flaky_point_recovers_without_session(self, tmp_path):
        """No session is a ``retries=0`` session: the chunk fails once, the
        per-point re-run succeeds, and nothing is lost."""
        clean = explore(self.SPACE)
        with faults.injected(
                faults.flaky(site="dse", match="num_sm=2,mac_bw=2",
                             failures=1),
                state_dir=str(tmp_path)):
            flaky = explore(self.SPACE)
        assert flaky.failures == ()
        assert flaky.stats.failed == 0
        assert [(r.key, r.metrics) for r in flaky.results] == [
            (r.key, r.metrics) for r in clean.results]

    def test_permanent_failure_same_with_and_without_session(self, tmp_path):
        """A point that fails on every attempt: identical results, failures
        and store bytes in process and on a ``retries=0`` session pool."""
        def sweep(name, session):
            path = tmp_path / f"{name}.jsonl"
            with faults.injected(
                    faults.flaky(site="dse", match="num_sm=2,mac_bw=2",
                                 failures=100),
                    state_dir=str(tmp_path / name)):
                with ResultStore(str(path)) as store:
                    exploration = explore(self.SPACE, store=store,
                                          session=session)
            return exploration, path.read_bytes()

        local, local_store = sweep("local", None)
        with Session(jobs=1, retries=0) as session:
            pooled, pooled_store = sweep("pooled", session)
        assert [f.point.name for f in local.failures] == ["num_sm=2,mac_bw=2"]
        assert local.failures == pooled.failures
        assert [(r.key, r.metrics) for r in local.results] == [
            (r.key, r.metrics) for r in pooled.results]
        assert local.frontier == pooled.frontier
        assert local_store == pooled_store

    @pytest.mark.parametrize("jobs", [None, 1], ids=["no-session", "session"])
    def test_failing_proxy_rung_raises_task_error(self, tmp_path, jobs):
        """The successive-halving proxy only ranks candidates: a point whose
        proxy evaluation keeps failing aborts the sweep with ``TaskError``,
        with or without a session."""
        session = None if jobs is None else Session(jobs=jobs, retries=0)
        with faults.injected(
                faults.flaky(site="dse", match="proxy:num_sm=2,mac_bw=2",
                             failures=100),
                state_dir=str(tmp_path)):
            with pytest.raises(TaskError) as excinfo:
                explore(self.SPACE, session=session,
                        driver=SuccessiveHalvingDriver(budget=2, seed=0))
        if session is not None:
            session.close()
        (failure,) = excinfo.value.failures
        assert failure.error_type == "InjectedFault"


# ----------------------------------------------------------------------
# Acceptance: corrupt sim-cache entry quarantined and re-simulated
# ----------------------------------------------------------------------

class TestCacheQuarantine:
    def _entry(self, cache_dir):
        layer = get_network("alexnet", batch=4).unique_layers()[0]
        path = _sim_cache_path(
            str(cache_dir), _sim_cache_key(TITAN_XP, layer, SIM_CONFIG))
        return layer, path

    def test_corrupt_entry_quarantined_and_resimulated(self, tmp_path):
        layer, path = self._entry(tmp_path)
        clean = simulate_layer(TITAN_XP, layer, SIM_CONFIG,
                               cache_dir=str(tmp_path))
        assert os.path.exists(path)
        faults.corrupt_file(path, seed=11)
        recovered = simulate_layer(TITAN_XP, layer, SIM_CONFIG,
                                   cache_dir=str(tmp_path))
        assert recovered.traffic == clean.traffic
        assert recovered.time_seconds == clean.time_seconds
        quarantined = glob.glob(str(tmp_path / f"*{QUARANTINE_SUFFIX}"))
        assert quarantined == [path + QUARANTINE_SUFFIX]
        # the slot was re-written with a clean entry
        with open(path, "r", encoding="utf-8") as handle:
            assert "traffic" in json.load(handle)

    def test_truncated_entry_quarantined(self, tmp_path):
        layer, path = self._entry(tmp_path)
        clean = simulate_layer(TITAN_XP, layer, SIM_CONFIG,
                               cache_dir=str(tmp_path))
        faults.tear_file(path, keep_bytes=7)
        recovered = simulate_layer(TITAN_XP, layer, SIM_CONFIG,
                                   cache_dir=str(tmp_path))
        assert recovered.traffic == clean.traffic
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    def test_missing_entry_is_not_quarantined(self, tmp_path):
        layer, path = self._entry(tmp_path)
        simulate_layer(TITAN_XP, layer, SIM_CONFIG, cache_dir=str(tmp_path))
        os.remove(path)
        simulate_layer(TITAN_XP, layer, SIM_CONFIG, cache_dir=str(tmp_path))
        assert glob.glob(str(tmp_path / f"*{QUARANTINE_SUFFIX}")) == []
