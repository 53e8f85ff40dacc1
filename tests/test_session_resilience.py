"""Session-level resilience: policy knobs, lifecycle gating, error isolation.

The injected-fault recovery paths (crashes, hangs, flaky retries) live in
``test_faults.py``; this file covers the fault-free surface of the same
layer: policy validation, ``SessionClosedError`` semantics (including the
close-vs-fan-out race), ``map_tasks`` failure isolation, and the ``run_many``
per-request error isolation with batch dedupe intact.
"""

import threading

import pytest

from repro.api import (EstimateRequest, Session, SessionClosedError,
                       TaskError, ValidateRequest)
from repro.resilience import TaskFailure

TINY = dict(batch=4, max_ctas=40, layers_per_network=1)


class TestPolicyValidation:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout"):
            Session(timeout=0)
        with pytest.raises(ValueError, match="timeout"):
            Session(timeout=-1.5)
        assert Session(timeout=None).timeout is None
        assert Session(timeout=2.5).timeout == 2.5

    def test_retries_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retries"):
            Session(retries=-1)
        assert Session(retries=0).retries == 0

    def test_retry_backoff_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retry_backoff"):
            Session(retry_backoff=-0.1)

    def test_setters_validate_too(self):
        session = Session()
        with pytest.raises(ValueError):
            session.timeout = -1
        with pytest.raises(ValueError):
            session.retries = -1
        session.timeout = 5.0
        session.timeout = None
        assert session.retries == 2  # default retry budget

    @pytest.mark.parametrize("timeout", [1e12, float("inf"), float("nan")])
    def test_timeout_beyond_the_wait_bound_is_rejected(self, timeout):
        # waits past threading.TIMEOUT_MAX raise OverflowError; the
        # session, the one place a timeout is set, refuses such a value up
        # front instead.
        with pytest.raises(ValueError, match="timeout"):
            Session(timeout=timeout)
        session = Session()
        with pytest.raises(ValueError, match="timeout"):
            session.timeout = timeout

    def test_repr_shows_policy(self):
        assert "timeout=1.5" in repr(Session(timeout=1.5, retries=0))


class TestClosedSession:
    def test_fan_out_raises_after_close(self):
        session = Session(jobs=2)
        session.close()
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.map_tasks(abs, [1, 2, 3])
        with pytest.raises(SessionClosedError):
            session.run(ValidateRequest(gpu="titanxp", **TINY))

    def test_close_is_idempotent(self):
        session = Session(jobs=2)
        session.close()
        session.close()

    def test_pure_analytic_requests_survive_close(self):
        # only fan-out is gated; memoized/analytic work stays available.
        with Session() as session:
            pass
        report = session.run(EstimateRequest("alexnet", batch=8))
        assert report.kind == "estimate"

    def test_close_race_with_pool_launch(self):
        """A thread closing the session while another fans out must yield
        SessionClosedError (or a clean result), never a leaked new pool."""
        for _ in range(5):
            session = Session(jobs=2)
            barrier = threading.Barrier(2)
            errors = []

            def fan_out():
                barrier.wait()
                try:
                    session.map_tasks(abs, [1, -2, 3])
                except SessionClosedError:
                    errors.append("closed")

            def close():
                barrier.wait()
                session.close()

            threads = [threading.Thread(target=fan_out),
                       threading.Thread(target=close)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert session._pool is None
            assert session._retired_pools == []


def _fail_on_negative(task):
    if task < 0:
        raise ValueError(f"negative task {task}")
    return task * 10


class TestMapTasksIsolation:
    def test_strict_raises_task_error(self):
        with Session(jobs=1) as session:
            with pytest.raises(TaskError) as excinfo:
                session.map_tasks(_fail_on_negative, [1, -2, 3])
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0].error_type == "ValueError"

    def test_return_failures_keeps_alignment(self):
        with Session(jobs=2, retries=0) as session:
            outcomes = session.map_tasks(_fail_on_negative, [1, -2, 3],
                                         return_failures=True)
        assert outcomes[0] == 10
        assert outcomes[2] == 30
        failure = outcomes[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "error"
        assert failure.message == "negative task -2"
        assert failure.attempts == 1

    def test_ordinary_errors_are_retried_to_budget(self):
        with Session(jobs=1, retries=3, retry_backoff=0.0) as session:
            outcomes = session.map_tasks(_fail_on_negative, [-1],
                                         return_failures=True)
            assert session.stats.task_retries == 3
            assert session.stats.task_failures == 1
        assert outcomes[0].attempts == 4  # 1 try + 3 retries


class TestRunManyErrorIsolation:
    def test_one_bad_request_does_not_poison_the_batch(self):
        good = ValidateRequest(gpu="titanxp", networks=("alexnet",), **TINY)
        bad = EstimateRequest("not-a-network", batch=8)

        with Session(jobs=2) as solo:
            solo.run(good)
            dedupe_baseline = solo.stats.sim_tasks

        with Session(jobs=2) as session:
            reports = session.run_many([good, bad, good])
            # the two identical validate requests shared one sim pass.
            assert session.stats.sim_tasks == dedupe_baseline

        assert [r.kind for r in reports] == ["validation", "error",
                                             "validation"]
        error = reports[1]
        assert "EstimateRequest failed" in error.title
        assert error.meta["request"] == "EstimateRequest"
        assert error.summary["error"]
        # the healthy reports are intact and identical in content (only the
        # volatile meta["timing"] block differs between executions).
        assert reports[0].content_json() == reports[2].content_json()
