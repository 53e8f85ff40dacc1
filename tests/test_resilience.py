"""Unit tests for the shared failure types (repro.resilience)."""

import json
import threading

import pytest

from repro.resilience import (BACKOFF_CAP_SECONDS, FAILURE_KINDS,
                              SessionClosedError, SimulationError, TaskError,
                              TaskFailure, backoff_delay, cause_chain,
                              check_timeout, format_traceback, run_chunk)


class TestCheckTimeout:
    def test_valid_timeouts_become_floats(self):
        assert check_timeout(None) is None
        assert check_timeout(2) == 2.0 and isinstance(check_timeout(2), float)
        assert check_timeout(threading.TIMEOUT_MAX) == threading.TIMEOUT_MAX

    @pytest.mark.parametrize("timeout", [0, -1.5, 1e12, float("inf"),
                                         float("-inf"), float("nan")])
    def test_out_of_range_timeouts_are_value_errors(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive"):
            check_timeout(timeout)


class TestBackoffDelay:
    def test_exponential_growth(self):
        assert backoff_delay(1, 0.1) == pytest.approx(0.1)
        assert backoff_delay(2, 0.1) == pytest.approx(0.2)
        assert backoff_delay(3, 0.1) == pytest.approx(0.4)

    def test_capped(self):
        assert backoff_delay(30, 0.1) == BACKOFF_CAP_SECONDS
        assert backoff_delay(3, 0.1, cap=0.15) == 0.15

    def test_zero_base_and_round(self):
        assert backoff_delay(5, 0.0) == 0.0
        assert backoff_delay(0, 1.0) == 0.0


def _raise_with_cause():
    try:
        raise KeyError("inner")
    except KeyError as exc:
        raise ValueError("outer") from exc


class TestTaskFailure:
    def test_from_exception_captures_type_message_traceback(self):
        try:
            _raise_with_cause()
        except ValueError as exc:
            failure = TaskFailure.from_exception(exc, attempts=3)
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert failure.message == "outer"
        assert failure.attempts == 3
        assert "_raise_with_cause" in failure.traceback
        assert failure.cause == ("ValueError: outer", "KeyError: 'inner'")

    def test_record_round_trip(self):
        try:
            _raise_with_cause()
        except ValueError as exc:
            failure = TaskFailure.from_exception(exc, attempts=2)
        record = failure.as_record()
        json.dumps(record)  # must be JSON-serializable as-is
        assert TaskFailure.from_record(record) == failure

    def test_minimal_record_defaults(self):
        failure = TaskFailure.from_record({})
        assert failure.kind == "error"
        assert failure.attempts == 1
        assert failure.traceback is None
        assert failure.cause == ()

    def test_str(self):
        failure = TaskFailure(kind="timeout", error_type="TimeoutError",
                              message="too slow")
        assert str(failure) == "[timeout] TimeoutError: too slow"

    def test_failure_kinds_cover_record_kinds(self):
        assert set(FAILURE_KINDS) == {"error", "timeout", "crash"}


class TestCauseChain:
    def test_cycle_guard_and_limit(self):
        exc = ValueError("a")
        exc.__cause__ = exc  # pathological self-cause
        assert cause_chain(exc) == ("ValueError: a",)
        chain = None
        for i in range(20):
            new = ValueError(str(i))
            new.__cause__ = chain
            chain = new
        assert len(cause_chain(chain)) == 8  # default limit

    def test_format_traceback_without_raise(self):
        assert "ValueError" in format_traceback(ValueError("x"))


def _double_or_fail(task):
    if task < 0:
        raise ValueError(f"bad task {task}")
    return task * 2


class TestRunChunk:
    def test_mixed_outcomes(self):
        outcomes = run_chunk((_double_or_fail, [1, -1, 3]))
        assert outcomes[0] == ("ok", 2)
        assert outcomes[2] == ("ok", 6)
        status, record = outcomes[1]
        assert status == "error"
        assert record["error_type"] == "ValueError"
        assert record["message"] == "bad task -1"
        assert "traceback" in record

    def test_empty_chunk(self):
        assert run_chunk((_double_or_fail, [])) == []


class TestExceptions:
    def test_task_error_carries_failures(self):
        failures = [TaskFailure(kind="error", error_type="ValueError",
                                message="boom")]
        err = TaskError(failures, context="map_tasks")
        assert err.failures == tuple(failures)
        assert "map_tasks failed for 1 work unit(s)" in str(err)
        assert "ValueError: boom" in str(err)

    def test_simulation_error_is_task_error(self):
        assert issubclass(SimulationError, TaskError)
        assert issubclass(SessionClosedError, RuntimeError)
