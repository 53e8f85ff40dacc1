"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import TESLA_P100, TESLA_V100, TITAN_XP, faults
from repro.api.session import default_session
from repro.core.layer import ConvLayerConfig


@pytest.fixture(autouse=True)
def _no_leaked_faults(monkeypatch):
    """No fault-injection plan bleeds into (or out of) any test."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


@pytest.fixture(autouse=True)
def _stable_session_policy():
    """Keep the default session's execution policy from bleeding across tests.

    The memoized simulation results deliberately survive (they are pure
    values and sharing them keeps the suite fast); only the mutable policy
    knobs are snapshotted and restored.
    """
    session = default_session()
    policy = (session.jobs, session.sim_cache_dir, session.precision,
              session.timeout, session.retries, session.retry_backoff)
    yield
    (session.jobs, session.sim_cache_dir, session.precision,
     session.timeout, session.retries, session.retry_backoff) = policy


@pytest.fixture
def titan_xp():
    return TITAN_XP


@pytest.fixture
def p100():
    return TESLA_P100


@pytest.fixture
def v100():
    return TESLA_V100


@pytest.fixture(params=[TITAN_XP, TESLA_P100, TESLA_V100],
                ids=["titanxp", "p100", "v100"])
def any_gpu(request):
    """Parametrized fixture covering all three evaluated devices."""
    return request.param


@pytest.fixture
def small_conv_layer():
    """A 3x3 convolution small enough for exhaustive simulation in tests."""
    return ConvLayerConfig.square(
        "small3x3", batch=2, in_channels=8, in_size=14,
        out_channels=16, filter_size=3, stride=1, padding=1)


@pytest.fixture
def small_pointwise_layer():
    """A 1x1 convolution small enough for exhaustive simulation in tests."""
    return ConvLayerConfig.square(
        "small1x1", batch=2, in_channels=16, in_size=14,
        out_channels=32, filter_size=1, stride=1, padding=0)


@pytest.fixture
def strided_conv_layer():
    """A strided large-filter layer (AlexNet-conv1 like, scaled down)."""
    return ConvLayerConfig.square(
        "strided7x7", batch=2, in_channels=3, in_size=56,
        out_channels=32, filter_size=7, stride=2, padding=3)


@pytest.fixture
def reference_conv_layer():
    """The paper's sensitivity-study reference layer at a small batch."""
    return ConvLayerConfig.square(
        "reference", batch=8, in_channels=256, in_size=13,
        out_channels=128, filter_size=3, stride=1, padding=1)
