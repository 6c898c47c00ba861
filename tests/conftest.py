"""Fixtures shared across test packages.

The obs singletons are process-global, so every test that touches them
runs inside a save/restore fixture: prior enabled state is restored and
all records/metrics dropped afterwards, keeping tests order-independent.
"""

import pytest

from repro import obs


@pytest.fixture
def clean_obs():
    """Yield with observability reset; restore prior state on exit."""
    tracer = obs.get_tracer()
    metrics = obs.get_metrics()
    prior = (tracer.enabled, metrics.enabled)
    obs.disable()
    obs.reset()
    yield
    tracer.enabled, metrics.enabled = prior
    obs.reset()
