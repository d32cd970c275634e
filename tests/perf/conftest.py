"""Shared fixtures for the sweep-executor tests."""

import pytest

from repro.perf import supervisor


@pytest.fixture
def fast_supervisor(monkeypatch):
    """Zero retry backoff and a 0.02 s watchdog poll, so supervised
    tests don't sleep; returns the module for per-test overrides."""
    monkeypatch.setattr(supervisor, "BACKOFF_BASE_S", 0.0)
    monkeypatch.setattr(supervisor, "BACKOFF_MAX_S", 0.0)
    monkeypatch.setattr(supervisor, "POLL_INTERVAL_S", 0.02)
    return supervisor
