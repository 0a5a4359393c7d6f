import pytest

from batchcot import client


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    """Retry at once; the backoff schedule has its own test."""
    monkeypatch.setattr(client, "BACKOFF_BASE_S", 0.0)
