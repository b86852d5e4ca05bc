"""Fixtures shared by the test modules."""

import pytest

from rphase import simulate


@pytest.fixture
def force_workers(monkeypatch):
    """``force_workers(n)`` makes the column driver run with n workers,
    whatever the column work: 1 runs serially, more build a pool."""
    def force(n):
        monkeypatch.setattr(simulate, "_workers", lambda columns, ops: n)
    return force
