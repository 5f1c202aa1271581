"""Shared fixtures."""

import pytest

from quasilab import acceptance


@pytest.fixture(scope="session")
def verify_all_criteria():
    """The nine criteria of ``verify-all`` at the default seed, run once
    per session and shared by the acceptance and CLI tests."""
    return acceptance.run_all(acceptance.DEFAULT_SEED)
