"""Shared fixtures."""

import pytest

from callable_input import install_jet_functions


@pytest.fixture
def jet_functions(monkeypatch):
    """Compiled expressions call sin, cos and exp on Jets too, for this test
    only: every other test runs lawcheck's own table."""
    install_jet_functions(monkeypatch)
