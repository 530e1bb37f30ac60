"""Session hooks: the ``slow`` marker, so that ``pytest -m "not slow"`` gives
a fast inner loop while the default run still runs every test."""

import pytest

# Tests that take most of the suite's wall time, by name.
SLOW_TESTS = {"test_criterion_7_exposure_concentration"}


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: takes most of the suite's wall time; deselect with -m 'not slow'")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.originalname in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
