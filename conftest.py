"""Repo-level pytest configuration.

Registers the ``--runslow`` flag used by the ``slow`` marker (wired up in
``tests/conftest.py`` and ``benchmarks/conftest.py``): tests marked
``@pytest.mark.slow`` — large joins, big benchmark datasets — are skipped by
default so the tier-1 command stays fast, and run with ``pytest --runslow``.

Every ``DeprecationWarning`` raised while the suite runs is an error: the
tests use the one supported surface, ``Database.connect()`` cursors.
"""


import pytest


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked 'slow' (large joins, big benchmark datasets)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
