"""Pytest configuration for the benchmark suite (helpers live in bench_utils)."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import bench_utils  # noqa: E402 - needs the path entry above


def pytest_configure(config):
    bench_utils.persist_results = config.getoption("--runslow", default=False)
    # Skip logic lives in the root conftest.py next to --runslow.
    config.addinivalue_line(
        "markers", "slow: long-running benchmark, skipped unless --runslow is given")
