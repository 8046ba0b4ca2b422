"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Database
from repro.workloads import build_gene_protein_pipeline, build_gene_tables
from sql_helpers import run


def pytest_configure(config):
    # Skip logic lives in the root conftest.py next to --runslow.
    config.addinivalue_line(
        "markers", "slow: long-running test, skipped unless --runslow is given")


@pytest.fixture
def db() -> Database:
    """A fresh in-memory database."""
    return Database()


@pytest.fixture
def gene_db() -> Database:
    """A database loaded with the DB1_Gene / DB2_Gene workload (Figures 2-3)."""
    database = Database()
    info = build_gene_tables(database, num_genes=20, overlap=0.5, seed=5)
    database.gene_info = info  # type: ignore[attr-defined]
    return database


@pytest.fixture
def pipeline_db() -> Database:
    """A database loaded with the Gene/Protein/GeneMatching pipeline (Figure 9)."""
    database = Database()
    ids = build_gene_protein_pipeline(database, num_genes=12, seed=9)
    database.pipeline_ids = ids  # type: ignore[attr-defined]
    return database


@pytest.fixture
def simple_db() -> Database:
    """A small generic table used by DML / authorization tests."""
    database = Database()
    run(
        database, "CREATE TABLE samples (id INTEGER PRIMARY KEY, name TEXT, score FLOAT, "
        "category TEXT)"
    )
    rows = [
        (1, "alpha", 0.5, "control"),
        (2, "beta", 1.5, "control"),
        (3, "gamma", 2.5, "treated"),
        (4, "delta", 3.5, "treated"),
        (5, "epsilon", 4.5, "treated"),
    ]
    for row in rows:
        run(
            database, f"INSERT INTO samples VALUES ({row[0]}, '{row[1]}', {row[2]}, '{row[3]}')"
        )
    return database
