"""Tests for provenance management (Section 4 / Figure 8)."""

from __future__ import annotations

from datetime import datetime

import pytest

from repro.core.errors import ProvenanceError
from repro.provenance.manager import PROVENANCE_SCHEMA, ProvenanceRecord
from sql_helpers import bodies_of, fetch, run, values


@pytest.fixture
def loaded(db):
    run(db, "CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
    run(db, "INSERT INTO Gene VALUES ('JW1', 'a', 'ATG'), ('JW2', 'b', 'CCC'), "
            "('JW3', 'c', 'GGG')")
    return db


class TestProvenanceWrites:
    def test_record_creates_structured_annotation(self, loaded):
        cells = loaded.annotations.cells_for("Gene", tuple_ids=[0])
        annotation = loaded.provenance.record(
            "Gene", cells, source="RegulonDB", operation="copy",
            agent="system", program="loader-1.2",
        )
        PROVENANCE_SCHEMA.validate(annotation.body)
        record = ProvenanceRecord.from_annotation(annotation)
        assert record.source == "RegulonDB"
        assert record.program == "loader-1.2"

    def test_end_users_cannot_write_provenance(self, loaded):
        cells = loaded.annotations.cells_for("Gene", tuple_ids=[0])
        with pytest.raises(ProvenanceError):
            loaded.provenance.record("Gene", cells, source="S", operation="edit",
                                     agent="random_user")

    def test_registered_tools_may_write(self, loaded):
        loaded.provenance.register_tool("integration-tool")
        cells = loaded.annotations.cells_for("Gene", tuple_ids=[1])
        annotation = loaded.provenance.record("Gene", cells, source="GenoBase",
                                              operation="copy",
                                              agent="integration-tool")
        assert annotation.curator == "integration-tool"
        loaded.provenance.unregister_tool("integration-tool")
        with pytest.raises(ProvenanceError):
            loaded.provenance.record("Gene", cells, source="GenoBase",
                                     operation="copy", agent="integration-tool")

    def test_provenance_privilege_grants_write(self, loaded):
        loaded.access.grant(["PROVENANCE"], "Gene", "curator")
        cells = loaded.annotations.cells_for("Gene", tuple_ids=[2])
        annotation = loaded.provenance.record("Gene", cells, source="S3",
                                              operation="overwrite", agent="curator")
        assert annotation.category == "provenance"


class TestProvenanceQueries:
    def _load_figure8_history(self, db):
        """Source S2 loads a column, program P1 updates it, S3 overwrites it."""
        column_cells = db.annotations.cells_for("Gene", columns=["GSequence"])
        db.provenance.record("Gene", column_cells, source="S2", operation="copy",
                             time=datetime(2006, 1, 1))
        cell = db.annotations.cells_for("Gene", tuple_ids=[0], columns=["GSequence"])
        db.provenance.record("Gene", cell, source="P1", operation="update",
                             program="P1", time=datetime(2006, 6, 1))
        db.provenance.record("Gene", column_cells, source="S3", operation="overwrite",
                             time=datetime(2007, 1, 1))

    def test_source_at_time_travel(self, loaded):
        self._load_figure8_history(loaded)
        # What is the source of this value at time T?  (Figure 8)
        at_2006_03 = loaded.provenance.source_at("Gene", 0, "GSequence",
                                                 datetime(2006, 3, 1))
        assert at_2006_03.source == "S2"
        at_2006_09 = loaded.provenance.source_at("Gene", 0, "GSequence",
                                                 datetime(2006, 9, 1))
        assert at_2006_09.source == "P1"
        latest = loaded.provenance.source_at("Gene", 0, "GSequence")
        assert latest.source == "S3"

    def test_history_is_chronological(self, loaded):
        self._load_figure8_history(loaded)
        history = loaded.provenance.history("Gene", 0, "GSequence")
        assert [record.source for record in history] == ["S2", "P1", "S3"]

    def test_cell_without_provenance(self, loaded):
        self._load_figure8_history(loaded)
        assert loaded.provenance.source_at("Gene", 0, "GName") is None
        assert loaded.provenance.history("Gene", 1, "GName") == []

    def test_sources_of_table(self, loaded):
        self._load_figure8_history(loaded)
        counts = loaded.provenance.sources_of_table("Gene")
        assert counts == {"S2": 1, "P1": 1, "S3": 1}

    def test_provenance_propagates_with_queries(self, loaded):
        self._load_figure8_history(loaded)
        result = fetch(loaded, "SELECT GID, GSequence FROM Gene ANNOTATION(provenance)")
        bodies = bodies_of(result[0].annotations[1])
        assert any("S3" in body for body in bodies)
        # GID carries no provenance in this history.
        assert bodies_of(result[0].annotations[0]) == []

    def test_awhere_over_provenance(self, loaded):
        self._load_figure8_history(loaded)
        result = values(
            loaded, "SELECT GID FROM Gene ANNOTATION(provenance) "
            "AWHERE annotation.value LIKE '%P1%'"
        )
        assert result == [("JW1",)]

    def test_no_provenance_table_is_fine(self, loaded):
        assert loaded.provenance.sources_of_table("Gene") == {}
        assert loaded.provenance.records_for_cell("Gene", 0, "GID") == []
