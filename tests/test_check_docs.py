"""``tools/check_docs.py``'s guards: docs/TUNING.md and ``EngineConfig``
must name exactly the same knobs, so a half-finished knob deletion (or an
undocumented new knob) fails the docs job; and the docs may name only the
``engine.last_*`` surfaces ``Engine`` defines, only the ``EngineConfig``
fields that exist and only the ``Database`` methods that exist."""

from __future__ import annotations

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(REPO_ROOT, "tools", "check_docs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tuning_md_documents_exactly_the_config_fields():
    check_docs = load_check_docs()
    with open(os.path.join(REPO_ROOT, "docs", "TUNING.md"),
              encoding="utf-8") as handle:
        assert check_docs.check_knobs(handle.read(),
                                      check_docs.config_fields()) == []


def test_knob_guard_flags_disagreement_in_both_directions():
    check_docs = load_check_docs()
    text = "### `batch_size` — default\n\n### `removed_knob` — default `0`\n"
    problems = check_docs.check_knobs(text, {"batch_size", "new_knob"})
    assert len(problems) == 2
    assert any("`removed_knob` names no EngineConfig field" in p
               for p in problems)
    assert any("EngineConfig.new_knob has no" in p for p in problems)


def test_docs_name_only_defined_engine_surfaces():
    check_docs = load_check_docs()
    surfaces = check_docs.engine_surfaces()
    assert "last_spill" in surfaces
    for path in check_docs.surface_files():
        with open(path, encoding="utf-8") as handle:
            assert check_docs.check_surfaces(path, handle.read(),
                                             surfaces) == []
    text = "Read `db.engine.last_spill`, then `db.engine.last_bogus`.\n"
    assert check_docs.check_surfaces("docs/X.md", text, surfaces) == [
        "docs/X.md: engine.last_bogus is not an Engine attribute"]


def test_docs_name_only_existing_config_fields():
    check_docs = load_check_docs()
    fields = check_docs.config_fields()
    assert "memory_budget_rows" in fields
    for path in check_docs.surface_files():
        with open(path, encoding="utf-8") as handle:
            assert check_docs.check_config_names(path, handle.read(),
                                                 fields) == []
    text = ("Set `EngineConfig.memory_budget_rows` or "
            "`db.config.join_strategy`, never `EngineConfig.bogus`.\n")
    assert check_docs.check_config_names("docs/X.md", text, fields) == [
        "docs/X.md: EngineConfig.bogus is not an EngineConfig field"]


def test_docs_call_only_existing_database_methods():
    check_docs = load_check_docs()
    attributes = check_docs.database_attributes()
    assert {"connect", "explain", "analyze"} <= attributes
    for path in check_docs.surface_files():
        with open(path, encoding="utf-8") as handle:
            assert check_docs.check_database_calls(path, handle.read(),
                                                   attributes) == []
    text = ('Open `conn = db.connect()`; the old `db.query("SELECT 1")` '
            "is gone.\n")
    assert check_docs.check_database_calls("docs/X.md", text, attributes) == [
        "docs/X.md: db.query() is not a Database attribute"]


def test_surface_check_reads_current_docs_but_not_history():
    check_docs = load_check_docs()
    relative = {os.path.relpath(path, REPO_ROOT)
                for path in check_docs.surface_files()}
    assert os.path.join("docs", "TUNING.md") in relative
    assert os.path.join("docs", "ARCHITECTURE.md") in relative
    assert not relative & {"CHANGES.md", "ROADMAP.md"}
