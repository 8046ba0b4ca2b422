"""Tests for the two annotation linkage storage schemes (Figures 3 and 5)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations.manager import PropagationIndex
from repro.annotations.model import (
    Annotation,
    Region,
    cells_for_columns,
    cells_for_tuples,
)
from repro.annotations.storage import (
    SCHEME_COMPACT,
    SCHEME_NAIVE,
    CompactRegionStore,
    NaiveCellStore,
    _RegionIndex,
    create_linkage_store,
)
from repro.catalog.catalog import SystemCatalog
from repro.core.errors import AnnotationError


@pytest.fixture
def catalog():
    return SystemCatalog()


def make_store(catalog, scheme, name="linkage"):
    return create_linkage_store(scheme, catalog, f"__test_{scheme}_{name}")


class TestSchemeFactory:
    def test_known_schemes(self, catalog):
        assert isinstance(make_store(catalog, SCHEME_NAIVE), NaiveCellStore)
        assert isinstance(make_store(catalog, SCHEME_COMPACT, "c"), CompactRegionStore)

    def test_unknown_scheme(self, catalog):
        with pytest.raises(AnnotationError):
            create_linkage_store("fancy", catalog, "__x")


class TestNaiveCellStore:
    def test_one_record_per_cell(self, catalog):
        store = make_store(catalog, SCHEME_NAIVE)
        cells = cells_for_columns([1], range(10))  # whole column, 10 tuples
        written = store.attach(7, cells)
        assert written == 10
        assert store.record_count() == 10

    def test_lookup_and_cells_of(self, catalog):
        store = make_store(catalog, SCHEME_NAIVE)
        store.attach(1, {(0, 0), (0, 1)})
        store.attach(2, {(0, 1), (3, 2)})
        index = store.load_index()
        assert index.lookup(0, 1) == {1, 2}
        assert index.lookup(3, 2) == {2}
        assert index.lookup(9, 9) == set()
        assert store.cells_of(2) == {(0, 1), (3, 2)}
        assert index.annotated_tuple_ids() == {0, 3}

    def test_detach(self, catalog):
        store = make_store(catalog, SCHEME_NAIVE)
        store.attach(1, {(0, 0), (1, 0)})
        assert store.detach(1) == 2
        assert store.record_count() == 0


class TestCompactRegionStore:
    def test_column_annotation_is_single_record(self, catalog):
        store = make_store(catalog, SCHEME_COMPACT)
        cells = cells_for_columns([2], range(100))
        written = store.attach(5, cells)
        assert written == 1
        assert store.record_count() == 1

    def test_tuple_annotation_is_single_record(self, catalog):
        store = make_store(catalog, SCHEME_COMPACT)
        written = store.attach(9, cells_for_tuples([4, 5, 6], num_columns=3))
        assert written == 1

    def test_lookup_matches_naive_semantics(self, catalog):
        compact = make_store(catalog, SCHEME_COMPACT, "a")
        naive = make_store(catalog, SCHEME_NAIVE, "b")
        cells = cells_for_columns([0, 1], range(5)) | {(9, 2)}
        compact.attach(3, cells)
        naive.attach(3, cells)
        compact_index = compact.load_index()
        naive_index = naive.load_index()
        for tuple_id in range(12):
            for column in range(4):
                assert compact_index.lookup(tuple_id, column) == \
                    naive_index.lookup(tuple_id, column)

    def test_cells_of_roundtrip(self, catalog):
        store = make_store(catalog, SCHEME_COMPACT)
        cells = {(0, 0), (1, 0), (2, 0), (7, 3)}
        store.attach(11, cells)
        assert store.cells_of(11) == cells

    def test_compact_uses_fewer_records_for_coarse_annotations(self, catalog):
        compact = make_store(catalog, SCHEME_COMPACT, "x")
        naive = make_store(catalog, SCHEME_NAIVE, "y")
        cells = cells_for_columns([1], range(200))
        compact.attach(1, cells)
        naive.attach(1, cells)
        assert compact.record_count() < naive.record_count()
        assert compact.record_count() == 1
        assert naive.record_count() == 200

    def test_scattered_cells_degrade_gracefully(self, catalog):
        store = make_store(catalog, SCHEME_COMPACT)
        cells = {(tid * 2, tid % 3) for tid in range(10)}  # nothing contiguous
        store.attach(1, cells)
        index = store.load_index()
        for tuple_id, column in cells:
            assert 1 in index.lookup(tuple_id, column)


@pytest.mark.parametrize("scheme", [SCHEME_NAIVE, SCHEME_COMPACT])
def test_mutating_a_probe_result_leaves_the_index_intact(catalog, scheme):
    # Indexes are shared across statements, so a caller merging into what a
    # probe returned must never reach the index's own state.
    store = make_store(catalog, scheme)
    store.attach(1, {(0, 0), (0, 1)})
    store.attach(2, {(0, 1), (3, 2)})
    index = store.load_index()
    result = index.lookup(0, 1)
    result |= {99}
    assert index.lookup(0, 1) == {1, 2}
    propagation = PropagationIndex([(index, {1: Annotation(1, "T.A", "one"),
                                             2: Annotation(2, "T.A", "two")})])
    vector = propagation.vector(0, 3)
    vector[1].add(Annotation(99, "T.A", "stray"))
    vector[2].add(Annotation(98, "T.A", "stray"))
    assert [{a.ann_id for a in cell} for cell in propagation.vector(0, 3)] \
        == [{1}, {1, 2}, set()]


# ---------------------------------------------------------------------------
# Segment index vs brute force (bounded-example profile)
# ---------------------------------------------------------------------------
ARITY = 5

regions_strategy = st.lists(
    st.tuples(st.integers(0, ARITY - 1), st.integers(0, ARITY - 1),
              st.integers(0, 30), st.integers(0, 6), st.integers(0, 7)),
    max_size=25,
).map(lambda specs: [
    (Region(min(c1, c2), max(c1, c2), tid, tid + length), ann_id)
    for c1, c2, tid, length, ann_id in specs])


def probe_tuple_ids(regions):
    """Every segment bound, one either side of it, and both far ends."""
    bounds = {-1, 0, 40}
    for region, _ in regions:
        for bound in (region.tid_start, region.tid_end):
            bounds.update((bound - 1, bound, bound + 1))
    return sorted(bounds)


@settings(max_examples=150, deadline=None)
@given(regions_strategy)
def test_segment_index_matches_brute_force(regions):
    # Nested, overlapping, adjacent, single-tid and gapped rectangles, with
    # repeated annotation ids (one annotation, several regions).
    index = _RegionIndex(regions)
    annotations = {ann_id: Annotation(ann_id, "T.A", f"a{ann_id}")
                   for _, ann_id in regions if ann_id % 3}  # some filtered out
    propagation = PropagationIndex([(index, annotations)])
    for tuple_id in probe_tuple_ids(regions):
        expected = [{ann_id for region, ann_id in regions
                     if region.contains(column, tuple_id)}
                    for column in range(ARITY)]
        assert [index.lookup(tuple_id, column) for column in range(ARITY)] \
            == expected
        assert [{a.ann_id for a in cell}
                for cell in propagation.vector(tuple_id, ARITY)] \
            == [ids & annotations.keys() for ids in expected]
        # A narrower vector is the prefix of the full one.
        assert propagation.vector(tuple_id, 2) \
            == propagation.vector(tuple_id, ARITY)[:2]
    covered = {tuple_id for region, _ in regions
               for tuple_id in range(region.tid_start, region.tid_end + 1)}
    assert index.annotated_tuple_ids() == covered


cell_sets = st.lists(
    st.sets(st.tuples(st.integers(0, 25), st.integers(0, ARITY - 1)),
            min_size=1, max_size=30),
    max_size=6)


@settings(max_examples=60, deadline=None)
@given(cell_sets)
def test_compact_store_matches_naive_store(annotation_cells):
    catalog = SystemCatalog()
    compact = make_store(catalog, SCHEME_COMPACT, "c")
    naive = make_store(catalog, SCHEME_NAIVE, "n")
    for ann_id, cells in enumerate(annotation_cells):
        compact.attach(ann_id, cells)
        naive.attach(ann_id, cells)
    compact_index, naive_index = compact.load_index(), naive.load_index()
    annotations = {ann_id: Annotation(ann_id, "T.A", str(ann_id))
                   for ann_id in range(len(annotation_cells))}
    compact_vectors = PropagationIndex([(compact_index, annotations)])
    naive_vectors = PropagationIndex([(naive_index, annotations)])
    for tuple_id in range(-1, 28):
        for column in range(ARITY + 1):
            assert compact_index.lookup(tuple_id, column) \
                == naive_index.lookup(tuple_id, column)
        assert compact_vectors.vector(tuple_id, ARITY) \
            == naive_vectors.vector(tuple_id, ARITY)
    assert compact_index.annotated_tuple_ids() \
        == naive_index.annotated_tuple_ids()
