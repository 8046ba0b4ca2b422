"""Tests for the storage engine: pages, disk managers, buffer pool, heap files."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PageFullError, StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import FileDiskManager, InMemoryDiskManager, open_disk_manager
from repro.storage.heap_file import HeapFile
from repro.storage.page import DEFAULT_PAGE_SIZE, Page, RecordId
from repro.types.values import serialize_row


class TestPage:
    def test_insert_and_read(self):
        page = Page(0)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_slots_are_stable_after_delete(self):
        page = Page(0)
        first = page.insert(b"one")
        second = page.insert(b"two")
        page.delete(first)
        assert page.read(second) == b"two"
        assert not page.is_live(first)

    def test_read_deleted_slot_raises(self):
        page = Page(0)
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_page_full(self):
        page = Page(0, page_size=256)
        with pytest.raises(PageFullError):
            for _ in range(100):
                page.insert(b"x" * 40)

    def test_record_larger_than_page_raises(self):
        page = Page(0, page_size=256)
        with pytest.raises(StorageError):
            page.insert(b"y" * 300)

    def test_update_in_place(self):
        page = Page(0)
        slot = page.insert(b"short")
        assert page.update(slot, b"longer record") is True
        assert page.read(slot) == b"longer record"

    def test_update_that_does_not_fit_reports_false(self):
        page = Page(0, page_size=128)
        slot = page.insert(b"a" * 60)
        assert page.update(slot, b"b" * 120) is False

    def test_fresh_page_is_clean(self):
        assert Page(0).dirty is False

    def test_insert_sets_dirty(self):
        page = Page(0)
        page.insert(b"row")
        assert page.dirty

    def test_update_sets_dirty(self):
        page = Page(0)
        slot = page.insert(b"old")
        page.dirty = False
        assert page.update(slot, b"new")
        assert page.dirty

    def test_delete_sets_dirty(self):
        page = Page(0)
        slot = page.insert(b"row")
        page.dirty = False
        page.delete(slot)
        assert page.dirty

    def test_update_that_does_not_fit_leaves_page_clean(self):
        page = Page(0, page_size=128)
        slot = page.insert(b"x")
        page.dirty = False
        assert page.update(slot, b"y" * 200) is False
        assert page.dirty is False

    def test_serialization_roundtrip(self):
        page = Page(7, page_size=512)
        slots = [page.insert(bytes([65 + i]) * (i + 1)) for i in range(5)]
        page.delete(slots[2])
        image = page.to_bytes()
        assert len(image) == 512
        restored = Page.from_bytes(image, 512)
        assert restored.page_id == 7
        assert [s for s, _ in restored.records()] == [0, 1, 3, 4]
        assert restored.read(3) == page.read(3)

    def test_bad_page_image_size(self):
        with pytest.raises(StorageError):
            Page.from_bytes(b"123", 4096)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=30))
    def test_roundtrip_property(self, records):
        page = Page(1)
        kept = []
        for record in records:
            try:
                kept.append((page.insert(record), record))
            except PageFullError:
                break
        restored = Page.from_bytes(page.to_bytes())
        for slot, record in kept:
            assert restored.read(slot) == record


class TestRecordId:
    def test_equality_and_hash(self):
        assert RecordId(1, 2) == RecordId(1, 2)
        assert hash(RecordId(1, 2)) == hash(RecordId(1, 2))
        assert RecordId(1, 2) != RecordId(2, 1)

    def test_ordering(self):
        assert RecordId(0, 5) < RecordId(1, 0)


class TestDiskManagers:
    def test_in_memory_allocation_and_io_accounting(self):
        disk = InMemoryDiskManager()
        page_id = disk.allocate_page()
        page = disk.read_page(page_id)
        page.insert(b"payload")
        disk.write_page(page)
        assert disk.stats.page_reads == 1
        assert disk.stats.page_writes == 1
        assert disk.stats.pages_allocated == 1

    def test_reading_unallocated_page_raises(self):
        disk = InMemoryDiskManager()
        with pytest.raises(StorageError):
            disk.read_page(3)

    def test_stats_diff(self):
        disk = InMemoryDiskManager()
        disk.allocate_page()
        before = disk.stats.snapshot()
        disk.read_page(0)
        delta = disk.stats.diff(before)
        assert delta.page_reads == 1 and delta.page_writes == 0

    def test_file_disk_manager_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "db.pages")
        disk = FileDiskManager(path)
        page_id = disk.allocate_page()
        page = disk.read_page(page_id)
        slot = page.insert(serialize_row((1, "x")))
        disk.write_page(page)
        disk.close()

        reopened = FileDiskManager(path)
        assert reopened.num_pages == 1
        assert reopened.read_page(page_id).read(slot) == serialize_row((1, "x"))
        reopened.close()

    def test_open_disk_manager_selects_backend(self, tmp_path):
        assert isinstance(open_disk_manager(None), InMemoryDiskManager)
        assert isinstance(open_disk_manager(":memory:"), InMemoryDiskManager)
        file_backed = open_disk_manager(os.path.join(tmp_path, "f.db"))
        assert isinstance(file_backed, FileDiskManager)
        file_backed.close()


class TestBufferPool:
    def test_hits_do_not_touch_disk(self):
        disk = InMemoryDiskManager()
        pool = BufferPool(disk, capacity=4)
        page = pool.new_page()
        reads_before = disk.stats.page_reads
        for _ in range(10):
            pool.fetch_page(page.page_id)
        assert disk.stats.page_reads == reads_before
        assert pool.stats.hits == 10

    def test_eviction_writes_back_dirty_pages(self):
        disk = InMemoryDiskManager()
        pool = BufferPool(disk, capacity=2)
        first = pool.new_page()
        first.insert(b"dirty data")
        # Allocating two more pages evicts the first (LRU) and writes it back.
        pool.new_page()
        pool.new_page()
        assert pool.stats.evictions >= 1
        fresh = disk.read_page(first.page_id)
        assert fresh.read(0) == b"dirty data"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(InMemoryDiskManager(), capacity=0)

    def test_clear_forces_cold_cache(self):
        disk = InMemoryDiskManager()
        pool = BufferPool(disk, capacity=8)
        page = pool.new_page()
        pool.clear()
        reads_before = disk.stats.page_reads
        pool.fetch_page(page.page_id)
        assert disk.stats.page_reads == reads_before + 1


class TestHeapFile:
    def _pool(self) -> BufferPool:
        return BufferPool(InMemoryDiskManager(), capacity=16)

    def test_insert_read_roundtrip(self):
        heap = HeapFile(self._pool())
        tuple_id, record_id = heap.insert(("JW0080", "mraW"))
        stored_id, values = heap.read(record_id)
        assert stored_id == tuple_id == 0
        assert values == ("JW0080", "mraW")

    def test_tuple_ids_are_monotonic(self):
        heap = HeapFile(self._pool())
        ids = [heap.insert((i,))[0] for i in range(10)]
        assert ids == list(range(10))

    def test_scan_skips_deleted(self):
        heap = HeapFile(self._pool())
        keep, keep_rid = heap.insert(("keep",))
        drop, drop_rid = heap.insert(("drop",))
        heap.delete(drop_rid)
        scanned = [(tid, values) for _, tid, values in heap.scan()]
        assert scanned == [(keep, ("keep",))]

    def test_update_moves_grown_record(self):
        pool = BufferPool(InMemoryDiskManager(page_size=256), capacity=16)
        heap = HeapFile(pool)
        tuple_id, record_id = heap.insert(("x" * 50,))
        heap.insert(("y" * 50,))
        new_record_id = heap.update(record_id, ("z" * 150,), tuple_id)
        stored_id, values = heap.read(new_record_id)
        assert stored_id == tuple_id
        assert values == ("z" * 150,)

    def test_grows_across_pages(self):
        pool = BufferPool(InMemoryDiskManager(page_size=256), capacity=16)
        heap = HeapFile(pool)
        for i in range(50):
            heap.insert((f"value-{i:03d}", i))
        assert heap.num_pages() > 1
        assert heap.count() == 50

    @pytest.mark.parametrize("mutation", ["insert", "update", "grow_update",
                                          "delete"])
    def test_mutation_reaches_disk_through_eviction(self, mutation):
        # Page.insert/update/delete mark the frame dirty themselves, so a
        # one-frame pool must write every heap mutation back as it evicts.
        disk = InMemoryDiskManager(page_size=256)
        pool = BufferPool(disk, capacity=1)
        heap = HeapFile(pool)
        expected, record_ids = {}, {}
        for i in range(12):
            tuple_id, record_ids[i] = heap.insert((f"value-{i:02d}",))
            expected[tuple_id] = (f"value-{i:02d}",)
        assert heap.num_pages() > 1
        if mutation == "insert":
            tuple_id, _ = heap.insert(("appended",))
            expected[tuple_id] = ("appended",)
        elif mutation == "delete":
            heap.delete(record_ids[0])
            del expected[0]
        else:
            values = ("z" * 150,) if mutation == "grow_update" else ("v",)
            heap.update(record_ids[0], values, 0)
            expected[0] = values
        # Walk every page and end on the first: each fetch evicts the last
        # frame, and the one left behind is a clean re-read.
        for page_id in heap.page_ids + heap.page_ids[:1]:
            pool.fetch_page(page_id)
        assert not pool.fetch_page(heap.page_ids[0]).dirty
        fresh = HeapFile(BufferPool(disk, capacity=1), page_ids=heap.page_ids)
        assert sorted((tid, values) for _, tid, values in fresh.scan()) \
            == sorted(expected.items())
