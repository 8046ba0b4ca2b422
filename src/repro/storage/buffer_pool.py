"""LRU buffer pool sitting between heap files / indexes and the disk manager.

The pool caches a bounded number of pages.  Reads that hit the cache do not
count as page I/O (the disk manager is not touched); misses read from disk
and may evict the least-recently-used page, writing it back if dirty.  This
is what lets the benchmarks report "I/O" numbers that respond to access
locality, the property the paper's compact annotation storage and SBC-tree
claims rest on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.storage.disk import DiskManager
from repro.storage.page import Page

#: Default number of pages cached by a buffer pool.
DEFAULT_POOL_SIZE = 128


@dataclass
class BufferPoolStatistics:
    """Hit/miss counters for a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferPool:
    """A simple LRU page cache with write-back of dirty pages."""

    def __init__(self, disk: DiskManager, capacity: int = DEFAULT_POOL_SIZE):
        if capacity < 1:
            raise ValueError("buffer pool capacity must be at least 1")
        self.disk = disk
        self.capacity = capacity
        self.stats = BufferPoolStatistics()
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        #: Guards frames, stats, and the no-steal depth: fetch is a
        #: check-then-read-then-admit sequence and eviction walks the LRU
        #: order, neither of which survives interleaving with concurrent
        #: readers.  Re-entrant (``new_page`` admits while holding it).
        self._lock = threading.RLock()
        #: Depth of open no-steal scopes.  While positive (a transaction is
        #: in flight), eviction refuses to write dirty pages back to disk:
        #: the WAL is redo-only, so an uncommitted change must never reach
        #: the data file where a crash could expose it without a matching
        #: commit record.  Dirty victims are skipped (clean pages evict
        #: first); if *every* frame is dirty the pool overshoots its
        #: capacity rather than steal.
        self._no_steal_depth = 0

    # ------------------------------------------------------------------
    # No-steal discipline (transactions)
    # ------------------------------------------------------------------
    def begin_no_steal(self) -> None:
        """Pin dirty pages in memory until :meth:`end_no_steal`."""
        with self._lock:
            self._no_steal_depth += 1

    def end_no_steal(self) -> None:
        with self._lock:
            if self._no_steal_depth > 0:
                self._no_steal_depth -= 1
            if self._no_steal_depth == 0:
                self._shrink_to_capacity()

    def _shrink_to_capacity(self) -> None:
        """Evict LRU victims until the pool is back within capacity.

        Runs on every admit and once a no-steal scope closes, so the
        overshoot that scope left behind is written back normally.
        """
        with self._lock:
            while len(self._frames) > self.capacity:
                victim_id = self._pick_victim()
                if victim_id is None:
                    break  # no-steal: every frame is dirty, overshoot capacity
                victim = self._frames.pop(victim_id)
                self.stats.evictions += 1
                if victim.dirty:
                    self.disk.write_page(victim)
                    victim.dirty = False

    @property
    def no_steal_active(self) -> bool:
        return self._no_steal_depth > 0

    # ------------------------------------------------------------------
    def new_page(self) -> Page:
        """Allocate a fresh page on disk and pin it into the pool."""
        with self._lock:
            page_id = self.disk.allocate_page()
            page = Page(page_id, self.disk.page_size)
            page.dirty = True
            self._admit(page)
            return page

    def fetch_page(self, page_id: int) -> Page:
        """Return the page with ``page_id``, reading it from disk on a miss."""
        with self._lock:
            if page_id in self._frames:
                self.stats.hits += 1
                self._frames.move_to_end(page_id)
                return self._frames[page_id]
            self.stats.misses += 1
            page = self.disk.read_page(page_id)
            self._admit(page)
            return page

    def flush_page(self, page_id: int) -> None:
        with self._lock:
            page = self._frames.get(page_id)
            if page is not None and page.dirty:
                self.disk.write_page(page)
                page.dirty = False

    def flush_all(self) -> None:
        with self._lock:
            for page_id in list(self._frames):
                self.flush_page(page_id)

    def clear(self) -> None:
        """Flush and drop every cached page (used to force cold-cache runs)."""
        with self._lock:
            self.flush_all()
            self._frames.clear()

    # ------------------------------------------------------------------
    def _admit(self, page: Page) -> None:
        with self._lock:
            self._frames[page.page_id] = page
            self._frames.move_to_end(page.page_id)
            self._shrink_to_capacity()

    def _pick_victim(self) -> "int | None":
        """LRU victim; under no-steal, the least-recently-used *clean* page."""
        if self._no_steal_depth == 0:
            return next(iter(self._frames))
        for page_id, page in self._frames.items():
            if not page.dirty:
                return page_id
        return None
