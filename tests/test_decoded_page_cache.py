"""The buffer-pool-backed decoded-page cache.

Unit tests of the LRU structure itself, consistency tests for every
invalidation path (DML page-dirty, raw-page eviction, DDL drop/recreate,
schema-version bumps), the ``engine.last_cache`` observability window, and a
tracemalloc proof that the cache's memory footprint follows its page budget.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import Database, EngineConfig
from repro.core.errors import PlanningError
from repro.storage.buffer_pool import DecodedCacheView, DecodedPageCache


# ---------------------------------------------------------------------------
# DecodedPageCache unit tests
# ---------------------------------------------------------------------------
class TestDecodedPageCache:
    def test_capacity_zero_is_disabled(self):
        cache = DecodedPageCache()
        cache.put("t", 1, 0, True, [(1, (1,))])
        assert cache.get("t", 1, 0, True) is None
        assert len(cache) == 0
        # A disabled cache must not count misses either — reads that can
        # never hit would otherwise poison the hit ratio.
        assert cache.stats.misses == 0

    def test_round_trip_and_counters(self):
        cache = DecodedPageCache(capacity=4)
        rows = [(0, (1, "a"))]
        cache.put("t", 7, 3, True, rows)
        assert cache.get("t", 7, 3, True) is rows
        assert cache.stats.hits == 1
        assert cache.get("t", 8, 3, True) is None
        assert cache.stats.misses == 1

    def test_key_includes_schema_version_and_tuple_id_flag(self):
        cache = DecodedPageCache(capacity=8)
        cache.put("t", 1, 0, True, ["v0"])
        assert cache.get("t", 1, 1, True) is None   # version bump strands it
        assert cache.get("t", 1, 0, False) is None  # different decode shape
        assert cache.get("t", 1, 0, True) == ["v0"]

    def test_lru_eviction_order(self):
        cache = DecodedPageCache(capacity=2)
        cache.put("t", 1, 0, True, ["p1"])
        cache.put("t", 2, 0, True, ["p2"])
        cache.get("t", 1, 0, True)          # p1 is now most recent
        cache.put("t", 3, 0, True, ["p3"])  # evicts p2
        assert cache.get("t", 2, 0, True) is None
        assert cache.get("t", 1, 0, True) == ["p1"]
        assert cache.stats.evictions == 1

    def test_invalidate_page_drops_all_versions(self):
        cache = DecodedPageCache(capacity=8)
        cache.put("t", 1, 0, True, ["old"])
        cache.put("t", 1, 1, True, ["new"])
        cache.put("t", 2, 1, True, ["other"])
        cache.invalidate_page(1)
        assert cache.get("t", 1, 0, True) is None
        assert cache.get("t", 1, 1, True) is None
        assert cache.get("t", 2, 1, True) == ["other"]
        assert cache.stats.invalidations == 2

    def test_invalidate_table(self):
        cache = DecodedPageCache(capacity=8)
        cache.put("a", 1, 0, True, ["a1"])
        cache.put("b", 2, 0, True, ["b2"])
        cache.invalidate_table("a")
        assert cache.get("a", 1, 0, True) is None
        assert cache.get("b", 2, 0, True) == ["b2"]

    def test_set_capacity_shrinks(self):
        cache = DecodedPageCache(capacity=8)
        for page in range(8):
            cache.put("t", page, 0, True, [page])
        cache.set_capacity(3)
        assert len(cache) == 3
        # The survivors are the most recently inserted pages.
        assert cache.get("t", 7, 0, True) == [7]

    def test_view_reports_deltas_only(self):
        cache = DecodedPageCache(capacity=4)
        cache.put("t", 1, 0, True, ["x"])
        cache.get("t", 1, 0, True)
        view = DecodedCacheView(cache.stats)
        assert view.as_dict() == {"hits": 0, "misses": 0, "evictions": 0,
                                  "invalidations": 0}
        cache.get("t", 1, 0, True)
        cache.get("t", 9, 0, True)
        assert view.hits == 1 and view.misses == 1
        assert view.hit_ratio == 0.5


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------
def build_db(rows: int = 4000, pool_size: int = 256) -> Database:
    db = Database(pool_size=pool_size)
    db.execute("CREATE TABLE t (id INTEGER, v FLOAT, s TEXT)")
    for i in range(rows):
        db.execute(f"INSERT INTO t VALUES ({i}, {i * 0.5}, 'name{i % 100}')")
    return db


QUERY = "SELECT id, v FROM t WHERE v >= 50.0"


class TestEngineIntegration:
    def test_config_rejects_bad_cache_pages(self):
        with pytest.raises(PlanningError):
            EngineConfig(decoded_page_cache_pages=-1)
        with pytest.raises(PlanningError):
            EngineConfig(decoded_page_cache_pages=True)

    def test_knob_participates_in_plan_cache_fingerprint(self):
        config = EngineConfig()
        base = config.fingerprint()
        config.decoded_page_cache_pages = 64
        assert config.fingerprint() != base

    def test_disabled_by_default(self):
        db = build_db(rows=500)
        db.query(QUERY)
        db.query(QUERY)
        assert db.engine.last_cache.as_dict() == {
            "hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}
        assert len(db.catalog.pool.decoded) == 0

    def test_warm_rescan_hits_and_matches_uncached_rows(self):
        db = build_db()
        baseline = [tuple(r.values) for r in db.query(QUERY).rows]
        db.config.decoded_page_cache_pages = 256
        first = [tuple(r.values) for r in db.query(QUERY).rows]
        assert db.engine.last_cache.misses > 0
        assert db.engine.last_cache.hits == 0
        second = [tuple(r.values) for r in db.query(QUERY).rows]
        assert first == second == baseline
        assert db.engine.last_cache.misses == 0
        assert db.engine.last_cache.hits > 0
        assert db.engine.last_cache.hit_ratio == 1.0

    def test_dml_invalidates_only_touched_pages(self):
        db = build_db()
        db.config.decoded_page_cache_pages = 256
        db.query(QUERY)
        cached_before = len(db.catalog.pool.decoded)
        # UPDATE dirties the page holding row 0 (and no others): a rescan
        # misses that one page and hits every other.  (The UPDATE's own
        # target scan caches the tuple-id decode shape of each page, which
        # the rescan does not read.)
        db.execute("UPDATE t SET v = -1.0 WHERE id = 0")
        db.query(QUERY)
        assert db.engine.last_cache.misses == 1
        assert db.engine.last_cache.hits == cached_before - 1
        rows = db.query("SELECT v FROM t WHERE id = 0").rows
        assert rows[0].values[0] == -1.0

    def test_insert_update_delete_reflected_through_warm_cache(self):
        db = build_db(rows=1000)
        db.config.decoded_page_cache_pages = 256
        count = lambda: db.query("SELECT COUNT(*) FROM t").rows[0].values[0]
        assert count() == 1000
        db.execute("INSERT INTO t VALUES (5000, 1.0, 'new')")
        assert count() == 1001
        db.execute("DELETE FROM t WHERE id < 10")
        assert count() == 991
        db.execute("UPDATE t SET s = 'renamed' WHERE id = 5000")
        renamed = db.query("SELECT s FROM t WHERE id = 5000").rows
        assert renamed[0].values[0] == "renamed"

    def test_drop_and_recreate_table_never_serves_stale_rows(self):
        db = build_db(rows=300)
        db.config.decoded_page_cache_pages = 256
        db.query("SELECT * FROM t")
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (42)")
        rows = [tuple(r.values) for r in db.query("SELECT * FROM t").rows]
        assert rows == [(42,)]

    def test_schema_version_bump_strands_old_entries(self):
        db = build_db(rows=300)
        db.config.decoded_page_cache_pages = 256
        db.query(QUERY)
        assert len(db.catalog.pool.decoded) > 0
        db.catalog.bump_schema_version()
        db.query(QUERY)
        # The re-scan missed (version is part of the key) and repopulated.
        assert db.engine.last_cache.misses > 0 and db.engine.last_cache.hits == 0
        db.query(QUERY)
        assert db.engine.last_cache.hits > 0

    def test_raw_page_eviction_invalidates_decoded_entries(self):
        # Table larger than the buffer pool: the scan wraps the pool and
        # every raw-page eviction must drop its decoded entry, so the
        # decoded cache never outlives the page bytes it mirrors.
        db = build_db(rows=4000, pool_size=16)
        db.config.decoded_page_cache_pages = 10_000
        baseline = [tuple(r.values) for r in db.query(QUERY).rows]
        assert db.engine.last_cache.invalidations > 0
        decoded = db.catalog.pool.decoded
        frame_ids = set(db.catalog.pool._frames)
        assert {key[1] for key in decoded._entries} <= frame_ids
        assert [tuple(r.values) for r in db.query(QUERY).rows] == baseline

    def test_pool_clear_clears_decoded_cache(self):
        db = build_db(rows=300)
        db.config.decoded_page_cache_pages = 256
        db.query(QUERY)
        assert len(db.catalog.pool.decoded) > 0
        db.catalog.pool.clear()
        assert len(db.catalog.pool.decoded) == 0

    def test_capacity_knob_resyncs_each_query(self):
        db = build_db(rows=1000)
        db.config.decoded_page_cache_pages = 256
        db.query(QUERY)
        assert len(db.catalog.pool.decoded) > 0
        db.config.decoded_page_cache_pages = 0
        db.query(QUERY)
        assert len(db.catalog.pool.decoded) == 0


# ---------------------------------------------------------------------------
# Memory budget proof
# ---------------------------------------------------------------------------
class TestMemoryBudget:
    def test_cache_respects_page_budget(self):
        """tracemalloc proof: a 4-page cache holds a bounded footprint while
        an uncapped cache grows with the table; entry count never exceeds
        the configured budget."""
        db = build_db(rows=4000)
        pages = db.catalog.table("t").num_pages()
        assert pages > 20

        def peak_with(capacity):
            db.config.decoded_page_cache_pages = capacity
            db.catalog.pool.decoded.clear()
            tracemalloc.start()
            db.query(QUERY)
            db.query(QUERY)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        small = peak_with(4)
        assert len(db.catalog.pool.decoded) <= 4
        large = peak_with(10_000)
        assert len(db.catalog.pool.decoded) == pages
        # The uncapped run keeps every decoded page alive; the 4-page run
        # must stay well below it.
        assert small < large * 0.7
