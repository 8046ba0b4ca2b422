"""Concurrent query throughput through the network front end.

``N`` client threads each open one network connection and run a loop of
point-lookup queries (``SELECT ... WHERE id = ?``) against a shared server.
The measured number is end-to-end queries/sec through the full stack:
wire framing, admission control, the worker pool, the reader-writer lock,
and result encoding.  Concurrent *readers* share the lock, so added clients
overlap their network and framing time inside the server instead of queueing
behind a global mutex — but the server is GIL-bound, so added clients buy
little throughput on any host (measured: ~1.18x at 10 clients on 2 CPUs).

What the benchmark asserts is the same on every host: the per-query overhead
of concurrency stays bounded — 10 clients must retain at least 40% of
single-client throughput (a global serialization bug shows up as far worse
than that) — and every query returns the right row.  No speedup is asserted:
a host-dependent wall-clock ratio is a measurement, not a correctness check.

The quick smoke variant (tier-1 and the bench-regression gate) runs 1 and
10 clients; the full variant (``--runslow``) sweeps 1/10/100.  Results are
persisted to ``BENCH_streaming.json`` under ``qps_concurrent``.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.client
from repro.server import ServerConfig, start_server

from bench_utils import print_table, write_bench_results

ROWS = 1000


def run_qps(clients: int, queries_per_client: int) -> dict:
    """Queries/sec of ``clients`` threads doing point lookups."""
    server = start_server(config=ServerConfig(
        max_connections=clients + 2,
        max_inflight=max(8, clients),
        worker_threads=min(8, max(2, clients))))
    try:
        seed = repro.client.connect(port=server.port)
        seed.execute("CREATE TABLE bench (id INTEGER PRIMARY KEY, v TEXT)")
        seed.cursor().executemany(
            "INSERT INTO bench VALUES (?, ?)",
            [(i, f"v{i}") for i in range(ROWS)])
        seed.close()

        connections = [repro.client.connect(port=server.port)
                       for _ in range(clients)]
        barrier = threading.Barrier(clients + 1)
        errors = []

        def worker(conn, base):
            try:
                cursor = conn.cursor()
                barrier.wait()
                for i in range(queries_per_client):
                    key = (base + i * 7) % ROWS
                    cursor.execute("SELECT v FROM bench WHERE id = ?",
                                   (key,))
                    (value,) = cursor.fetchone()
                    assert value == f"v{key}"
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(conn, k * 131))
                   for k, conn in enumerate(connections)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        assert errors == [], errors[:3]
        for conn in connections:
            conn.close()
        queries = clients * queries_per_client
        return {
            "clients": clients,
            "queries": queries,
            "seconds": round(elapsed, 6),
            "qps": round(queries / elapsed, 1),
        }
    finally:
        server.shutdown()


def run_sweep(client_counts, total_queries: int) -> dict:
    series = {}
    for clients in client_counts:
        series[f"clients_{clients}"] = run_qps(
            clients, max(1, total_queries // clients))
    return series


def print_series(title: str, series: dict) -> None:
    print_table(
        title,
        ["clients", "queries", "seconds", "qps"],
        [[s["clients"], s["queries"], s["seconds"], s["qps"]]
         for s in series.values()],
    )


def check_scaling(series: dict, many: str) -> None:
    """The no-collapse assertion shared by smoke and full runs."""
    one = series["clients_1"]["qps"]
    concurrent = series[many]["qps"]
    # Bounded overhead everywhere: concurrency must not collapse throughput.
    assert concurrent >= 0.4 * one, (
        f"{series[many]['clients']} clients fell to {concurrent} qps "
        f"vs {one} single-client — concurrency is serializing badly")


def test_qps_concurrent_smoke():
    """Tier-1 shape check: correctness under concurrency, bounded overhead."""
    series = run_sweep([1, 10], total_queries=300)
    print_series("network qps (smoke, 1 vs 10 clients)", series)
    check_scaling(series, "clients_10")
    write_bench_results("streaming", {"qps_concurrent_smoke": series})


@pytest.mark.slow
def test_qps_concurrent_sweep():
    """Full sweep: 1/10/100 clients at a fixed total query budget."""
    series = run_sweep([1, 10, 100], total_queries=4000)
    print_series("network qps (1/10/100 clients)", series)
    check_scaling(series, "clients_10")
    check_scaling(series, "clients_100")
    write_bench_results("streaming", {"qps_concurrent": series})
