"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's figures or quantitative claims
(see DESIGN.md, "Experiments to reproduce").  Benchmarks print the series they
measure so that EXPERIMENTS.md can be checked against `pytest benchmarks/
--benchmark-only -s` output, and they assert the *shape* the paper reports
(who wins, roughly by how much) rather than absolute numbers.

``write_bench_results`` additionally persists machine-readable results to
``BENCH_<name>.json`` at the repo root so the performance trajectory can be
tracked across PRs (and diffed in CI) — under ``pytest --runslow`` only, so
a plain tier-1 run never rewrites a tracked file.
"""

from __future__ import annotations

import json
import os
import platform
import time

import pytest

from repro import Database, EngineConfig

#: Repo root (bench_utils lives in <root>/benchmarks/).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Whether :func:`write_bench_results` writes.  ``benchmarks/conftest.py``
#: sets it from ``--runslow``: verifying a change with plain ``pytest`` must
#: leave the tracked ``BENCH_*.json`` files (and ``git status``) clean.
persist_results = False


@pytest.fixture
def fresh_db() -> Database:
    return Database()


def make_db(scheme: str = "compact", propagate_outdated: bool = True) -> Database:
    return Database(config=EngineConfig(default_annotation_scheme=scheme,
                                        propagate_outdated=propagate_outdated))


def print_table(title: str, headers, rows) -> None:
    """Print a small aligned table under a title (shown with pytest -s)."""
    print(f"\n== {title} ==")
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + " | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def write_bench_results(name: str, results: dict, meta: dict = None) -> str:
    """Merge benchmark results into ``BENCH_<name>.json`` at the repo root.

    ``results`` maps series names to arbitrary JSON-serialisable payloads;
    existing series with other names are preserved, so several tests (and
    several runs) can contribute to one file.  Returns the file path.
    A no-op unless :data:`persist_results` is set (``pytest --runslow``).
    """
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    if not persist_results:
        return path
    payload = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload.setdefault("meta", {})
    payload["meta"].update({
        "python": platform.python_version(),
        "platform": platform.platform(),
        "updated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    if meta:
        payload["meta"].update(meta)
    payload.setdefault("results", {})
    payload["results"].update(results)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
