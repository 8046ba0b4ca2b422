"""Benchmark-regression smoke: fresh smoke results vs. the committed baseline.

Usage (CI): ``python benchmarks/check_bench_regression.py``

Snapshots the committed ``BENCH_streaming.json``, runs the smoke benchmarks
of ``test_bench_streaming_executor.py``, ``test_bench_txn_commit.py``,
``test_bench_qps_concurrent.py`` and ``test_bench_foreign_scan.py`` under
``--runslow`` (the flag that lets them merge fresh numbers into the same
file; ``-k smoke`` keeps the slow variants out), and compares every
``seconds`` leaf present in both versions.

Because the committed baseline comes from a different machine, raw ratios
are first normalized by the *median* fresh/baseline ratio across all shared
series — a uniform machine-speed factor cancels out, so a slow CI runner
does not fail every series.  What trips the check is a series that got more
than ``THRESHOLD``x slower than its peers moved: an accidentally
de-vectorized pipeline, a lost short-circuit — not single-digit-percent
drift or a slower host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_streaming.json")
BENCH_NAME = "BENCH_streaming.json"
THRESHOLD = 2.0


def load_baseline():
    """The *committed* baseline, straight from git.

    The working-tree copy is not trustworthy here: an earlier ``--runslow``
    run in the same job will already have overwritten the file with this
    machine's fresh numbers, and comparing those to themselves can never
    detect a regression.
    """
    try:
        shown = subprocess.run(
            ["git", "show", f"HEAD:{BENCH_NAME}"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(shown)
    except (subprocess.CalledProcessError, FileNotFoundError, ValueError):
        if not os.path.exists(BENCH_PATH):
            return None
        with open(BENCH_PATH) as handle:
            return json.load(handle)


def seconds_leaves(node, prefix=""):
    """Flatten nested benchmark dicts into {series path: seconds}."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if key == "seconds" and isinstance(value, (int, float)):
                out[prefix] = float(value)
            else:
                out.update(seconds_leaves(value, path))
    return out


def main() -> int:
    baseline = load_baseline()
    if baseline is None:
        print(f"no baseline for {BENCH_NAME}; nothing to compare")
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest",
         "benchmarks/test_bench_streaming_executor.py",
         "benchmarks/test_bench_txn_commit.py",
         "benchmarks/test_bench_qps_concurrent.py",
         "benchmarks/test_bench_foreign_scan.py",
         "-q", "--runslow", "-k", "smoke"],
        cwd=REPO_ROOT, env=env,
    )
    if result.returncode != 0:
        print("smoke benchmarks failed")
        return result.returncode

    with open(BENCH_PATH) as handle:
        fresh = json.load(handle)

    old = seconds_leaves(baseline.get("results", {}))
    new = seconds_leaves(fresh.get("results", {}))
    # Only series the smoke run actually re-measured: leaves it did not
    # rewrite read back byte-identical and would pin the median at 1.0,
    # skewing the machine-speed factor.
    shared = sorted(series for series in set(old) & set(new)
                    if new[series] != old[series])
    if not shared:
        print("no re-measured series between baseline and fresh results")
        return 0
    ratios = {series: (new[series] / old[series] if old[series] > 0
                       else float("inf"))
              for series in shared}
    ordered = sorted(ratios.values())
    machine_factor = ordered[len(ordered) // 2]  # median = host speed delta
    print(f"machine-speed normalization factor (median ratio): "
          f"{machine_factor:.2f}x\n")
    failures = []
    for series in shared:
        before, after = old[series], new[series]
        normalized = ratios[series] / machine_factor if machine_factor > 0 \
            else float("inf")
        marker = "FAIL" if normalized > THRESHOLD else "ok"
        print(f"{marker:4s} {series}: {before:.4f}s -> {after:.4f}s "
              f"({normalized:.2f}x normalized)")
        if normalized > THRESHOLD:
            failures.append(series)
    if failures:
        print(f"\n{len(failures)} series regressed by more than "
              f"{THRESHOLD}x: {', '.join(failures)}")
        return 1
    print("\nno benchmark regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
