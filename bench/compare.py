"""Compare two sets of benchmark runs against the benchmark's own bounds.

``python3 bench/compare.py A.json B.json`` — each file is a ``results.json``
written by ``python3 -m bench [--runs N]``.  Prints one row per (end-to-end
metric, workload) with both medians, how much worse B is than A as a share of
A's median, and the bound from ``BENCHMARK.json``; exits non-zero when any
cell is worse by more than its bound or any run of B failed an op that A's
did not.  This is also the check that two sets of runs of one commit agree.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def medians(path: str) -> Tuple[Dict[Tuple[str, str], float], Dict[str, int]]:
    """``(workload, metric) -> median`` over the untraced runs of a file,
    and ``workload -> failed ops``."""
    with open(path) as handle:
        runs = [run for run in json.load(handle)["runs"] if not run["trace"]]
    values: Dict[Tuple[str, str], List[float]] = {}
    failed: Dict[str, int] = {}
    for run in runs:
        failed[run["workload"]] = failed.get(run["workload"], 0) + run["failed"]
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(entry["value"])
    return ({key: statistics.median(series) for key, series in values.items()},
            failed)


def worsening(metric: Dict[str, Any], before: float, after: float) -> float:
    """How much worse ``after`` is, as a share of ``before`` (< 0: better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(SPEC) as handle:
        spec = json.load(handle)
    (before, failed_before), (after, failed_after) = map(medians, argv)
    beyond = 0
    print(f"{'workload':<20}{'metric':<28}{'A median':>14}{'B median':>14}"
          f"{'worse by':>10}{'bound':>8}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in before or key not in after:
                print(f"{workload:<20}{metric['name']:<28}  missing")
                beyond += 1
                continue
            worse = worsening(metric, before[key], after[key])
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  BEYOND BOUND"
                beyond += 1
            print(f"{workload:<20}{metric['name']:<28}{before[key]:>14.6g}"
                  f"{after[key]:>14.6g}{worse:>+10.2%}{metric['bound']:>8.4g}"
                  f"{verdict}")
        if failed_after.get(workload, 0) > failed_before.get(workload, 0):
            print(f"{workload:<20}failed ops rose: "
                  f"{failed_before.get(workload, 0)} -> {failed_after[workload]}")
            beyond += 1
    print(f"{beyond} cell(s) beyond their bound" if beyond
          else "every cell within its bound")
    return 1 if beyond else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
