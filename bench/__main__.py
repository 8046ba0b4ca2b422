"""``python3 -m bench`` — the benchmark's one command.

With ``--workload NAME`` it runs that workload in this process and prints
every metric by name with its unit, then — as the last line — one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs every workload, each in a fresh child process (so peak
RSS and caches are per workload), and writes ``<out>/results.json`` for
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from typing import Any, Dict, List, Optional

from bench import REPO_ROOT

DEFAULT_SEED = 12


def _benchmark_spec() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _git_sha() -> str:
    """HEAD of the checkout, read from its own ``.git`` (never a parent's)."""
    git = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def _meta(seed: int, seconds: float) -> Dict[str, Any]:
    from repro import EngineConfig
    config = EngineConfig()
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_sha": _git_sha(),
        "engine_config": [repr(value) for value in config.fingerprint()],
        "synchronous": config.synchronous, "group_commit": config.group_commit,
        "seed": seed, "seconds": seconds,
    }


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload in this process; the driver's entry point."""
    from bench import runner
    warnings.simplefilter("error", DeprecationWarning)
    out = os.path.abspath(args.out)
    scratch = os.path.join(out, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    # Spill files follow the platform temp dir; keep them in the checkout.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None
    try:
        if args.trace:
            result = runner.trace_layers(args.workload, args.seed, scratch,
                                         quick=args.quick)
        else:
            result = runner.measure(args.workload, args.seed, args.seconds,
                                    scratch, quick=args.quick)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(out, f"trace-{args.workload}.json"), "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, handle)
    record = {"workload": args.workload, "trace": int(args.trace),
              "meta": _meta(args.seed, args.seconds), **result}
    kind = "layers" if args.trace else "result"
    with open(os.path.join(out, f"{kind}-{args.workload}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"{args.workload} seed={args.seed} trace={int(args.trace)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<46} {value:>16.6g} {units[name]}")
    for cls, entry in result["details"].get("class_latency_ms", {}).items():
        print(f"  class {cls:<24} ops={entry['ops']:<6} "
              f"p50={entry['p50']:.3f} ms")
    for cls, entry in result["details"].get("classes", {}).items():
        print(f"  class {cls:<24} ops={entry['ops']:<6} "
              f"mean={entry['mean_latency_ms']:.3f} ms  rows examined/result="
              f"{entry['rows_examined_per_result']:.1f}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload (and seed), each in its own child process."""
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    runs: List[Dict[str, Any]] = []
    failed = False
    for seed in range(args.seed, args.seed + args.runs):
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in ([0, 1] if args.trace else [0]):
                command = [sys.executable, "-m", "bench", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(args.seconds),
                           "--trace", str(trace), "--out", out]
                if args.quick:
                    command.append("--quick")
                done = subprocess.run(command, cwd=REPO_ROOT, text=True,
                                      stdout=subprocess.PIPE)
                sys.stdout.write(done.stdout)
                sys.stdout.flush()
                if done.returncode != 0:
                    print(f"{workload}: exit code {done.returncode}",
                          file=sys.stderr)
                    failed = True
                    continue
                line = json.loads(done.stdout.strip().splitlines()[-1])
                failed = failed or not line["correct"]
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, **line})
    with open(os.path.join(out, "results.json"), "w") as handle:
        json.dump({"meta": _meta(args.seed, args.seconds), "runs": runs},
                  handle, indent=1)
    print(f"wrote {os.path.join(out, 'results.json')}")
    return 1 if failed else 0


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``.

    String hashes pick the spill partition of every string-keyed GROUP BY and
    DISTINCT row, and Python draws a new hash seed per process: on the seed
    the median ``join_group`` op moved between 221 and 264 ms from one process
    to the next.  Pinning the seed makes that an input like ``--seed``; the
    engine's code is untouched, and child processes inherit the setting.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]])


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        _pin_hash_seed()
    spec = _benchmark_spec()
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="busy time of the timed pass (default: the "
                             "benchmark's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced pass and per-layer metrics")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT, "bench", "out"),
                        help="directory for result, layer and span files")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: seeds SEED..SEED+RUNS-1")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the contract test only")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    return (run_one if args.workload else run_all)(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
