"""Launcher for the ``served_point_read`` server process.

``python3 -m bench.server_child --path DB --trace 0|1 --report FILE`` opens
the database with the product's default ``ServerConfig``/``EngineConfig`` on
an ephemeral loopback port, prints ``{"port": N}`` and then obeys its stdin:

* ``mark`` — a measured pass starts: snapshot the engine counters and forget
  the spans recorded so far (answers ``ok``);
* ``stop`` or end of input — shut the server down, write the report (peak
  RSS, counter deltas, span aggregates) and exit.  End of input covers a
  parent that died, so the child never outlives it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import warnings
from time import perf_counter
from typing import Any, Dict, List, Optional

from bench import trace
from bench.workloads import peak_rss_mb

from repro.server import protocol, start_server


class RequestIntervals:
    """Time from a request being decoded to its response being encoded.

    Both happen on the event loop inside the connection's handler task,
    which is what pairs them up while several connections interleave.
    """

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self._decoded_at: Dict[Any, float] = {}

    @staticmethod
    def _task() -> Any:
        try:
            return asyncio.current_task()
        except RuntimeError:  # not on the event loop
            return None

    def install(self) -> None:
        decode, encode = protocol.decode_payload, protocol.encode_frame

        def decode_payload(payload: bytes) -> Dict[str, Any]:
            message = decode(payload)
            self._decoded_at[self._task()] = perf_counter()
            return message

        def encode_frame(message: Dict[str, Any]) -> bytes:
            frame = encode(message)
            decoded_at = self._decoded_at.pop(self._task(), None)
            if decoded_at is not None:
                self.total_s += perf_counter() - decoded_at
                self.count += 1
            return frame

        protocol.decode_payload = decode_payload
        protocol.encode_frame = encode_frame

    def clear(self) -> None:
        self.total_s, self.count = 0.0, 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.server_child")
    parser.add_argument("--path", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    warnings.simplefilter("error", DeprecationWarning)

    tracer = intervals = None
    if args.trace:
        tracer = trace.Tracer()
        tracer.install()
        intervals = RequestIntervals()
        intervals.install()
    server = start_server(path=args.path)
    try:
        print(json.dumps({"port": server.port}), flush=True)
        counters = trace.read_counters(server.database)
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                counters = trace.read_counters(server.database)
                if tracer is not None:
                    tracer.take()
                    intervals.clear()
                print("ok", flush=True)
            elif command == "stop":
                break
        report: Dict[str, Any] = {
            "counters": trace.delta(trace.read_counters(server.database),
                                    counters),
        }
        if tracer is not None:
            spans, counts = tracer.take()
            report["aggregate"] = trace.aggregate(spans)["all"] if spans else {}
            report["counts"] = {name: amount
                                for (name, _op), amount in counts.items()}
            report["request_interval_s"] = intervals.total_s
            report["request_intervals"] = intervals.count
    finally:
        server.shutdown()
    report["peak_rss_mb"] = peak_rss_mb()
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
