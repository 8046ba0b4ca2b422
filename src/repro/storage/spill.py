"""Disk spilling for memory-bounded pipeline breakers.

Blocking operators (hash-join build, GROUP BY, DISTINCT, sort) must see all
of their input before emitting output.  Without a budget they materialize it
in memory, which caps query size at available RAM.  This module gives them a
place to put the overflow: :class:`SpillManager` hands out temp-file-backed
:class:`SpillFile` partitions and tracks :class:`SpillStats` for
observability (``engine.last_spill``), and the operators implement
Grace-style partitioning / external sorting on top.

The on-disk record format reuses the storage layer's row serialization
(:func:`repro.types.values.serialize_row`): each record is

``<u32 payload length> <payload> <u32 annotation length> [annotations]``

where the payload is ``serialize_row((0,) + values)`` — the same
tuple-id-prefixed layout the heap file writes (with a dummy id), so reading
a run of unannotated records back goes through the *vectorized*
:func:`repro.types.values.deserialize_records` shape decoder instead of a
per-value tag-dispatch loop.  Annotations are interned per query: the
annotation section stores small integer references into the manager's
registry, never the annotation objects themselves (spill files are
process-local and live only for the duration of one query).
"""

from __future__ import annotations

import struct
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import StorageError
from repro.types.values import deserialize_records, deserialize_row, serialize_row

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

#: Fan-out used when a spilling operator partitions its input and the cost
#: model supplied no estimate.
DEFAULT_SPILL_PARTITIONS = 8
#: Upper bound on the partition fan-out (file handles are not free).
MAX_SPILL_PARTITIONS = 32
#: Maximum recursive re-partitioning depth for skewed inputs.  Beyond this a
#: partition is processed in memory even if it exceeds the budget — a single
#: over-represented key cannot be split by rehashing anyway.
MAX_SPILL_DEPTH = 4
#: Rows decoded per batch when reading a spill file back.  Deliberately
#: smaller than the executor's batch size: a k-way merge holds one pending
#: decode buffer per run/partition *simultaneously*, so this bounds the
#: merge phase's memory at no measurable latency cost.
_READ_BATCH_ROWS = 256


@dataclass
class SpillStats:
    """Spill activity of one query (exposed as ``engine.last_spill``).

    ``operators`` holds one event dict per spilling operator instance, e.g.
    ``{"operator": "hash_join", "partitions": 8, "build_rows": 40000, ...}``.
    The counters measure total spill-file *I/O*: every write to every spill
    file, including recursive re-partition passes and merge/dedup rewrites
    — so a row that takes two disk passes counts twice.  For the number of
    input rows an operator pushed out of memory, read its event (e.g.
    ``build_rows``/``probe_rows``/``spilled_rows``).

    Not thread-safe: a stats object belongs to one query, which runs on one
    thread (it is shared only by that query's spill managers).
    """

    spill_files: int = 0
    spilled_rows: int = 0
    spilled_bytes: int = 0
    operators: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def spilled(self) -> bool:
        return self.spill_files > 0

    def record(self, operator: str, **info: Any) -> Dict[str, Any]:
        """Append (and return) an operator event; callers may update it as
        execution proceeds, since the dict is shared by reference."""
        event = {"operator": operator, **info}
        self.operators.append(event)
        return event

    @contextmanager
    def timed_partition(self, event: Dict[str, Any],
                        **info: Any) -> Iterator[Dict[str, Any]]:
        """Time the processing of one partition (or sort run) of ``event``.

        Yields the record (``info``; the body may add to it, e.g. ``rows``)
        and, once the body completes, appends it with its wall-clock
        ``seconds`` to the event's ``partition_timings``.  A partition whose
        consumer stops early records nothing.
        """
        started = time.perf_counter()
        yield info
        info["seconds"] = time.perf_counter() - started
        event.setdefault("partition_timings", []).append(info)

    def events(self, operator: str) -> List[Dict[str, Any]]:
        return [e for e in self.operators if e["operator"] == operator]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "spill_files": self.spill_files,
            "spilled_rows": self.spilled_rows,
            "spilled_bytes": self.spilled_bytes,
            "operators": list(self.operators),
        }


def clamp_partitions(estimated_rows: float, budget_rows: int) -> int:
    """Grace-hash fan-out for an input estimate: ``ceil(rows / budget)``
    clamped to [2, :data:`MAX_SPILL_PARTITIONS`]."""
    if budget_rows <= 0:
        return DEFAULT_SPILL_PARTITIONS
    partitions = -(-int(estimated_rows) // budget_rows)  # ceil division
    return max(2, min(MAX_SPILL_PARTITIONS, partitions))


class SpillManager:
    """Per-query spill coordinator: budget, temp files, annotation registry.

    One manager serves every spilling operator of a query; its ``stats``
    object is the one the engine exposes after execution.  The annotation
    registry interns the :class:`~repro.annotations.model.Annotation`
    objects carried by spilled rows so the files store integer references —
    identity survives the round trip exactly (the same objects come back).
    """

    def __init__(self, budget_rows: int, stats: Optional[SpillStats] = None,
                 directory: Optional[str] = None):
        if budget_rows <= 0:
            raise StorageError(f"spill budget must be positive, got {budget_rows}")
        self.budget_rows = budget_rows
        self.directory = directory
        self.stats = stats if stats is not None else SpillStats()
        self._annotations: List[Any] = []
        self._indices: Dict[Any, int] = {}

    # -- annotation interning -------------------------------------------
    def intern_annotation(self, annotation: Any) -> int:
        index = self._indices.get(annotation)
        if index is None:
            index = self._indices[annotation] = len(self._annotations)
            self._annotations.append(annotation)
        return index

    def resolve_annotation(self, index: int) -> Any:
        return self._annotations[index]

    # -- files -----------------------------------------------------------
    def new_file(self) -> "SpillFile":
        self.stats.spill_files += 1
        return SpillFile(self)

    def partition_count(self, estimated_rows: Optional[float] = None) -> int:
        if estimated_rows is None:
            return DEFAULT_SPILL_PARTITIONS
        return clamp_partitions(estimated_rows, self.budget_rows)


class SpillFile:
    """One temp-file-backed run/partition of spilled rows.

    Write with :meth:`append`, then read back *once* with :meth:`entries`
    (``(values, annotations)`` pairs in write order).  The underlying file
    is an anonymous ``tempfile.TemporaryFile``: it is unlinked from the
    filesystem immediately, so an abandoned iterator can never leak a file
    past process exit.
    """

    __slots__ = ("manager", "rows_written", "bytes_written", "_file", "_closed")

    def __init__(self, manager: SpillManager):
        self.manager = manager
        self.rows_written = 0
        self.bytes_written = 0
        self._file = tempfile.TemporaryFile(prefix="repro-spill-",
                                            dir=manager.directory)
        self._closed = False

    def __len__(self) -> int:
        return self.rows_written

    # -- writing ---------------------------------------------------------
    def append(self, values: Tuple[Any, ...],
               annotations: Optional[Sequence[Set[Any]]] = None) -> None:
        payload = serialize_row((0,) + tuple(values))
        if annotations is not None and any(annotations):
            ann_payload = self._encode_annotations(annotations)
        else:
            ann_payload = b""
        record = b"".join((_U32.pack(len(payload)), payload,
                           _U32.pack(len(ann_payload)), ann_payload))
        self._file.write(record)
        self.rows_written += 1
        self.bytes_written += len(record)
        stats = self.manager.stats
        stats.spilled_rows += 1
        stats.spilled_bytes += len(record)

    def _encode_annotations(self, annotations: Sequence[Set[Any]]) -> bytes:
        intern = self.manager.intern_annotation
        parts = [_U16.pack(len(annotations))]
        for column_set in annotations:
            parts.append(_U16.pack(len(column_set)))
            for annotation in column_set:
                parts.append(_U32.pack(intern(annotation)))
        return b"".join(parts)

    def _decode_annotations(self, data: bytes) -> List[Set[Any]]:
        resolve = self.manager.resolve_annotation
        (columns,) = _U16.unpack_from(data, 0)
        offset = 2
        vector: List[Set[Any]] = []
        for _ in range(columns):
            (count,) = _U16.unpack_from(data, offset)
            offset += 2
            column_set: Set[Any] = set()
            for _ in range(count):
                (index,) = _U32.unpack_from(data, offset)
                offset += 4
                column_set.add(resolve(index))
            vector.append(column_set)
        return vector

    # -- reading ---------------------------------------------------------
    def entries(self) -> Iterator[Tuple[Tuple[Any, ...], Optional[List[Set[Any]]]]]:
        """One-shot read-back: ``(values, annotation vector | None)`` pairs.

        Runs of unannotated records are decoded through the vectorized
        ``deserialize_records`` shape decoder; annotated records fall back
        to the per-record path.
        """
        handle = self._file
        handle.flush()
        handle.seek(0)
        pending: List[bytes] = []
        while True:
            header = handle.read(4)
            if len(header) < 4:
                break
            (payload_length,) = _U32.unpack(header)
            payload = handle.read(payload_length)
            (ann_length,) = _U32.unpack(handle.read(4))
            if ann_length == 0:
                pending.append(payload)
                if len(pending) >= _READ_BATCH_ROWS:
                    for values in deserialize_records(pending,
                                                      with_tuple_ids=False):
                        yield values, None
                    pending = []
                continue
            if pending:
                for values in deserialize_records(pending, with_tuple_ids=False):
                    yield values, None
                pending = []
            ann_payload = handle.read(ann_length)
            yield deserialize_row(payload)[1:], self._decode_annotations(ann_payload)
        if pending:
            for values in deserialize_records(pending, with_tuple_ids=False):
                yield values, None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()
