"""Value comparison and serialization helpers shared across the engine.

SQL three-valued logic is approximated the way small engines usually do it:
``None`` (NULL) compares as unknown, and predicates treat unknown as false.
Serialization is a compact, self-describing binary format used by the slotted
pages in :mod:`repro.storage`.
"""

from __future__ import annotations

import struct
from datetime import datetime
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.errors import StorageError

# Type tags used by the record serializer.
_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_TEXT = 3
_TAG_BOOL = 4
_TAG_TIMESTAMP = 5


def compare_values(left: Any, right: Any) -> Optional[int]:
    """Three-valued comparison: -1, 0, 1, or ``None`` when either is NULL.

    Mixed numeric types compare numerically; all other mixed-type comparisons
    fall back to comparing the string forms, which keeps the engine total
    (sorting never raises) while matching SQL behaviour for the homogeneous
    columns produced by the catalog's type coercion.
    """
    if left is None or right is None:
        return None
    if isinstance(left, bool) and isinstance(right, bool):
        left, right = int(left), int(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        # NaN gets a deterministic total order (PostgreSQL-style): equal to
        # itself, greater than every other number.  Without this, NaN would
        # compare "equal" to everything and join results would depend on the
        # physical join strategy.
        left_nan, right_nan = left != left, right != right
        if left_nan or right_nan:
            if left_nan and right_nan:
                return 0
            return 1 if left_nan else -1
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    if isinstance(left, datetime) and isinstance(right, datetime):
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    left_s, right_s = str(left), str(right)
    if left_s < right_s:
        return -1
    if left_s > right_s:
        return 1
    return 0


def values_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL equality: ``None`` when either side is NULL."""
    cmp = compare_values(left, right)
    if cmp is None:
        return None
    return cmp == 0


#: Canonical stand-in for NaN in hash keys.  Python's ``dict`` and ``set``
#: treat distinct NaN objects as unequal (``hash(nan)`` is per-object), but
#: :func:`compare_values` orders NaN equal to itself, so every hashed
#: operator (hash join, GROUP BY, DISTINCT, set operations, DISTINCT
#: aggregates, spill partitioning) keys NaN through this one object.
NAN_KEY = object()


def hash_key(value: Any) -> Any:
    """``value`` as a dict/set key that agrees with :func:`compare_values`
    equality: every NaN maps to :data:`NAN_KEY`."""
    if isinstance(value, float) and value != value:
        return NAN_KEY
    return value


class SortKey:
    """Total-order sort key that places NULLs first and handles mixed types."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "SortKey") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        cmp = compare_values(self.value, other.value)
        return cmp is not None and cmp < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortKey):
            return NotImplemented
        if self.value is None or other.value is None:
            return self.value is None and other.value is None
        return compare_values(self.value, other.value) == 0


class ReverseSortKey:
    """Descending counterpart of :class:`SortKey`.

    Lets a multi-key ``ORDER BY`` with mixed directions compile to a single
    composite key tuple — the form the external sort's run generation and
    k-way merge need (one total order instead of repeated stable passes).
    """

    __slots__ = ("key",)

    def __init__(self, value: Any):
        self.key = SortKey(value)

    def __lt__(self, other: "ReverseSortKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReverseSortKey):
            return NotImplemented
        return self.key == other.key


def serialize_row(values: Sequence[Any]) -> bytes:
    """Serialize a row of Python values into a compact binary record."""
    parts: List[bytes] = [struct.pack("<H", len(values))]
    for value in values:
        if value is None:
            parts.append(struct.pack("<B", _TAG_NULL))
        elif isinstance(value, bool):
            parts.append(struct.pack("<BB", _TAG_BOOL, 1 if value else 0))
        elif isinstance(value, int):
            parts.append(struct.pack("<Bq", _TAG_INT, value))
        elif isinstance(value, float):
            parts.append(struct.pack("<Bd", _TAG_FLOAT, value))
        elif isinstance(value, datetime):
            parts.append(struct.pack("<Bd", _TAG_TIMESTAMP, value.timestamp()))
        elif isinstance(value, str):
            encoded = value.encode("utf-8")
            parts.append(struct.pack("<BI", _TAG_TEXT, len(encoded)))
            parts.append(encoded)
        else:
            raise StorageError(f"cannot serialize value of type {type(value).__name__}")
    return b"".join(parts)


#: Pre-compiled Struct objects: ``Struct.unpack_from`` skips the per-call
#: format-string cache lookup that ``struct.unpack_from`` pays.
_STRUCT_U16 = struct.Struct("<H")
_STRUCT_I64 = struct.Struct("<q")
_STRUCT_F64 = struct.Struct("<d")
_STRUCT_U32 = struct.Struct("<I")


def deserialize_row(data: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`serialize_row`."""
    if len(data) < 2:
        raise StorageError("truncated record header")
    (count,) = _STRUCT_U16.unpack_from(data, 0)
    offset = 2
    values: List[Any] = []
    try:
        return _decode_values(data, offset, count, values)
    except (struct.error, IndexError) as exc:
        raise StorageError("truncated record body") from exc


def _decode_record(data: bytes) -> Tuple[int, Tuple[Any, ...]]:
    """Decode one tuple-id-prefixed heap record (the per-record fallback)."""
    values = deserialize_row(data)
    if not values or not isinstance(values[0], int):
        raise StorageError("corrupt record: missing tuple id")
    return values[0], tuple(values[1:])


class _RecordShape:
    """A compiled decoder for one physical record layout.

    Records of one table are almost always byte-identical in *shape*: same
    column tags, same text lengths.  A shape captures that skeleton — the
    constant bytes (header, tags, text length fields) and a ``Struct`` format
    for the payload — and compiles a converter that decodes a whole run of
    same-shape records with **one** ``Struct.iter_unpack`` over their
    concatenation plus one generated list comprehension.  ``checkpoints``
    are the skeleton byte runs used to prove a record matches before the
    compiled decoder is trusted.
    """

    __slots__ = ("matches", "convert", "convert_values", "record_length")

    def __init__(self, data: bytes):
        count = data[0] | (data[1] << 8)
        if count < 1 or len(data) < 11 or data[2] != _TAG_INT:
            raise StorageError("corrupt record: missing tuple id")
        fmt: List[str] = ["<2x"]
        runs: List[Tuple[int, int]] = [(0, 2)]
        expressions: List[str] = []
        offset = 2
        out_index = 0

        def mark(position: int, length: int) -> None:
            last_offset, last_length = runs[-1]
            if last_offset + last_length == position:
                runs[-1] = (last_offset, last_length + length)
            else:
                runs.append((position, length))

        for _ in range(count):
            tag = data[offset]
            mark(offset, 1)
            offset += 1
            fmt.append("x")
            if tag == _TAG_INT:
                fmt.append("q")
                expressions.append(f"t[{out_index}]")
                out_index += 1
                offset += 8
            elif tag == _TAG_FLOAT:
                fmt.append("d")
                expressions.append(f"t[{out_index}]")
                out_index += 1
                offset += 8
            elif tag == _TAG_TEXT:
                (length,) = _STRUCT_U32.unpack_from(data, offset)
                mark(offset, 4)
                fmt.append(f"4x{length}s")
                expressions.append(f"t[{out_index}].decode('utf-8')")
                out_index += 1
                offset += 4 + length
            elif tag == _TAG_NULL:
                expressions.append("None")
            elif tag == _TAG_BOOL:
                fmt.append("B")
                expressions.append(f"bool(t[{out_index}])")
                out_index += 1
                offset += 1
            elif tag == _TAG_TIMESTAMP:
                fmt.append("d")
                expressions.append(f"_ts(t[{out_index}])")
                out_index += 1
                offset += 8
            else:
                raise StorageError(f"unknown value tag {tag}")
        if offset != len(data):
            raise StorageError("truncated record body")
        self.record_length = len(data)
        tail = ", ".join(expressions[1:]) + ("," if len(expressions) == 2 else "")
        structure = struct.Struct("".join(fmt))
        environment = {"_it": structure.iter_unpack, "_ts": datetime.fromtimestamp}
        self.convert = eval(  # noqa: S307 - source generated above
            f"lambda joined: [({expressions[0]}, ({tail})) for t in _it(joined)]",
            environment,
        )
        self.convert_values = eval(  # noqa: S307 - source generated above
            f"lambda joined: [({tail}) for t in _it(joined)]",
            environment,
        )
        # The skeleton verifier is generated too: one call with inline slice
        # comparisons instead of a Python loop per record.
        checks = []
        verify_env: dict = {}
        for index, (start, length) in enumerate(runs):
            verify_env[f"_c{index}"] = bytes(data[start:start + length])
            checks.append(f"data[{start}:{start + length}] == _c{index}")
        self.matches = eval(  # noqa: S307 - source generated above
            f"lambda data: {' and '.join(checks)}", verify_env)


#: record length -> known shapes of that length.  Bounded: once full, new
#: layouts decode through the per-record fallback instead of growing it.
_SHAPE_CACHE: dict = {}
_SHAPE_CACHE_MAX = 256
_shape_cache_size = 0


def deserialize_records(records: Sequence[bytes],
                        with_tuple_ids: bool = True) -> List[Any]:
    """Batch-decode tuple-id-prefixed heap records.

    The vectorized decode path used by batched scans: runs of records with
    the same physical shape (the overwhelmingly common case within a table)
    are concatenated and decoded with a single pre-compiled ``Struct`` pass
    — see :class:`_RecordShape` — instead of an interpreted tag-dispatch
    loop per value.  Falls back to per-record decoding for layouts beyond
    the shape-cache bound.  Each record must have been produced by
    ``serialize_row((tuple_id,) + values)`` — the layout the heap file
    writes.  Returns ``(tuple_id, values)`` pairs, or bare ``values`` tuples
    when ``with_tuple_ids`` is False (the plain-scan fast path, which skips
    one pair allocation per row).
    """
    out: List[Any] = []
    pending: List[bytes] = []
    pending_shape: Optional[_RecordShape] = None

    def flush() -> None:
        nonlocal pending
        if pending:
            convert = (pending_shape.convert if with_tuple_ids
                       else pending_shape.convert_values)
            out.extend(convert(b"".join(pending)))
            pending = []

    try:
        for data in records:
            shape = None
            candidates = _SHAPE_CACHE.get(len(data))
            if candidates is not None:
                for candidate in candidates:
                    if candidate.matches(data):
                        shape = candidate
                        break
            if shape is None:
                global _shape_cache_size
                if _shape_cache_size >= _SHAPE_CACHE_MAX:
                    flush()
                    pending_shape = None
                    tuple_id, values = _decode_record(data)
                    out.append((tuple_id, values) if with_tuple_ids else values)
                    continue
                shape = _RecordShape(data)
                _SHAPE_CACHE.setdefault(len(data), []).append(shape)
                _shape_cache_size += 1
            if shape is not pending_shape:
                flush()
                pending_shape = shape
            pending.append(data)
        flush()
    except (struct.error, IndexError) as exc:
        raise StorageError("truncated record body") from exc
    return out


def _decode_values(data: bytes, offset: int, count: int,
                   values: List[Any]) -> Tuple[Any, ...]:
    for _ in range(count):
        if offset >= len(data):
            raise StorageError("truncated record body")
        tag = data[offset]
        offset += 1
        if tag == _TAG_NULL:
            values.append(None)
        elif tag == _TAG_BOOL:
            values.append(bool(data[offset]))
            offset += 1
        elif tag == _TAG_INT:
            (number,) = _STRUCT_I64.unpack_from(data, offset)
            offset += 8
            values.append(number)
        elif tag == _TAG_FLOAT:
            (number,) = _STRUCT_F64.unpack_from(data, offset)
            offset += 8
            values.append(number)
        elif tag == _TAG_TIMESTAMP:
            (epoch,) = _STRUCT_F64.unpack_from(data, offset)
            offset += 8
            values.append(datetime.fromtimestamp(epoch))
        elif tag == _TAG_TEXT:
            (length,) = _STRUCT_U32.unpack_from(data, offset)
            offset += 4
            values.append(data[offset:offset + length].decode("utf-8"))
            offset += length
        else:
            raise StorageError(f"unknown value tag {tag}")
    return tuple(values)
