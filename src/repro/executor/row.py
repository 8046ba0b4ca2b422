"""Annotated rows and output schemas used by the physical operators.

The paper's central observation (Section 3) is that users view annotations as
metadata while the DBMS views them as data.  The reproduction's executor
therefore carries annotations *next to* the data values: every row is a tuple
of values plus, for each output column, a set of :class:`~repro.annotations.model.Annotation`
objects attached to that column for this tuple.  Operators manipulate both
parts according to the propagation semantics of Section 3.4.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.errors import PlanningError


class ColumnInfo:
    """A column of an operator's output: an optional qualifier plus a name."""

    __slots__ = ("qualifier", "name")

    def __init__(self, name: str, qualifier: Optional[str] = None):
        self.name = name
        self.qualifier = qualifier

    def matches(self, name: str, qualifier: Optional[str]) -> bool:
        if self.name.lower() != name.lower():
            return False
        if qualifier is None:
            return True
        return (self.qualifier or "").lower() == qualifier.lower()

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __repr__(self) -> str:
        return f"ColumnInfo({self.display()})"


class OutputSchema:
    """Ordered list of output columns with qualified name resolution."""

    def __init__(self, columns: Sequence[ColumnInfo]):
        self.columns = list(columns)

    @classmethod
    def from_names(cls, names: Sequence[str], qualifier: Optional[str] = None) -> "OutputSchema":
        return cls([ColumnInfo(name, qualifier) for name in names])

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> List[str]:
        return [column.name for column in self.columns]

    def resolve(self, name: str, qualifier: Optional[str] = None) -> int:
        """Return the position of the referenced column.

        Raises :class:`PlanningError` when the reference is unknown or
        ambiguous (same column name exposed by two unqualified tables).
        """
        matches = [
            index for index, column in enumerate(self.columns)
            if column.matches(name, qualifier)
        ]
        if not matches:
            reference = f"{qualifier}.{name}" if qualifier else name
            raise PlanningError(f"unknown column reference {reference!r}")
        if len(matches) > 1 and qualifier is None:
            # Ambiguity is tolerated when every match refers to the same
            # position-equivalent column name of a single table (may happen
            # after self-joins with aliases); otherwise report it.
            raise PlanningError(f"ambiguous column reference {name!r}")
        return matches[0]

    def try_resolve(self, name: str, qualifier: Optional[str] = None) -> Optional[int]:
        try:
            return self.resolve(name, qualifier)
        except PlanningError:
            return None

    def concat(self, other: "OutputSchema") -> "OutputSchema":
        return OutputSchema(self.columns + other.columns)

    def positions_for_qualifier(self, qualifier: str) -> List[int]:
        return [
            index for index, column in enumerate(self.columns)
            if (column.qualifier or "").lower() == qualifier.lower()
        ]


class Row:
    """A tuple of values plus per-column annotation sets.

    The annotation vector is materialized lazily: most rows of most queries
    carry no annotations, and the hot scan/filter/project pipeline never
    needs to allocate their empty sets.  ``row.annotations`` materializes
    (and caches) the vector on first access, so every operator keeps its
    familiar view.
    """

    __slots__ = ("values", "_annotations")

    def __init__(self, values: Tuple[Any, ...],
                 annotations: Optional[List[Set[Any]]] = None):
        self.values = values if type(values) is tuple else tuple(values)
        if annotations is not None and len(annotations) != len(self.values):
            raise PlanningError("annotation vector length does not match row arity")
        self._annotations = annotations

    @property
    def annotations(self) -> List[Set[Any]]:
        annotations = self._annotations
        if annotations is None:
            annotations = [set() for _ in self.values]
            self._annotations = annotations
        return annotations

    def has_annotations(self) -> bool:
        """True when some column of this row carries at least one annotation."""
        annotations = self._annotations
        return annotations is not None and any(annotations)

    # ------------------------------------------------------------------
    def all_annotations(self) -> Set[Any]:
        """Union of the annotations attached to any column of this row."""
        merged: Set[Any] = set()
        if self._annotations is not None:
            for anns in self._annotations:
                merged |= anns
        return merged

    def copy(self) -> "Row":
        if self._annotations is None:
            return Row(self.values)
        return Row(self.values, [set(anns) for anns in self._annotations])

    def concat(self, other: "Row") -> "Row":
        if self._annotations is None and other._annotations is None:
            return Row(self.values + other.values)
        return Row(self.values + other.values,
                   [set(a) for a in self.annotations] + [set(a) for a in other.annotations])

    # -- sequence protocol (PEP 249 rows are sequences) -----------------
    def __getitem__(self, index):
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"Row({self.values!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Row) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)


def merge_annotation_vectors(rows: Iterable[Row], arity: int) -> List[Set[Any]]:
    """Column-wise union of the annotation vectors of ``rows``.

    This is the propagation rule the paper assigns to operators that combine
    several tuples into one (duplicate elimination, GROUP BY, UNION,
    INTERSECT, difference): the output tuple carries the union of the
    annotations of the tuples it represents.
    """
    merged: List[Set[Any]] = [set() for _ in range(arity)]
    for row in rows:
        annotations = row._annotations
        if annotations is None:
            continue
        for index in range(min(arity, len(annotations))):
            merged[index] |= annotations[index]
    return merged


def concat_annotation_vectors(left: Optional[Sequence[Set[Any]]],
                              right: Optional[Sequence[Set[Any]]],
                              left_arity: int,
                              right_arity: int) -> Optional[List[Set[Any]]]:
    """Annotation vector of a joined row (copying sets, like ``Row.concat``).

    ``None`` inputs mean "no annotations on that side"; when both sides are
    ``None`` the combined row carries none either (the common fast path the
    batched join exploits — no per-row set allocation at all).
    """
    if left is None and right is None:
        return None
    left_part = ([set(anns) for anns in left] if left is not None
                 else [set() for _ in range(left_arity)])
    right_part = ([set(anns) for anns in right] if right is not None
                  else [set() for _ in range(right_arity)])
    return left_part + right_part


def batch_from_entries(values: List[Tuple[Any, ...]],
                       annotations: List[Optional[List[Set[Any]]]],
                       arity: int) -> "RowBatch":
    """Build a :class:`RowBatch` from per-row ``(values, vector-or-None)``
    entries, materializing empty vectors only when some row is annotated."""
    if any(vector is not None for vector in annotations):
        return RowBatch(values,
                        [vector if vector is not None
                         else [set() for _ in range(arity)]
                         for vector in annotations])
    return RowBatch(values)


class RowBatch:
    """A batch of rows flowing through the vectorized operator pipeline.

    ``values`` is row-major: one value tuple per row.  ``annotations`` is
    either ``None`` — meaning no row in the batch carries any annotation, the
    common case the batch operators exploit — or a parallel list of per-row
    annotation vectors (one ``List[Set]`` per row, as on :class:`Row`).
    """

    __slots__ = ("values", "annotations")

    def __init__(self, values: List[Tuple[Any, ...]],
                 annotations: Optional[List[List[Set[Any]]]] = None):
        self.values = values
        self.annotations = annotations

    def __len__(self) -> int:
        return len(self.values)

    def to_rows(self) -> Iterable[Row]:
        if self.annotations is None:
            return map(Row, self.values)
        return (Row(values, anns)
                for values, anns in zip(self.values, self.annotations))

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "RowBatch":
        values = [row.values for row in rows]
        if any(row._annotations is not None for row in rows):
            return cls(values, [row.annotations for row in rows])
        return cls(values)


class BatchedRows:
    """An ``Iterable[Row]`` view over a one-shot stream of row batches.

    Operators with a vectorized implementation detect this wrapper on their
    input's row part and consume ``.batches`` directly; everything else (the
    pipeline breakers, the annotation operators) just iterates rows, which is
    how batches are consumed at those operators' boundaries.
    """

    __slots__ = ("batches",)

    def __init__(self, batches: Iterable[RowBatch]):
        self.batches = batches

    def __iter__(self):
        for batch in self.batches:
            yield from batch.to_rows()


class StreamingResultSet:
    """Lazily produced result of a query: schema plus a one-shot row iterator.

    Rows are computed on demand as the consumer iterates, so a client that
    stops early (or a ``LIMIT``) never pays for the rest of the pipeline.
    Consume the stream before issuing further DML against the database — the
    underlying scan reads live table state.  ``fetchall`` drains what is left
    into a materialized :class:`ResultSet`.
    """

    def __init__(self, schema: OutputSchema, rows: Iterable[Row]):
        self.schema = schema
        self._rows = iter(rows)

    @property
    def columns(self) -> List[str]:
        return self.schema.names

    def __iter__(self):
        return self._rows

    def __next__(self) -> Row:
        return next(self._rows)

    def fetchmany(self, count: int) -> List[Row]:
        out: List[Row] = []
        if count <= 0:
            return out
        for row in self._rows:
            out.append(row)
            if len(out) >= count:
                break
        return out

    def close(self) -> None:
        """Abandon the rows not consumed yet, releasing their pipeline."""
        self._rows = iter(())

    def __repr__(self) -> str:
        return f"StreamingResultSet(columns={self.columns})"
