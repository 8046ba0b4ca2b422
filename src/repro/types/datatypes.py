"""Column data types supported by the bdbms reproduction.

The paper stores ordinary relational attributes (gene identifiers, names),
long biological sequences, XML-formatted annotation bodies, and timestamps
for annotation archival.  We model these with a small, closed set of types;
sequences and XML are stored as text but carry their own type tag so that
access methods (SP-GiST tries, the SBC-tree) and the annotation manager can
recognise them.
"""

from __future__ import annotations

import enum
from datetime import datetime
from typing import Any, Optional

from repro.core.errors import TypeMismatchError


class DataType(enum.Enum):
    """Enumeration of column types."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"
    #: Biological sequence data (DNA, protein primary/secondary structure).
    SEQUENCE = "SEQUENCE"
    #: XML-formatted values (annotation bodies, provenance records).
    XML = "XML"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a SQL type name (case-insensitive, with common aliases)."""
        normalized = name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "FLOAT": cls.FLOAT,
            "REAL": cls.FLOAT,
            "DOUBLE": cls.FLOAT,
            "NUMERIC": cls.FLOAT,
            "DECIMAL": cls.FLOAT,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
            "TIMESTAMP": cls.TIMESTAMP,
            "DATETIME": cls.TIMESTAMP,
            "SEQUENCE": cls.SEQUENCE,
            "XML": cls.XML,
        }
        if normalized not in aliases:
            raise TypeMismatchError(f"unknown data type: {name!r}")
        return aliases[normalized]


#: Types whose Python representation is a string.
_TEXT_LIKE = {DataType.TEXT, DataType.SEQUENCE, DataType.XML}

#: Coarse comparison category of each column type.  Values of one category
#: compare natively; across categories ``compare_values`` falls back to the
#: string forms (so ``5 = '5'`` holds), which no ordered or hashed index can
#: reproduce — index probes and join keys therefore stay within a category.
TYPE_CATEGORIES = {
    DataType.INTEGER: "num", DataType.FLOAT: "num", DataType.BOOLEAN: "num",
    DataType.TEXT: "text", DataType.SEQUENCE: "text", DataType.XML: "text",
    DataType.TIMESTAMP: "time",
}


def value_category(value: Any) -> Optional[str]:
    """Category of a literal or probe value: "num", "text", or ``None``."""
    if isinstance(value, (bool, int, float)):
        return "num"
    if isinstance(value, str):
        return "text"
    return None


#: ISO format used when timestamps are written out as text.
TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S.%f"


def coerce(value: Any, dtype: DataType, nullable: bool = True) -> Any:
    """Coerce ``value`` to the Python representation of ``dtype``.

    ``None`` is the SQL NULL and is allowed whenever ``nullable`` is true.
    Raises :class:`TypeMismatchError` when the value cannot be represented.
    """
    if value is None:
        if not nullable:
            raise TypeMismatchError("NULL value for a NOT NULL column")
        return None
    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to INTEGER") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to INTEGER")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT")
    if dtype in _TEXT_LIKE:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, float, bool)):
            return str(value)
        raise TypeMismatchError(f"cannot coerce {value!r} to {dtype.value}")
    if dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false", "t", "f"):
            return value.lower() in ("true", "t")
        raise TypeMismatchError(f"cannot coerce {value!r} to BOOLEAN")
    if dtype is DataType.TIMESTAMP:
        if isinstance(value, datetime):
            return value
        if isinstance(value, (int, float)):
            return datetime.fromtimestamp(float(value))
        if isinstance(value, str):
            return parse_timestamp(value)
        raise TypeMismatchError(f"cannot coerce {value!r} to TIMESTAMP")
    raise TypeMismatchError(f"unsupported data type {dtype!r}")


def parse_timestamp(text: str) -> datetime:
    """Parse a timestamp literal in one of a few tolerant formats."""
    candidates = (
        TIMESTAMP_FORMAT,
        "%Y-%m-%d %H:%M:%S",
        "%Y-%m-%dT%H:%M:%S.%f",
        "%Y-%m-%dT%H:%M:%S",
        "%Y-%m-%d",
    )
    for fmt in candidates:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise TypeMismatchError(f"cannot parse timestamp literal {text!r}")


def format_value(value: Any, dtype: Optional[DataType] = None) -> str:
    """Render a value for display (used by examples and the REPL-ish API)."""
    if value is None:
        return "NULL"
    if isinstance(value, datetime):
        return value.strftime(TIMESTAMP_FORMAT)
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return repr(value)
    return str(value)
