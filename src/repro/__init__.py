"""repro: a reproduction of bdbms (CIDR 2007), a DBMS for biological data.

``repro`` is a DB-API 2.0 (PEP 249) module: :func:`connect` opens a database
and returns a :class:`Connection` whose cursors bind qmark (``?``)
parameters, reuse prepared statements and cached query plans, and stream
SELECT results lazily:

>>> import repro
>>> conn = repro.connect()          # or repro.connect("genes.db")
>>> cur = conn.cursor()
>>> cur.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GSequence SEQUENCE)")
>>> cur.execute("INSERT INTO Gene VALUES (?, ?)", ("JW0080", "ATGATGGAAAA"))
>>> cur.execute("SELECT GID FROM Gene WHERE GID = ?", ("JW0080",))
>>> cur.fetchone().values
('JW0080',)

The same :class:`Connection` and :class:`Cursor` serve a remote database:
``repro.client.connect(port=...)`` returns a
:class:`~repro.client.NetworkConnection`, a :class:`Connection` whose
transport is a socket to :mod:`repro.server`.

The lower-level :class:`Database` facade remains available (engine knobs,
direct table access, the bdbms managers); ``db.connect(user=...)`` runs
statements as a given user, and its string entry points
(``db.execute(sql)``) are deprecated shims over the same engine.

Sub-packages mirror the paper's architecture: ``annotations``, ``provenance``,
``dependencies``, ``authorization`` (the four bdbms pillars), ``index`` (the
SP-GiST framework and the SBC-tree), and the relational substrate
(``storage``, ``catalog``, ``sql``, ``planner``, ``executor``, ``dbapi``).
"""

from repro.core.database import Database
from repro.core.errors import (
    BdbmsError,
    DataError,
    DatabaseError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    Warning,
)
from repro.dbapi import (
    Connection,
    Cursor,
    apilevel,
    connect,
    paramstyle,
    threadsafety,
)
from repro.executor.engine import EngineConfig, ExecutionSummary
from repro.executor.prepared import PreparedStatement
from repro.executor.row import ResultSet, Row, StreamingResultSet

__version__ = "0.2.0"

__all__ = [
    # DB-API 2.0 module interface (PEP 249)
    "apilevel",
    "threadsafety",
    "paramstyle",
    "connect",
    "Connection",
    "Cursor",
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    # Engine facade
    "Database",
    "BdbmsError",
    "EngineConfig",
    "ExecutionSummary",
    "PreparedStatement",
    "ResultSet",
    "Row",
    "StreamingResultSet",
    "__version__",
]
