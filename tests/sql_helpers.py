"""Run SQL against a :class:`repro.Database` through its public DB-API cursor."""


def run(db, sql, user="admin"):
    """Execute one statement as ``user`` on a fresh cursor; returns the cursor."""
    return db.connect(user=user).cursor().execute(sql)


def fetch(db, sql, user="admin"):
    """Every row of one query, read through a cursor."""
    return run(db, sql, user).fetchall()


def values(db, sql, user="admin"):
    """The value tuples of one query's rows."""
    return [row.values for row in fetch(db, sql, user)]


def bodies_of(annotations):
    """The sorted bodies of one cell's (or one row's) annotation set."""
    return sorted(annotation.body for annotation in annotations)


def details(db, sql):
    """``ExecutionSummary.details`` of one statement, for the tests whose
    subject is a details key: a cursor does not expose them."""
    return db.engine.execute_prepared(db.engine.prepare(sql)).details
