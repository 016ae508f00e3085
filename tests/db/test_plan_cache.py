"""The engine's compiled-plan cache: one compile per statement and
schema version, never a stale plan after a schema change."""

import pytest

from repro.db import engine as engine_module
from repro.db.engine import Database
from repro.db.errors import ColumnError, TableError


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, name TEXT)")
    for i in range(6):
        database.execute("INSERT INTO t (id, g, name) VALUES (%s, %s, %s)",
                         (i, i % 3, f"n{i}"))
    return database


@pytest.fixture()
def compiles(monkeypatch):
    """Counts calls of the statement compiler the engine uses."""
    calls = []
    original = engine_module.compile_statement

    def counting(statement, tables):
        calls.append(statement)
        return original(statement, tables)

    monkeypatch.setattr(engine_module, "compile_statement", counting)
    return calls


def test_statement_compiles_once_and_reruns_with_new_params(db, compiles):
    sql = "SELECT id FROM t WHERE g = %s ORDER BY id"
    assert db.execute(sql, (0,)).rows == [(0,), (3,)]
    assert db.execute(sql, (1,)).rows == [(1,), (4,)]
    assert db.execute(sql, (2,)).rows == [(2,), (5,)]
    assert len(compiles) == 1


def test_new_index_replaces_the_scan_plan(db, compiles):
    sql = "SELECT name FROM t WHERE g = %s"
    before = db.cost_model.counts()
    db.execute(sql, (1,))
    scanned = db.cost_model.counts()
    assert scanned["row_scan"] - before["row_scan"] == 6
    db.execute("CREATE INDEX idx_g ON t (g)")
    assert sorted(db.execute(sql, (1,)).rows) == [("n1",), ("n4",)]
    after = db.cost_model.counts()
    assert after["row_scan"] == scanned["row_scan"]
    assert after["index_probe"] == scanned["index_probe"] + 1
    assert len(compiles) == 2


def test_recreated_table_is_never_served_the_old_plan(db):
    sql = "SELECT * FROM t"
    assert db.execute(sql).columns == ["id", "g", "name"]
    db.drop_table("t")
    with pytest.raises(TableError):
        db.execute(sql)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, label TEXT)")
    db.execute("INSERT INTO t (id, label) VALUES (7, 'x')")
    result = db.execute(sql)
    assert result.columns == ["id", "label"]
    assert result.rows == [(7, "x")]


def test_a_missing_table_plan_recovers_once_the_table_exists():
    database = Database()
    sql = "SELECT a FROM later"
    with pytest.raises(TableError):
        database.execute(sql)
    database.execute("CREATE TABLE later (a INT)")
    database.execute("INSERT INTO later (a) VALUES (1)")
    assert database.execute(sql).rows == [(1,)]


def test_unresolvable_column_plan_is_cached_but_raises_per_row(db, compiles):
    sql = "SELECT nope FROM t WHERE g = %s"
    assert db.execute(sql, (9,)).rows == []
    with pytest.raises(ColumnError, match="unknown column 'nope'"):
        db.execute(sql, (1,))
    assert len(compiles) == 1
