"""Differential fuzzing: the SQL executor vs. a direct Python oracle.

Hypothesis builds random WHERE expressions over a known table; the test
evaluates each both through the full SQL pipeline (lexer → parser →
compiled plan) and through an equivalent Python predicate, and the
surviving row sets must match exactly.  Further strategies cover the
other shapes the plan compiler owns — ORDER BY over mixed types,
grouping with every aggregate, LEFT JOIN null rows, IN (SELECT ...) —
and the rule that a bad column reference raises only once a row
reaches it.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.engine import Database
from repro.db.errors import ColumnError

COLUMNS = ("a", "b", "name")
ROWS = [
    (1, 10.0, "alpha"),
    (2, 20.0, "beta"),
    (3, 30.0, "gamma"),
    (4, 5.0, "delta"),
    (5, 50.0, "alphabet"),
    (6, 0.0, "beta max"),
    (7, 15.5, "Gamma Ray"),
    (8, 25.0, "x"),
]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE t (a INT PRIMARY KEY, b FLOAT, name VARCHAR(30))"
    )
    for a, b, name in ROWS:
        database.execute(
            "INSERT INTO t (a, b, name) VALUES (%s, %s, %s)", (a, b, name)
        )
    return database


# ----------------------------------------------------------------------
# Expression generator: builds (sql_text, python_predicate) pairs.
# ----------------------------------------------------------------------

def _leaf_comparisons():
    ops = {
        "=": lambda x, y: x == y,
        "<>": lambda x, y: x != y,
        "<": lambda x, y: x < y,
        ">": lambda x, y: x > y,
        "<=": lambda x, y: x <= y,
        ">=": lambda x, y: x >= y,
    }

    def build(column, op_name, value):
        op = ops[op_name]
        index = COLUMNS.index(column)
        if isinstance(value, str):
            sql_value = "'" + value.replace("'", "''") + "'"
        else:
            sql_value = repr(value)
        sql = f"{column} {op_name} {sql_value}"

        def predicate(row):
            cell = row[index]
            if isinstance(cell, str) != isinstance(value, str):
                return False  # heterogeneous comparisons excluded below
            return op(cell, value)

        return sql, predicate

    numeric = st.builds(
        build,
        st.sampled_from(["a", "b"]),
        st.sampled_from(list(ops)),
        st.one_of(
            st.integers(min_value=-5, max_value=55),
            st.floats(min_value=0, max_value=55, allow_nan=False,
                      allow_infinity=False).map(lambda f: round(f, 2)),
        ),
    )
    # Strings: restrict to equality ops to avoid collation-order
    # differences between SQL and Python (both are ASCII here, but the
    # point of the oracle is arithmetic and logic, not collation).
    textual = st.builds(
        build,
        st.just("name"),
        st.sampled_from(["=", "<>"]),
        st.sampled_from([r[2] for r in ROWS] + ["nope", "alp"]),
    )
    return st.one_of(numeric, textual, _in_subquery_leaves())


def _in_subquery_leaves():
    """``a [NOT] IN (SELECT a FROM t WHERE b > v)`` against ROWS itself."""
    def build(negated, threshold):
        members = {a for a, b, _ in ROWS if b > threshold}
        keyword = "NOT IN" if negated else "IN"
        sql = f"a {keyword} (SELECT a FROM t WHERE b > {threshold})"
        return sql, lambda row: (row[0] in members) != negated

    return st.builds(build, st.booleans(),
                     st.integers(min_value=-1, max_value=55))


def _expressions(depth: int):
    if depth == 0:
        return _leaf_comparisons()
    sub = _expressions(depth - 1)

    def combine(kind, left, right):
        left_sql, left_fn = left
        right_sql, right_fn = right
        if kind == "AND":
            return (f"({left_sql} AND {right_sql})",
                    lambda row: left_fn(row) and right_fn(row))
        if kind == "OR":
            return (f"({left_sql} OR {right_sql})",
                    lambda row: left_fn(row) or right_fn(row))
        return (f"(NOT {left_sql})", lambda row: not left_fn(row))

    return st.one_of(
        sub,
        st.builds(combine, st.sampled_from(["AND", "OR"]), sub, sub),
        st.builds(combine, st.just("NOT"), sub, sub),
    )


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(_expressions(depth=2))
    def test_where_matches_python_oracle(self, db, expression):
        sql_where, predicate = expression
        result = db.execute(f"SELECT a FROM t WHERE {sql_where} ORDER BY a")
        got = [row[0] for row in result]
        expected = sorted(row[0] for row in ROWS if predicate(row))
        assert got == expected, sql_where

    @settings(max_examples=100, deadline=None)
    @given(_expressions(depth=1))
    def test_count_matches_oracle(self, db, expression):
        sql_where, predicate = expression
        result = db.execute(f"SELECT COUNT(*) FROM t WHERE {sql_where}")
        expected = sum(1 for row in ROWS if predicate(row))
        assert result.rows == [(expected,)], sql_where

    @settings(max_examples=100, deadline=None)
    @given(_expressions(depth=1))
    def test_negation_partitions_the_table(self, db, expression):
        sql_where, _ = expression
        matched = db.execute(
            f"SELECT COUNT(*) FROM t WHERE {sql_where}"
        ).rows[0][0]
        unmatched = db.execute(
            f"SELECT COUNT(*) FROM t WHERE NOT ({sql_where})"
        ).rows[0][0]
        assert matched + unmatched == len(ROWS), sql_where


# ----------------------------------------------------------------------
# ORDER BY: mixed int/float/str/NULL keys, both directions, ties.
# ----------------------------------------------------------------------

def _oracle_rank(value):
    """NULLs first, then numbers by value, then anything else as text."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def _oracle_order(rows, keys):
    """Stable sort by comparing keys one at a time, each in its own
    direction — the definition, not the executor's multi-pass sort."""
    def compare(x, y):
        for position, ascending in keys:
            left, right = _oracle_rank(x[position]), _oracle_rank(y[position])
            if left != right:
                return (-1 if left < right else 1) * (1 if ascending else -1)
        return 0
    return sorted(rows, key=functools.cmp_to_key(compare))


_MIXED = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([-1.5, 0.0, 2.5, 3.0]),
    st.sampled_from(["", "a", "B", "b", "10", "2"]),
)


class TestOrderBy:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_MIXED, st.integers(min_value=0, max_value=2)),
                 min_size=0, max_size=12),
        st.lists(st.tuples(st.sampled_from(["v", "k"]), st.booleans()),
                 min_size=1, max_size=2, unique_by=lambda key: key[0]),
    )
    def test_order_matches_stable_oracle(self, values, keys):
        database = Database()
        # DATETIME is the one column type that stores numbers and text.
        database.execute("CREATE TABLE m (id INT PRIMARY KEY, v DATETIME, k INT)")
        for i, (v, k) in enumerate(values):
            database.execute("INSERT INTO m (id, v, k) VALUES (%s, %s, %s)",
                             (i, v, k))
        order_sql = ", ".join(
            f"{column} {'ASC' if ascending else 'DESC'}"
            for column, ascending in keys
        )
        result = database.execute(f"SELECT id, v, k FROM m ORDER BY {order_sql}")
        rows = [(i, v, k) for i, (v, k) in enumerate(values)]
        positions = {"v": 1, "k": 2}
        expected = _oracle_order(
            rows, [(positions[column], ascending) for column, ascending in keys]
        )
        assert result.rows == expected, order_sql


# ----------------------------------------------------------------------
# GROUP BY with every aggregate, DISTINCT and HAVING.
# ----------------------------------------------------------------------

_GROUP_ROWS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.one_of(st.none(), st.integers(min_value=-5, max_value=5))),
    min_size=0, max_size=20,
)


def _grouped_db(rows):
    database = Database()
    database.execute("CREATE TABLE g (id INT PRIMARY KEY, k INT, x INT)")
    for i, (k, x) in enumerate(rows):
        database.execute("INSERT INTO g (id, k, x) VALUES (%s, %s, %s)",
                         (i, k, x))
    return database


def _aggregates(xs):
    present = [x for x in xs if x is not None]
    if not present:
        return (len(xs), 0, None, None, None, None, 0)
    return (len(xs), len(present), sum(present),
            sum(present) / len(present), min(present), max(present),
            len(set(present)))


class TestGrouping:
    @settings(max_examples=100, deadline=None)
    @given(_GROUP_ROWS, st.integers(min_value=0, max_value=4))
    def test_group_by_having_matches_oracle(self, rows, minimum):
        result = _grouped_db(rows).execute(
            "SELECT k, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), "
            "COUNT(DISTINCT x) FROM g GROUP BY k HAVING COUNT(*) >= %s "
            "ORDER BY k",
            (minimum,),
        )
        groups = {}
        for k, x in rows:
            groups.setdefault(k, []).append(x)
        expected = [(k,) + _aggregates(xs) for k, xs in sorted(groups.items())
                    if len(xs) >= minimum]
        assert result.rows == expected

    @settings(max_examples=100, deadline=None)
    @given(_GROUP_ROWS, st.integers(min_value=-5, max_value=5))
    def test_aggregates_without_group_by(self, rows, floor):
        """One group of everything — one row even when nothing matches."""
        result = _grouped_db(rows).execute(
            "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), "
            "COUNT(DISTINCT x) FROM g WHERE x >= %s OR x IS NULL",
            (floor,),
        )
        xs = [x for _, x in rows if x is None or x >= floor]
        assert result.rows == [_aggregates(xs)]

    @settings(max_examples=50, deadline=None)
    @given(_GROUP_ROWS)
    def test_distinct_keeps_first_occurrences_in_order(self, rows):
        result = _grouped_db(rows).execute("SELECT DISTINCT k, x FROM g")
        assert result.rows == list(dict.fromkeys(rows))


# ----------------------------------------------------------------------
# LEFT JOIN null rows, through an index probe and a hash join.
# ----------------------------------------------------------------------

class TestLeftJoin:
    @pytest.mark.parametrize("on", ["l.ref = r.rid", "l.ref = r.code"],
                             ids=["index", "hash"])
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
                 max_size=8),
        st.lists(st.integers(min_value=0, max_value=5), max_size=6,
                 unique=True),
    )
    def test_left_join_matches_oracle(self, on, refs, rids):
        database = Database()
        database.executescript("""
            CREATE TABLE l (id INT PRIMARY KEY, ref INT);
            CREATE TABLE r (rid INT PRIMARY KEY, code INT, name TEXT);
        """)
        for i, ref in enumerate(refs):
            database.execute("INSERT INTO l (id, ref) VALUES (%s, %s)", (i, ref))
        for rid in rids:
            database.execute(
                "INSERT INTO r (rid, code, name) VALUES (%s, %s, %s)",
                (rid, rid, f"n{rid}"),
            )
        result = database.execute(
            f"SELECT l.id, r.rid, r.name FROM l LEFT JOIN r ON {on} "
            "ORDER BY l.id"
        )
        expected = [
            (i, ref, f"n{ref}") if ref in rids else (i, None, None)
            for i, ref in enumerate(refs)
        ]
        assert result.rows == expected


# ----------------------------------------------------------------------
# IN (SELECT ...) with parameters at both levels.
# ----------------------------------------------------------------------

class TestInSubquery:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                           st.integers(min_value=0, max_value=2)),
                 max_size=10),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
    )
    def test_membership_matches_oracle(self, s_rows, group, floor, negated):
        database = Database()
        database.executescript("""
            CREATE TABLE u (id INT PRIMARY KEY, v INT);
            CREATE TABLE s (sid INT PRIMARY KEY, v INT, g INT);
        """)
        for i in range(8):
            database.execute("INSERT INTO u (id, v) VALUES (%s, %s)",
                             (i, None if i == 7 else i % 7))
        for i, (v, g) in enumerate(s_rows):
            database.execute("INSERT INTO s (sid, v, g) VALUES (%s, %s, %s)",
                             (i, v, g))
        keyword = "NOT IN" if negated else "IN"
        result = database.execute(
            f"SELECT id FROM u WHERE id >= %s AND v {keyword} "
            "(SELECT v FROM s WHERE g = %s) ORDER BY id",
            (floor, group),
        )
        members = {v for v, g in s_rows if g == group}
        expected = [
            (i,) for i in range(8)
            if i >= floor and i != 7  # a NULL operand never matches
            and ((i % 7) in members) != negated
        ]
        assert result.rows == expected


# ----------------------------------------------------------------------
# Unresolvable columns raise only when a row reaches them.
# ----------------------------------------------------------------------

_BAD_REFERENCES = [
    ("SELECT nope FROM p", "unknown column 'nope'"),
    ("SELECT id FROM p WHERE nope = 1", "unknown column 'nope'"),
    ("SELECT id FROM p ORDER BY zz.x", "unknown table alias 'zz' in zz.x"),
    ("SELECT p.nope FROM p", "no column 'nope' in alias 'p'"),
    ("SELECT x FROM p JOIN q ON p.id = q.pid",
     "ambiguous column 'x' (in ['p', 'q'])"),
    ("SELECT p.id FROM p JOIN q ON p.id = q.pid WHERE x > 0",
     "ambiguous column 'x' (in ['p', 'q'])"),
    ("SELECT k, COUNT(*) FROM p GROUP BY nope", "unknown column 'nope'"),
]


class TestColumnErrors:
    @pytest.fixture()
    def database(self):
        database = Database()
        database.executescript("""
            CREATE TABLE p (id INT PRIMARY KEY, x INT, k INT);
            CREATE TABLE q (qid INT PRIMARY KEY, pid INT, x INT);
        """)
        return database

    @pytest.mark.parametrize("sql, message", _BAD_REFERENCES)
    def test_no_rows_no_error(self, database, sql, message):
        assert database.execute(sql).rows == []

    @pytest.mark.parametrize("sql, message", _BAD_REFERENCES)
    def test_first_row_raises(self, database, sql, message):
        database.execute("INSERT INTO p (id, x, k) VALUES (1, 1, 1)")
        database.execute("INSERT INTO q (qid, pid, x) VALUES (1, 1, 2)")
        with pytest.raises(ColumnError) as raised:
            database.execute(sql)
        assert str(raised.value) == message

    def test_bare_column_of_an_empty_aggregate_group_raises(self, database):
        """Aggregates over no rows form one group with no first row, so
        a bare column there has nothing to resolve against."""
        assert database.execute("SELECT COUNT(*) FROM p").rows == [(0,)]
        with pytest.raises(ColumnError):
            database.execute("SELECT k, COUNT(*) FROM p")
