"""Per-statement SQL timings for the three slow TPC-W pages.

Best sellers, new products and title search are the statements whose
executor CPU dominates the browsing mix.  Each is captured from its
real handler on a ``PopulationScale.tiny()`` database (so the SQL and
parameters are exactly what the page sends) and then timed through
``Database.execute_statement``: plan lookup, locking, execution and
cost accounting, without parsing.  Best-of-N means are exported to
``BENCH_db.json`` with the host they were taken on (only when
``REPRO_BENCH_EXPORT=1``); there is no absolute-time gate, because
timings only compare as ratios on one host.
"""

import time

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.harness.export import export_bench_json
from repro.tpcw.app import TPCWApplication
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.schema import create_schema

#: name -> (page handler, handler params).
PAGES = {
    "best_sellers": ("best_sellers", {"subject": "ARTS"}),
    "new_products": ("new_products", {"subject": "ARTS"}),
    "title_search": ("execute_search",
                     {"search_type": "title", "search_string": "the"}),
}


class _CapturingDatabase(Database):
    """Remembers the last statement run and its parameters."""

    last = None

    def execute_statement(self, statement, params=(), connection_id=None):
        self.last = (statement, params)
        return super().execute_statement(statement, params, connection_id)


@pytest.fixture(scope="module")
def statements():
    """name -> (database, statement, params) of each page's main query."""
    database = _CapturingDatabase()
    create_schema(database)
    populate(database, PopulationScale.tiny())
    app = TPCWApplication(database, bestseller_window=50)
    captured = {}
    with ConnectionPool(database, size=1).lease() as connection:
        app.bind_connection(connection)
        try:
            for name, (handler, params) in PAGES.items():
                getattr(app, handler)(**params)
                captured[name] = (database,) + database.last
        finally:
            app.bind_connection(None)
    return captured


def best_time(fn, repeats=5, number=50):
    """Best-of-N mean seconds per call (timeit-style)."""
    fn()  # warm the plan cache
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


@pytest.mark.parametrize("name", sorted(PAGES))
def test_statement(benchmark, statements, name):
    database, statement, params = statements[name]
    result = benchmark(database.execute_statement, statement, params)
    assert len(result) > 0


def test_statement_costs_are_stable(statements):
    """Repeat runs charge identical counts: the timings below measure
    the same work every time."""
    for database, statement, params in statements.values():
        deltas = []
        for _ in range(2):
            before = database.cost_model.counts()
            database.execute_statement(statement, params)
            after = database.cost_model.counts()
            deltas.append({op: after[op] - before[op] for op in after})
        assert deltas[0] == deltas[1]


def test_statement_timings_export(statements):
    document = {"benchmark": "tpcw slow-page statements, "
                             "PopulationScale.tiny(), bestseller_window=50"}
    for name, (database, statement, params) in sorted(statements.items()):
        rows = len(database.execute_statement(statement, params))
        seconds = best_time(
            lambda: database.execute_statement(statement, params)
        )
        document[name] = {"us": round(seconds * 1e6, 2), "rows": rows}
        print(f"\n{name}: {seconds * 1e6:.1f}us, {rows} rows")
    export_bench_json(document, "BENCH_db.json")
