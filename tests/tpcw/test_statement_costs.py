"""Pinned per-page statement costs and results of the TPC-W handlers.

The ``CostModel`` operation counts each page charges are the
simulator's calibration inputs: ``tpcw/profile.py`` turns them into the
per-page database demands the discrete-event model runs on, so the
paper's Table 2-4 and Figure 7-10 reproductions rest on them.  A change
to the SQL executor (a new plan shape, a reordered operator, a bulk
charge) must leave every count here unchanged unless it recalibrates on
purpose.  The row digests pin what each page's statements return, in
order, so a faster executor cannot buy its speed with different rows.

Every interaction handler runs once, in the order below, on a fresh
``PopulationScale.tiny()`` database; the shopping cart the first step
creates feeds the purchase steps, and the three search types each run.
The literals were captured from the tree-walking executor this
compiled one replaced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.tpcw.app import PAGES, TPCWApplication
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.schema import create_schema

#: (path, params) in run order; "{cart}" is the cart the first step made.
STEPS = [
    ("/shopping_cart", {"sc_id": "0", "i_id": "41", "qty": "2"}),
    ("/home", {"c_id": "109", "i_id": "29"}),
    ("/product_detail", {"i_id": "50"}),
    ("/search_request", {}),
    ("/execute_search", {"search_type": "author", "search_string": "S"}),
    ("/execute_search", {"search_type": "subject", "search_string": "ARTS"}),
    ("/execute_search", {"search_type": "title", "search_string": "the"}),
    ("/new_products", {"subject": "NON-FICTION"}),
    ("/best_sellers", {"subject": "MYSTERY"}),
    ("/customer_registration", {"sc_id": "{cart}", "uname": "user109"}),
    ("/buy_request", {"sc_id": "{cart}", "uname": "user109"}),
    ("/buy_confirm", {"sc_id": "{cart}", "c_id": "109"}),
    ("/order_inquiry", {}),
    ("/order_display", {"uname": "user109"}),
    ("/admin_request", {"i_id": "11"}),
    ("/admin_response", {"i_id": "56"}),
]

#: Per step: (CostModel.counts() delta without zero entries,
#: statements run, SHA-256 prefix of their (columns, rows, rowcount)).
EXPECTED = [
    ({'index_probe': 3,
      'index_row': 2,
      'row_write': 2,
      'row_emit': 1,
      'statement': 4},
     4, '22dbee536207d1d4'),
    ({'index_probe': 12, 'index_row': 12, 'row_emit': 7, 'statement': 7},
     7, 'f21616542d86ddc3'),
    ({'index_probe': 2, 'index_row': 2, 'row_emit': 2, 'statement': 2},
     2, 'ecc3c51e3e3ad753'),
    ({},
     0, '4f53cda18c2baa0c'),
    ({'row_scan': 60,
      'index_probe': 60,
      'index_row': 60,
      'row_sort': 32,
      'row_emit': 32,
      'statement': 1},
     1, '0547406dd4acfd61'),
    ({'row_scan': 60,
      'index_probe': 60,
      'index_row': 60,
      'row_sort': 1,
      'row_emit': 1,
      'statement': 1},
     1, 'aa1ecab8a2f081eb'),
    ({'row_scan': 60,
      'index_probe': 60,
      'index_row': 60,
      'row_sort': 60,
      'row_emit': 50,
      'statement': 1},
     1, '44ca3cd62850ed3b'),
    ({'row_scan': 60,
      'index_probe': 60,
      'index_row': 60,
      'row_sort': 4,
      'row_emit': 4,
      'statement': 1},
     1, '3cddae5a6da52313'),
    ({'row_scan': 390,
      'index_probe': 870,
      'index_row': 870,
      'row_sort': 3,
      'row_group': 109,
      'row_emit': 4,
      'statement': 2},
     2, 'e40a3d628112f037'),
    ({'index_probe': 1, 'index_row': 1, 'row_emit': 1, 'statement': 1},
     1, 'e2e2923c3b13655b'),
    ({'index_probe': 5, 'index_row': 5, 'row_emit': 3, 'statement': 3},
     3, '8d3dc5029f28cc42'),
    ({'index_probe': 4,
      'index_row': 4,
      'row_write': 4,
      'row_emit': 2,
      'statement': 6},
     8, 'bd0b5f7797824a1a'),
    ({},
     0, '4f53cda18c2baa0c'),
    ({'index_probe': 4,
      'index_row': 4,
      'row_sort': 1,
      'row_emit': 3,
      'statement': 3},
     3, '857adf1c1821fb5d'),
    ({'index_probe': 1, 'index_row': 1, 'row_emit': 1, 'statement': 1},
     1, 'f3ad88f2d52811af'),
    ({'row_scan': 392,
      'index_probe': 584,
      'index_row': 584,
      'row_sort': 52,
      'row_group': 237,
      'row_write': 1,
      'row_emit': 7,
      'statement': 4},
     4, '4128de995082b182'),
]


class _RecordingDatabase(Database):
    """Keeps every statement's result so a page's rows can be digested."""

    def __init__(self):
        super().__init__()
        self.results = []

    def execute_statement(self, statement, params=(), connection_id=None):
        result = super().execute_statement(statement, params, connection_id)
        self.results.append((result.columns, result.rows, result.rowcount))
        return result


def _run_steps():
    database = _RecordingDatabase()
    create_schema(database)
    populate(database, PopulationScale.tiny())
    app = TPCWApplication(database, bestseller_window=50)
    observed = []
    cart = None
    with ConnectionPool(database, size=1).lease() as connection:
        app.bind_connection(connection)
        try:
            for path, params in STEPS:
                params = {key: value.replace("{cart}", str(cart))
                          for key, value in params.items()}
                database.results = []
                before = database.cost_model.counts()
                _, data = app.handler_for(path)(**params)
                after = database.cost_model.counts()
                delta = {op: after[op] - before[op] for op in after
                         if after[op] != before[op]}
                digest = hashlib.sha256(
                    repr(database.results).encode("utf-8")
                ).hexdigest()[:16]
                observed.append((delta, len(database.results), digest))
                if path == "/shopping_cart":
                    cart = data["sc_id"]
        finally:
            app.bind_connection(None)
    return observed


@pytest.fixture(scope="module")
def observed():
    return _run_steps()


def test_every_page_is_covered():
    assert {path for path, _ in STEPS} == set(PAGES)


@pytest.mark.parametrize("step", range(len(STEPS)),
                         ids=[f"{i}{path}" for i, (path, _) in enumerate(STEPS)])
def test_page_costs_and_rows_match_calibration(observed, step):
    assert observed[step] == EXPECTED[step]
