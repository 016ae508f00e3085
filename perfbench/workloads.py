"""The benchmark's two TPC-W workloads and their seeded sessions.

``browsing`` is the paper's own traffic: the TPC-W browsing mix over
all 14 pages, dominated by the scan-heavy SQL read path.  ``ordering``
uses the TPC-W ordering-mix weights over its ten quick pages: the
write-heavy twin (cart inserts and updates, the ``buy_confirm``
transaction) with only index lookups, where per-request overhead in
the HTTP, pipeline and template layers shows.

A session is a :class:`repro.tpcw.mix.BrowsingMix` on its own named
random stream, so the same seed always yields the same sequence of
pages and parameters; only the cart id is read back from responses.
Its pages are dealt from a shuffled :class:`PageDeck` rather than drawn
one by one, so every run serves the mix's proportions almost exactly
and seeds differ in order and parameters, not in how much work a run
holds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.workload import LENGTHY_REPORT_PAGES
from repro.tpcw.mix import BROWSING_MIX, BrowsingMix
from repro.tpcw.population import PopulationScale
from repro.util.rng import RandomStream

#: TPC-W ordering-mix page weights over its ten quick pages.
ORDERING_MIX: Dict[str, float] = {
    "/home": 9.12,
    "/product_detail": 12.35,
    "/search_request": 14.53,
    "/shopping_cart": 13.53,
    "/customer_registration": 12.86,
    "/buy_request": 12.73,
    "/buy_confirm": 10.18,
    "/order_inquiry": 0.25,
    "/order_display": 0.22,
    "/admin_request": 0.12,
}

WORKLOADS: Dict[str, Dict[str, float]] = {
    "browsing": dict(BROWSING_MIX),
    "ordering": ORDERING_MIX,
}

#: The ``<title>`` every page must carry, written out by hand so the
#: check does not trust the program under test.
PAGE_TITLES: Dict[str, str] = {
    "/admin_request": "TPC-W Admin Request",
    "/admin_response": "TPC-W Admin Response",
    "/best_sellers": "TPC-W Best Sellers",
    "/buy_confirm": "TPC-W Order Confirmed",
    "/buy_request": "TPC-W Buy Request",
    "/customer_registration": "TPC-W Customer Registration",
    "/execute_search": "TPC-W Search Results",
    "/home": "TPC-W Home",
    "/new_products": "TPC-W New Products",
    "/order_display": "TPC-W Order Display",
    "/order_inquiry": "TPC-W Order Inquiry",
    "/product_detail": "TPC-W Product Detail",
    "/search_request": "TPC-W Search",
    "/shopping_cart": "TPC-W Shopping Cart",
}

#: Every run serves a freshly populated database of this size.
SCALE = PopulationScale.default()

#: Cards per deck: about 20 interactions hold the whole mix.
DECK_SIZE = 20


def is_quick(page: str) -> bool:
    """Outside the paper's Table 3 lengthy-report pages."""
    return page not in LENGTHY_REPORT_PAGES


class PageDeck:
    """A seeded page order that keeps the mix's proportions exact.

    Each deal gives every page ``floor(share + carry)`` cards out of
    :data:`DECK_SIZE` and carries the remainder to the next deal, so a
    page whose share is below one card still comes up at its long-run
    rate.  The carries start at random phases and each deal is
    shuffled, both from ``rng``.
    """

    def __init__(self, weights: Dict[str, float], rng: RandomStream,
                 size: int = DECK_SIZE):
        total = float(sum(weights.values()))
        self._shares = {page: size * weight / total
                        for page, weight in sorted(weights.items())}
        self._carry = {page: rng.random() for page in self._shares}
        self._rng = rng
        self._cards: List[str] = []

    def next_page(self) -> str:
        while not self._cards:
            self._deal()
        return self._cards.pop()

    def _deal(self) -> None:
        for page, share in self._shares.items():
            quota = share + self._carry[page]
            cards = int(quota)
            self._carry[page] = quota - cards
            self._cards.extend([page] * cards)
        self._rng.shuffle(self._cards)


class DeckMix(BrowsingMix):
    """A :class:`BrowsingMix` whose pages come from a :class:`PageDeck`."""

    def __init__(self, rng: RandomStream, deck: PageDeck, **kwargs):
        super().__init__(rng, **kwargs)
        self.deck = deck

    def next_interaction(self) -> Tuple[str, Dict[str, str]]:
        path = self.deck.next_page()
        return path, self.params_for(path)


def new_session(workload: str, seed: int, index: int) -> DeckMix:
    """Session ``index`` of ``workload``, drawn from its own streams."""
    weights = WORKLOADS[workload]
    return DeckMix(
        RandomStream(seed, f"{workload}-session-{index}"),
        PageDeck(weights, RandomStream(seed, f"{workload}-deck-{index}")),
        customers=SCALE.customers, items=SCALE.items, weights=weights,
    )


def session_plan(workload: str, seed: int, index: int,
                 count: int) -> List[Tuple[str, Dict[str, str]]]:
    """The first ``count`` interactions of a session that never gets a
    cart id back (a dry run, for tests)."""
    mix = new_session(workload, seed, index)
    return [mix.next_interaction() for _ in range(count)]
