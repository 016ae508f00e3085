"""Sessions are a pure function of the workload, the seed and the index."""

from workloads import ORDERING_MIX, PAGE_TITLES, WORKLOADS, session_plan


def test_same_seed_same_interaction_sequence():
    for workload in WORKLOADS:
        first = session_plan(workload, seed=7, index=0, count=300)
        again = session_plan(workload, seed=7, index=0, count=300)
        assert first == again


def test_seed_and_session_index_change_the_sequence():
    base = session_plan("browsing", seed=7, index=0, count=100)
    assert session_plan("browsing", seed=8, index=0, count=100) != base
    assert session_plan("browsing", seed=7, index=1, count=100) != base


def test_ordering_stays_on_its_ten_quick_pages():
    pages = {page for page, _ in session_plan("ordering", 3, 0, 2000)}
    assert pages <= set(ORDERING_MIX)
    assert len(ORDERING_MIX) == 10
    assert {"/shopping_cart", "/buy_confirm"} <= pages


def test_every_workload_page_has_an_expected_title():
    for mix in WORKLOADS.values():
        assert set(mix) <= set(PAGE_TITLES)
