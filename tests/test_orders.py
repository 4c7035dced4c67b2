import random

import pytest
from condition_oracle import leq_in, level_of
from hypothesis import given, strategies as st

from revlab.errors import InvariantError, TooLargeError
from revlab.orders import (
    RankedOrder,
    enumerate_orders,
    min_set,
    trichotomy_check,
)
from revlab.prop import Signature, iter_worlds

# the karl fixture's order: worlds 1 and 2 tied below world 4
KARL_ORDER = RankedOrder(((1 << 1) | (1 << 2), 1 << 4))


def mask(*worlds):
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


class TestLeq:
    """The oracles' order relation is read off `level_of`: w1 ⪯ w2 iff its level is no higher."""

    def test_ties_within_a_level(self):
        assert level_of(KARL_ORDER, 1) == level_of(KARL_ORDER, 2)

    def test_strict_between_levels(self):
        assert level_of(KARL_ORDER, 1) < level_of(KARL_ORDER, 4)
        assert not level_of(KARL_ORDER, 1) < level_of(KARL_ORDER, 2)

    def test_reflexive(self):
        for w in iter_worlds(KARL_ORDER.domain):
            assert leq_in(KARL_ORDER, w, w)

    def test_out_of_domain_error_names_world(self):
        with pytest.raises(ValueError, match="7"):
            level_of(KARL_ORDER, 7)

    def test_leq_in_is_total_on_domain_only(self):
        assert not leq_in(KARL_ORDER, 1, 7)
        assert not leq_in(KARL_ORDER, 7, 1)
        assert leq_in(KARL_ORDER, 1, 4)


class TestMinSet:
    def test_karl_revision_by_t(self):
        # models of t over {z,o,t} meet the domain only at world 1
        assert min_set(mask(1, 3, 5, 7), KARL_ORDER) == mask(1)

    def test_empty_candidates(self):
        assert min_set(0, KARL_ORDER) == 0

    def test_disjoint_candidates(self):
        assert min_set(mask(0, 3), KARL_ORDER) == 0

    def test_against_pairwise_minimality_oracle(self):
        rng = random.Random(4)
        for order in enumerate_orders(mask(0, 1, 2)):
            for _ in range(8):
                cand = rng.randrange(16)
                got = min_set(cand, order)
                dom_cand = [w for w in range(4) if cand >> w & 1 and order.domain >> w & 1]
                want = 0
                for w in dom_cand:
                    if all(level_of(order, w) <= level_of(order, v) for v in dom_cand):
                        want |= 1 << w
                assert got == want


def count_weak_orders(n):
    # ordered set partitions, counted independently of the enumerator
    from math import comb

    if n == 0:
        return 1
    return sum(comb(n, k) * count_weak_orders(n - k) for k in range(1, n + 1))


class TestEnumerateOrders:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 13), (4, 75)])
    def test_counts_match_recurrence(self, n, expected):
        domain = (1 << n) - 1
        orders = list(enumerate_orders(domain))
        assert len(orders) == expected == count_weak_orders(n)
        assert len(set(orders)) == len(orders)

    def test_each_order_partitions_domain(self):
        domain = mask(0, 2, 3)
        for order in enumerate_orders(domain):
            assert order.domain == domain

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            list(enumerate_orders(mask(0, 1, 2, 3, 4)))

    def test_totality_and_transitivity(self):
        for order in enumerate_orders(mask(0, 1, 2)):
            ws = list(iter_worlds(order.domain))
            for w1 in ws:
                for w2 in ws:
                    assert leq_in(order, w1, w2) or leq_in(order, w2, w1)
                    for w3 in ws:
                        if leq_in(order, w1, w2) and leq_in(order, w2, w3):
                            assert leq_in(order, w1, w3)


class TestTrichotomy:
    def test_equal_sets(self):
        assert trichotomy_check(KARL_ORDER, mask(1, 4), mask(1, 4))

    def test_strictly_ordered(self):
        order = RankedOrder((mask(1), mask(2), mask(3)))
        assert trichotomy_check(order, mask(2), mask(3))

    def test_exhaustive_small_domains(self):
        # the full run over 4-world domains is in the acceptance suite
        for domain in range(1, 8):
            for order in enumerate_orders(domain):
                for a in range(16):
                    for b in range(16):
                        assert trichotomy_check(order, a, b)


class TestText:
    def test_round_trip(self):
        sig = Signature.of("z o t")
        text = KARL_ORDER.to_text(sig)
        assert text == "[001 010 | 100]"
        assert RankedOrder.from_text(text, sig) == KARL_ORDER

    def test_invariants_rejected(self):
        with pytest.raises(InvariantError):
            RankedOrder(())
        with pytest.raises(InvariantError):
            RankedOrder((0b11, 0b10))
        with pytest.raises(InvariantError):
            RankedOrder((0b1, 0))


@given(st.integers(min_value=1, max_value=15), st.data())
def test_min_set_subset_and_nonempty(domain, data):
    orders = list(enumerate_orders(domain))
    order = data.draw(st.sampled_from(orders))
    cand = data.draw(st.integers(min_value=0, max_value=15))
    m = min_set(cand, order)
    assert m & ~(cand & order.domain) == 0
    if cand & order.domain:
        assert m != 0
