"""The revision kernels against independent oracles.

`min_mask` and `revise_mask` are checked against a world-by-world
minimality test built from `condition_oracle.leq_in`; the packed
`bel_table` is checked against pointwise `revise_mask`, exhaustively over
every weak order at 4 worlds and on seeded 8- and 16-world states.
"""

import random

import pytest
from condition_oracle import leq_in

from revlab import kernels
from revlab.errors import TooLargeError
from revlab.operators import ORDER_RULES, SCOPE_RULES
from revlab.orders import RankedOrder, enumerate_orders


def random_levels(rng, n_worlds):
    worlds = [w for w in range(n_worlds) if rng.random() < 0.7] or [0]
    rng.shuffle(worlds)
    levels = []
    for w in worlds:
        if levels and rng.random() < 0.5:
            levels[rng.randrange(len(levels))] |= 1 << w
        else:
            levels.append(1 << w)
    return tuple(levels)


def cases(n_worlds, count, seed):
    rng = random.Random(seed)
    full = (1 << n_worlds) - 1
    for _ in range(count):
        levels = random_levels(rng, n_worlds)
        scope = 0
        for lv in levels:
            scope |= lv
        bel = rng.randrange(full + 1)
        alpha = rng.randrange(full + 1)
        yield levels, scope, bel, alpha


def all_orders(n_worlds):
    for domain in range(1, 1 << n_worlds):
        yield from enumerate_orders(domain)


def oracle_min(order, candidates, n_worlds):
    """The candidates in the domain that are leq every other such candidate."""
    inside = [w for w in range(n_worlds) if (candidates & order.domain) >> w & 1]
    return sum(1 << w for w in inside if all(leq_in(order, w, v) for v in inside))


def assert_table_pointwise(levels, scope, bel, n_worlds):
    table = kernels.bel_table(levels, scope, bel, 1 << n_worlds)
    assert isinstance(table, tuple) and len(table) == 1 << n_worlds
    for alpha, got in enumerate(table):
        assert got == kernels.revise_mask(levels, scope, bel, alpha), (levels, scope, bel, alpha)


class TestSemantics:
    def test_min_mask_first_hit(self):
        levels = (0b0110, 0b1000, 0b0001)
        assert kernels.min_mask(levels, 0b1001) == 0b1000
        assert kernels.min_mask(levels, 0b0100) == 0b0100
        assert kernels.min_mask(levels, 0b10000) == 0

    def test_revise_fallback(self):
        levels = (0b01,)
        assert kernels.revise_mask(levels, 0b01, 0b10, 0b10) == 0b10
        assert kernels.revise_mask(levels, 0b01, 0b10, 0b11) == 0b01

    def test_posterior_invariants(self):
        for levels, scope, bel, alpha in cases(4, 300, 7):
            for orule in ORDER_RULES:
                for srule in SCOPE_RULES:
                    key = kernels.posterior_key(levels, scope, bel, alpha, orule, srule)
                    bel2, scope2, _ = key
                    levels2 = kernels.posterior(levels, scope, key)
                    assert scope2 != 0
                    seen = 0
                    for lv in levels2:
                        assert lv != 0
                        assert lv & seen == 0
                        seen |= lv
                    assert seen == scope2
                    assert bel2 == kernels.revise_mask(levels, scope, bel, alpha)
                    if bel2 & scope2:
                        assert levels2[0] == bel2 & scope2  # faithful repair

    def test_bel_table_matches_pointwise(self):
        # every weak order on every domain of 4 worlds, with seeded scopes
        # that may reach outside the domain, and the domain itself
        rng = random.Random(8)
        for order in all_orders(4):
            for scope in (order.domain, rng.randrange(1, 16), rng.randrange(1, 16)):
                assert_table_pointwise(order.levels, scope, rng.randrange(16), 4)


class TestOracles:
    def test_min_mask_is_leq_minimal(self):
        for order in all_orders(4):
            for candidates in range(16):
                assert kernels.min_mask(order.levels, candidates) == oracle_min(order, candidates, 4)

    def test_revise_mask_is_leq_minimal_or_keeps_beliefs(self):
        rng = random.Random(9)
        for order in all_orders(4):
            scope, bel = rng.randrange(1, 16), rng.randrange(16)
            for alpha in range(16):
                want = oracle_min(order, alpha, 4) if scope & alpha else bel
                assert kernels.revise_mask(order.levels, scope, bel, alpha) == want

    def test_min_mask_is_leq_minimal_at_8_worlds(self):
        for levels, _, _, candidates in cases(8, 300, 11):
            assert kernels.min_mask(levels, candidates) == oracle_min(RankedOrder(levels), candidates, 8)


class TestBelTable:
    def test_seeded_8_world_states(self):
        # scope | extra may reach worlds no level covers
        for levels, scope, bel, extra in cases(8, 300, 12):
            assert_table_pointwise(levels, scope, bel, 8)
            assert_table_pointwise(levels, scope | extra, bel, 8)

    def test_seeded_16_world_states(self):
        for levels, scope, bel, _ in cases(16, 3, 13):
            assert_table_pointwise(levels, scope, bel, 16)

    def test_more_classes_than_16_bit_lanes_is_refused(self):
        with pytest.raises(TooLargeError):
            kernels.bel_table((1,), 1, 0, 1 << 17)
