"""Ranked total preorders (weak orders) over arbitrary world subsets.

A RankedOrder is an ordered partition of its domain into plausibility
levels, most plausible level first.  Totality and transitivity hold by
construction, so only disjointness/nonemptiness need checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from . import kernels
from .errors import InvariantError, TooLargeError
from .prop import Signature, iter_worlds

MAX_DOMAIN_EXHAUSTIVE = 4


@dataclass(frozen=True)
class RankedOrder:
    levels: tuple[int, ...]

    def __post_init__(self):
        if not self.levels:
            raise InvariantError("order needs at least one level (domain must be nonempty)")
        seen = 0
        for lv in self.levels:
            if lv == 0:
                raise InvariantError("order levels must be nonempty")
            if lv & seen:
                raise InvariantError("order levels must be disjoint")
            seen |= lv

    @property
    def domain(self) -> int:
        return sum(self.levels)  # the levels are disjoint

    def to_text(self, sig: Signature) -> str:
        """`[w1 w2 | w3]` with worlds as signature-order bit strings, minimal level first."""
        return "[" + " | ".join(sig.worldset_str(lv) for lv in self.levels) + "]"

    @staticmethod
    def from_text(text: str, sig: Signature) -> "RankedOrder":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise InvariantError(f"order text must be bracketed: {text!r}")
        levels = tuple(sig.worldset_of_strs(part) for part in body[1:-1].split("|"))
        return RankedOrder(levels)


def min_set(candidates: int, order: RankedOrder) -> int:
    """Minimal elements of candidates within the domain; 0 when they miss it."""
    return kernels.min_mask(order.levels, candidates)


def enumerate_orders(domain: int) -> Iterator[RankedOrder]:
    """Every weak order (ordered set partition) of the domain, exactly once."""
    n = domain.bit_count()
    if n > MAX_DOMAIN_EXHAUSTIVE:
        raise TooLargeError(
            f"order enumeration supports domains of at most {MAX_DOMAIN_EXHAUSTIVE} worlds, got {n}"
        )
    if domain == 0:
        raise InvariantError("domain must be nonempty")

    def rec(remaining: int, prefix: tuple[int, ...]) -> Iterator[RankedOrder]:
        if remaining == 0:
            yield RankedOrder(prefix)
            return
        worlds = list(iter_worlds(remaining))
        for k in range(1, len(worlds) + 1):
            for combo in combinations(worlds, k):
                first = sum(1 << w for w in combo)
                yield from rec(remaining & ~first, prefix + (first,))

    return rec(domain, ())


def trichotomy_check(order: RankedOrder, a: int, b: int) -> bool:
    """min(A∪B) equals min(A), min(B), or their union, for every weak order."""
    mu = min_set(a | b, order)
    ma = min_set(a, order)
    mb = min_set(b, order)
    return mu == ma or mu == mb or mu == ma | mb
