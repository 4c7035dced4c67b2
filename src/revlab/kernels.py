"""Revision kernels over world-set masks.

These four functions are the inner loop of every suite: belief revision
is repeated minimisation of world-set masks over level lists, and the
verifier calls them millions of times.  Orders are passed as tuples of
disjoint nonempty level masks, most plausible level first.

`bel_table` minimises every formula class at once.  It packs the classes
0..n-1 into one integer, one 8-bit lane per class up to 8 worlds and one
16-bit lane up to 16 worlds, and walks the levels once over all lanes, so
its cost grows with the number of levels, not the number of classes.
`revise_mask` is the pointwise form the tests compare it against.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from .errors import TooLargeError

ORDER_KEEP = 0
ORDER_NATURAL = 1
ORDER_LEX = 2

SCOPE_KEEP = 0
SCOPE_DOC = 1
SCOPE_RESULT_ONLY = 2

MAX_TABLE_CLASSES = 1 << 16  # one 16-bit lane per class of a 16-world signature


def min_mask(levels: tuple[int, ...], candidates: int) -> int:
    """Minimal candidates inside the order's domain; 0 if none."""
    for level in levels:
        hit = level & candidates
        if hit:
            return hit
    return 0


def revise_mask(levels: tuple[int, ...], scope: int, bel: int, alpha: int) -> int:
    """Belief revision over a limited total preorder.

    Minimises alpha over the order when alpha meets the scope, keeps the
    prior beliefs otherwise.
    """
    if scope & alpha:
        return min_mask(levels, alpha)
    return bel


@lru_cache(maxsize=None)
def _lanes(n_classes: int) -> tuple[int, int, int, int, int, int, struct.Struct]:
    """Lane constants for n classes: (shift, lane, ones, low, high, classes, unpacker).

    `ones` has a 1 at the bottom of every lane, so `m * ones` copies a
    lane-sized m into every lane; `low` and `high` hold each lane's low
    bits and its top bit, at `shift`; `classes` holds class c in lane c.
    """
    if n_classes > MAX_TABLE_CLASSES:
        raise TooLargeError(f"belief tables support at most {MAX_TABLE_CLASSES} classes, got {n_classes}")
    nbytes = 1 if n_classes <= 256 else 2
    shift = 8 * nbytes - 1
    ones = int.from_bytes((1).to_bytes(nbytes, "little") * n_classes, "little")
    classes = int.from_bytes(b"".join(c.to_bytes(nbytes, "little") for c in range(n_classes)), "little")
    high = ones << shift
    unpack = struct.Struct(f"<{n_classes}{'B' if nbytes == 1 else 'H'}")
    return shift, (1 << shift + 1) - 1, ones, high - ones, high, classes, unpack


def bel_table(levels: tuple[int, ...], scope: int, bel: int, n_classes: int) -> tuple[int, ...]:
    """Posterior belief mask for every formula class 0..n_classes-1.

    Entry alpha equals `revise_mask(levels, scope, bel, alpha)`.  The level,
    scope and belief masks range over the worlds the classes range over, so
    each fits in a lane.  A lane x is nonzero iff the top bit of
    `((x & low) + low) | x` is set.
    """
    shift, lane, ones, low, high, classes, unpack = _lanes(n_classes)
    x = classes & scope * ones
    pending = (((((x & low) + low) | x) & high) >> shift) * lane  # lanes meeting the scope
    out = bel * ones & ~pending
    for level in levels:
        if not pending:
            break
        x = classes & level * ones
        take = (((((x & low) + low) | x) & high) >> shift) * lane & pending
        out |= x & take
        pending ^= take
    return unpack.unpack(out.to_bytes(unpack.size, "little"))


def posterior(
    levels: tuple[int, ...],
    scope: int,
    bel: int,
    alpha: int,
    order_rule: int,
    scope_rule: int,
) -> tuple[int, int, tuple[int, ...]]:
    """Full posterior state (bel', scope', levels') under an update policy.

    Worlds entering the scope from outside the prior domain are appended as
    a least-plausible level.  Emptied scopes fall back to the prior scope
    (domains must stay nonempty).  The new belief minimum is then promoted
    to a fresh level 0, which re-establishes faithfulness; the natural order
    rule, which adds only that promotion, so gives the keep rule's posteriors.
    """
    bel2 = revise_mask(levels, scope, bel, alpha)

    if scope_rule == SCOPE_KEEP:
        scope2 = scope
    elif scope_rule == SCOPE_DOC:
        scope2 = bel2 | (scope & alpha)
    else:
        scope2 = bel2
    if scope2 == 0:
        scope2 = scope

    domain = 0
    for level in levels:
        domain |= level
    fresh = scope2 & ~domain

    if order_rule == ORDER_LEX:
        new_levels = [lv & scope2 & alpha for lv in levels]
        if fresh & alpha:
            new_levels.append(fresh & alpha)
        new_levels += [lv & scope2 & ~alpha for lv in levels]
        if fresh & ~alpha:
            new_levels.append(fresh & ~alpha)
        new_levels = [lv for lv in new_levels if lv]
    else:
        new_levels = [lv for lv in (lv & scope2 for lv in levels) if lv]
        if fresh:
            new_levels.append(fresh)

    promoted = bel2 & scope2
    if promoted:
        rest = [lv & ~promoted for lv in new_levels]
        new_levels = [promoted] + [lv for lv in rest if lv]

    return bel2, scope2, tuple(new_levels)
