"""Revision kernels over world-set masks, and the lane layout of packed belief rows.

These functions are the inner loop of every suite: belief revision is
repeated minimisation of world-set masks over level lists, and the
verifier calls them millions of times.  Orders are passed as tuples of
disjoint nonempty level masks, most plausible level first.

`bel_row` minimises every formula class at once.  It packs the classes
0..n-1 into one integer, one 8-bit lane per class up to 8 worlds and one
16-bit lane up to 16 worlds, and walks the levels once over all lanes, so
its cost grows with the number of levels, not the number of classes.
`revise_mask` is the pointwise form the tests compare it against, and
`bel_table` is the row unpacked into a tuple.

The suites keep belief rows packed and quantify over classes with a few
big-integer operations on all lanes at once (`Lanes`):

* a lane test: `nz(x)` flags the nonzero lanes of x in their top bits, so
  "T[a] inside a" for every class a is the zero lanes of `T & ~classes`;
* compaction: `bits` turns flags into a class bitset in C (each lane's
  top byte becomes one binary digit of `int(..., 2)`), and `accepted` is
  the scope classes of a belief row, compacted;
* the subset-lattice transform: `lattice_and` replaces every lane a by the
  AND of the lanes at a's supersets, or at its subsets, in one
  shift-and-mask step per world; the OR over subsets is its complement.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from .errors import TooLargeError

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


_FLAG_DIGITS = bytes.maketrans(b"\x00\x80", b"01")  # a lane's top byte -> its bit as a digit


class Lanes:
    """Lane layout of a packed belief row over n classes: class c in lane c.

    A row packs one world-set mask per class into one integer, in lanes of
    `width` bits.  A flag set marks lanes by their top bit: `nz` flags the
    nonzero lanes of any packed value, and `bits` compacts flags into a
    class bitset (bit c set iff lane c is flagged).  Lane constants:

    * `ones` has a 1 at the bottom of every lane, so `m * ones` copies a
      lane-sized m into every lane; `full` is every lane all ones;
    * `high` holds each lane's top bit and `low` its other bits;
    * `classes` holds class c in lane c, so `classes & m * ones` is every
      class cut to m;
    * `steps` holds, per world j, the lane distance 2^j lanes apart in bits
      and the full lanes whose class has, and lacks, world j.
    """

    def __init__(self, n_classes: int):
        if n_classes > MAX_TABLE_CLASSES:
            raise TooLargeError(f"belief tables support at most {MAX_TABLE_CLASSES} classes, got {n_classes}")
        self.n_classes = n_classes
        self.nbytes = 1 if n_classes <= 256 else 2
        self.width = 8 * self.nbytes
        self.lane = (1 << self.width) - 1
        self.ones = int.from_bytes((1).to_bytes(self.nbytes, "little") * n_classes, "little")
        self.full = self.ones * self.lane
        self.high = self.ones << self.width - 1
        self.low = self.high - self.ones
        self.classes = int.from_bytes(
            b"".join(c.to_bytes(self.nbytes, "little") for c in range(n_classes)), "little"
        )
        self.steps = []
        world = 1
        while world < n_classes:
            has = self.fill(self.nz(self.classes & world * self.ones))
            self.steps.append((world * self.width, has, self.full ^ has))
            world <<= 1
        self._struct = struct.Struct(f"<{n_classes}{'B' if self.nbytes == 1 else 'H'}")

    def nz(self, x: int) -> int:
        """Flags of the nonzero lanes of x: the top bit of `((x & low) + low) | x`."""
        low = self.low
        return (((x & low) + low) | x) & self.high

    def fill(self, flags: int) -> int:
        """Flagged lanes all ones."""
        return (flags >> self.width - 1) * self.lane

    def within(self, mask: int) -> int:
        """Flags of the classes inside the world set `mask`."""
        return self.high ^ self.nz(self.classes & (self.n_classes - 1 & ~mask) * self.ones)

    def bits(self, flags: int) -> int:
        """Class bitset of a flag set: each lane's top byte read as one binary digit."""
        top = flags.to_bytes(self._struct.size, "little")[self.nbytes - 1 :: self.nbytes]
        return int(top.translate(_FLAG_DIGITS)[::-1], 2)

    def accepted(self, row: int) -> int:
        """Class bitset of the lanes a with row[a] inside a; of a belief row, its scope classes."""
        return self.bits(self.high ^ self.nz(row & ~self.classes))

    def lattice_and(self, x: int, supersets: bool) -> int:
        """Lane a becomes the AND of x's lanes at every superset (or every subset) of a.

        One shift-and-mask step per world (Yates's zeta transform on lanes);
        the OR over subsets is `full ^ lattice_and(full ^ x, False)`.
        """
        for dist, has, lacks in self.steps:
            x &= (x >> dist | has) if supersets else (x << dist | lacks)
        return x

    def entry(self, row: int, c: int) -> int:
        return row >> c * self.width & self.lane

    def entries(self, row: int) -> tuple[int, ...]:
        """The row unpacked, one mask per class."""
        return self._struct.unpack(row.to_bytes(self._struct.size, "little"))

    def pack(self, masks) -> int:
        return int.from_bytes(self._struct.pack(*masks), "little")


@lru_cache(maxsize=None)
def lanes(n_classes: int) -> Lanes:
    return Lanes(n_classes)


def bel_row(levels: tuple[int, ...], scope: int, bel: int, n_classes: int) -> int:
    """Posterior belief mask of every formula class 0..n_classes-1, packed one class per lane.

    Lane alpha equals `revise_mask(levels, scope, bel, alpha)`.  The level,
    scope and belief masks range over the worlds the classes range over, so
    each fits in a lane.  The levels are walked once over all lanes.
    """
    ln = lanes(n_classes)
    classes, ones, low, high, shift, lane = ln.classes, ln.ones, ln.low, ln.high, ln.width - 1, ln.lane
    # `fill(nz(x))` written out: this walk builds every belief row of a suite.
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
    return out


def bel_table(levels: tuple[int, ...], scope: int, bel: int, n_classes: int) -> tuple[int, ...]:
    """`bel_row` unpacked: entry alpha is `revise_mask(levels, scope, bel, alpha)`."""
    return lanes(n_classes).entries(bel_row(levels, scope, bel, n_classes))


def posterior_key(
    levels: tuple[int, ...],
    scope: int,
    bel: int,
    alpha: int,
    order_rule: str,
    scope_rule: str,
) -> tuple[int, int, int]:
    """What fixes the posterior of (levels, scope, bel) revised by alpha: (bel', scope', cut).

    Scope rule `keep` keeps the prior scope, `doc` takes the new beliefs and
    the prior scope's alpha-worlds, `result_only` the new beliefs; an
    emptied scope falls back to the prior scope (domains must stay
    nonempty).  The cut is the new scope's alpha-worlds under order rule
    `lex`, which puts them first, and empty under `keep` and `natural`, so
    inputs of one state with one key share a posterior.
    """
    bel2 = revise_mask(levels, scope, bel, alpha)
    if scope_rule == "keep":
        scope2 = scope
    elif scope_rule == "doc":
        scope2 = bel2 | (scope & alpha)
    else:
        scope2 = bel2
    if scope2 == 0:
        scope2 = scope
    return bel2, scope2, scope2 & alpha if order_rule == "lex" else 0


def posterior(levels: tuple[int, ...], scope: int, key: tuple[int, int, int]) -> tuple[int, ...]:
    """The posterior order of (levels, scope) at its `posterior_key`.

    The cut comes first and then the rest of the new scope, each in the
    prior order with the worlds entering the scope from outside the prior
    domain as a least-plausible level, so an empty cut keeps the prior
    order.  The new belief minimum is then promoted to a fresh level 0,
    which re-establishes faithfulness; the natural order rule, which adds
    only that promotion, so gives the keep rule's posteriors.
    """
    bel2, scope2, cut = key
    fresh = scope2 & ~scope
    promoted = bel2 & scope2
    rest = [lv & part for part in (cut & ~promoted, scope2 & ~cut & ~promoted) for lv in (*levels, fresh)]
    return tuple(filter(None, [promoted, *rest]))
