"""Scope computation and belief classification.

Everything here quantifies over formula classes, i.e. world-set masks; a
set of classes is itself encoded as an int bitset with bit c set iff class
c belongs (at n atoms there are 2^(2^n) classes, so the bitset stays an
int).  The operator argument is duck-typed: anything with
``revise_beliefs(state, alpha) -> mask``, and optionally the packed form
``bel_row(state, n_classes)``.

The central derived objects per (operator, state) are:

* the belief row T, lane a holding the models of Bel(state revised by a),
* acceptance conditions S1/S2 per class, computed from T,
* latent / reasonable classes, computed from S1/S2,

and per (operator, universe): inherent / immanent classes.

With N worlds there are 2^N classes, so the conditions as stated are
quantifier loops over pairs of classes (4^N steps for S2).  They are
computed here on the packed row instead, each as a few operations on all
lanes at once (see `kernels.Lanes`), with the subset-lattice transform
`lattice_and` (Yates's zeta transform on lanes) where a quantifier runs
over supersets or subsets:

* S1: the superset-AND transform of T gives, in lane a, the AND of T[b]
  over all supersets b of a in N shift-and-mask steps; a is S1 iff it
  misses the prior beliefs or T[a] lies inside that AND.
* S2: a fails iff some table value v has T[a] ⊆ v ⊆ ~a.  v = T[a] is
  such a value unless T[a] meets a, and then every v ⊇ T[a] meets a too;
  so a is S2 iff T[a] meets a: the nonzero lanes of `T & classes`.
* The syntactic scope is the zero lanes of `T & ~classes`.
* Latent classes are the largest nonempty down-closed part of S1 ∩ S2:
  the subset-AND transform of its indicator lanes, lane 0 vacuous.
* Reasonable classes are unions of latent classes.  Latent is down-closed,
  so a world lies in a latent subclass of a iff its minterm is latent;
  a class is reasonable iff it is nonempty and all its minterms are latent.
  A minterm is latent iff its own lane is in S1 ∩ S2, so `latent_worlds`
  reads them off the row without the latent transform.
* Immanent classes are unions of inherent ones, which are not down-closed;
  the subset-OR transform gives the union of the inherent subclasses of
  every class at once.

The quantifier loops these replace, and the list form of the transforms,
are kept in the test suite as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .errors import TooLargeError
from .prop import Signature
from .states import EpistemicState, StateUniverse


def bel_row_of(op, st: EpistemicState, sig: Signature) -> int:
    """Posterior belief mask of every formula class, packed one class per lane."""
    n_classes = 1 << sig.n_worlds
    fast = getattr(op, "bel_row", None)
    if fast is not None:
        return fast(st, n_classes)
    return kernels.lanes(n_classes).pack(op.revise_beliefs(st, a) for a in range(n_classes))


def iter_subsets(a: int):
    s = a
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & a


def subset_bits(mask: int) -> int:
    """Bitset of the classes inside the world set `mask`, doubled once per world of it."""
    bits = 1
    while mask:
        low = mask & -mask
        bits |= bits << low
        mask ^= low
    return bits


MAX_PAIR_CLASSES = 256  # the classes of 3 atoms; at 4 atoms the table would hold over 4 billion β


@lru_cache(maxsize=None)
def incomparable(n_classes: int) -> tuple[tuple[int, ...], ...]:
    """Per class a, the classes b with neither inside the other, ascending.

    These are the only β at which a trichotomy postulate can fail: when
    one of a, b contains the other, a ∨ b is one of them.
    """
    if n_classes > MAX_PAIR_CLASSES:
        raise TooLargeError(f"pair tables support at most {MAX_PAIR_CLASSES} classes, got {n_classes}")
    return tuple(tuple(b for b in range(n_classes) if a & ~b and b & ~a) for a in range(n_classes))


def minterm_worlds(classes: int, n_worlds: int) -> int:
    """Worlds whose minterm, the class of that world alone, is in the bitset `classes`."""
    return sum(1 << w for w in range(n_worlds) if classes >> (1 << w) & 1)


@dataclass(frozen=True)
class StateClassification:
    """Per-state classification bitsets (bit c set iff class c qualifies)."""

    s1: int
    s2: int
    latent: int
    reasonable: int
    scope_syntactic: int


def classify_state(op, st: EpistemicState, sig: Signature) -> StateClassification:
    return classify_row(bel_row_of(op, st, sig), st.bel, sig)


def classify_row(row: int, bel: int, sig: Signature) -> StateClassification:
    """The classification of a state with prior beliefs `bel` and belief row `row`."""
    ln = kernels.lanes(1 << sig.n_worlds)
    nz, high, classes = ln.nz, ln.high, ln.classes
    weakest = ln.lattice_and(row, supersets=True)
    # S1: a consistent with prior beliefs => revising by any weaker b
    # yields at most the beliefs of revising by a (model-wise: T[a] ⊆ T[b]).
    s1 = high ^ (nz(classes & bel * ln.ones) & nz(row & ~weakest))
    # S2: whenever revising by b keeps at least the beliefs of revising
    # by a, the result of b is consistent with a.  b = a is one such b,
    # and every superset of T[a] meets a once T[a] does.
    s2 = nz(row & classes)
    # Latent: a and every nonempty class below it are in S1 ∩ S2; lane 0,
    # the empty class, is set so that it constrains nothing.
    latent = ln.bits(ln.lattice_and(s1 & s2 | high & ln.lane, supersets=False)) & ~1
    reasonable = subset_bits(minterm_worlds(latent, sig.n_worlds)) & ~1
    return StateClassification(ln.bits(s1), ln.bits(s2), latent, reasonable, ln.accepted(row))


def latent_worlds(row: int, bel: int, ln: kernels.Lanes) -> int:
    """Worlds whose minterm is latent, for prior beliefs `bel` and belief row `row`.

    A minterm {w} has no nonempty subclass but itself, so it is latent iff
    it is in S1 and S2: two tests on lane {w}, with the weakest row as in
    `classify_row` and no class bitset built.
    """
    weakest = ln.lattice_and(row, supersets=True)
    worlds = 0
    for w in range(ln.n_classes.bit_length() - 1):
        c = 1 << w
        t = ln.entry(row, c)
        if t & c and not (bel & c and t & ~ln.entry(weakest, c)):  # S2, and S1
            worlds |= c
    return worlds


# ---------------------------------------------------------------------------
# Operator-global notions (quantified over a universe of states)


def renaming_orbits(op, universe: StateUniverse):
    """`universe.orbits()` for a policy operator whose fixed scope is none or the universe's own,
    whose posteriors follow the renamings that keep that scope and map the universe onto itself,
    so that what holds at a representative holds across its orbit; None otherwise (lookup tables)."""
    if getattr(op, "policy", None) is None or op.il_scope not in (None, universe.il_scope):
        return None
    return universe.orbits()


def inherent_classes(op, universe: StateUniverse) -> int:
    """Bitset of classes accepted with exactly their own consequences in every state.

    The contradiction is never counted as inherent (matching the convention
    for reasonableness and immanence), so inherent classes are always
    immanent.  Where `renaming_orbits` gives representatives, only they are
    read: the inherent set is then closed under the renamings that keep the
    universe's fixed scope S, so a class a is inherent iff every class of its
    (|a ∩ S|, |a|) is fixed at each of them.
    """
    sig = universe.sig
    ln = kernels.lanes(1 << sig.n_worlds)
    orbits = renaming_orbits(op, universe)
    fixed = ln.high  # lanes a with T[a] == a in every state so far
    for st in universe.states if orbits is None else (st for st, _ in orbits):
        fixed &= ~ln.nz(bel_row_of(op, st, sig) ^ ln.classes)
        if not fixed:
            break
    fixed = ln.bits(fixed)
    if orbits is not None:
        keys = [((a & universe.fixed_scope).bit_count(), a.bit_count()) for a in range(ln.n_classes)]  # a's orbit
        moved = {keys[a] for a in range(ln.n_classes) if not fixed >> a & 1}
        fixed = sum(1 << a for a, key in enumerate(keys) if key not in moved)
    return fixed & ~1


def _unions(members: int, sig: Signature) -> int:
    """Bitset of the nonempty classes that are unions of classes in `members`."""
    ln = kernels.lanes(1 << sig.n_worlds)
    values = ln.pack(a if (members >> a) & 1 else 0 for a in range(ln.n_classes))
    cover = ln.full ^ ln.lattice_and(ln.full ^ values, supersets=False)  # OR over subsets
    return ln.bits(ln.high ^ ln.nz(cover ^ ln.classes)) & ~1


def immanent_classes(op, universe: StateUniverse) -> int:
    """Bitset of classes expressible as a union of inherent classes."""
    return _unions(inherent_classes(op, universe), universe.sig)


# ---------------------------------------------------------------------------
# Closure properties of class sets


def check_ssc(classes: set[int], sig: Signature) -> bool:
    """Single-sentence closure: with a class, every weaker class belongs."""
    full = sig.all_worlds
    return all(c | s in classes for c in classes for s in iter_subsets(full & ~c))


def check_dc(classes: set[int], sig: Signature) -> bool:
    """Disjunction completeness: a split of any member has a member side.

    Literal form: whenever c ∪ d is in the set, c or d is.  All covering
    pairs are enumerated, not only partitions.
    """
    for e in classes:
        for c in iter_subsets(e):
            rest = e & ~c
            for extra in iter_subsets(c):
                d = rest | extra
                if c not in classes and d not in classes:
                    return False
    return True


def find_witness_M(classes: set[int], sig: Signature) -> int | None:
    """World set M with: the set equals every class meeting M, or None.

    Exists iff the class set satisfies both closure properties (classes must
    all be nonempty).
    """
    m = sum(1 << w for w in range(sig.n_worlds) if 1 << w in classes)
    generated = {a for a in range(1, 1 << sig.n_worlds) if a & m}
    return m if generated == classes else None


def classification_report(op, st: EpistemicState, universe: StateUniverse | None, sig: Signature) -> list[dict]:
    """One row per class: its number and whether it is scope / latent / reasonable (+ inherent / immanent)."""
    cls = classify_state(op, st, sig)
    sets = {"scope": cls.scope_syntactic, "latent": cls.latent, "reasonable": cls.reasonable}
    if universe is not None:
        sets["inherent"] = inh = inherent_classes(op, universe)
        sets["immanent"] = _unions(inh, sig)
    n_classes = 1 << sig.n_worlds
    return [{"class": a, **{name: bool(bits >> a & 1) for name, bits in sets.items()}} for a in range(n_classes)]
