"""Scope computation and belief classification.

Everything here quantifies over formula classes, i.e. world-set masks; a
set of classes is itself encoded as an int bitset with bit c set iff class
c belongs (at n atoms there are 2^(2^n) classes, so the bitset stays an
int).  The operator argument is duck-typed: anything with
``revise_beliefs(state, alpha) -> mask``.

The central derived objects per (operator, state) are:

* the belief table T with T[a] = models of Bel(state revised by a),
* acceptance conditions S1/S2 per class, computed from T,
* latent / reasonable classes, computed from S1/S2,

and per (operator, universe): inherent / immanent classes.

With N worlds there are 2^N classes, so the conditions as stated are
quantifier loops over pairs of classes (4^N steps for S2).  They are
computed here by transforms over the subset lattice instead (Yates's zeta
transform, in either direction):

* S1: a superset-AND transform gives, for every a, the AND of T[b] over
  all supersets b of a in N·2^N steps; a is S1 iff it misses the prior
  beliefs or T[a] lies inside that AND.
* S2: a fails iff some table value v has T[a] ⊆ v ⊆ ~a.  v = T[a] is
  such a value unless T[a] meets a, and then every v ⊇ T[a] meets a too;
  so a is S2 iff T[a] meets a, one step per class.
* Latent classes are the largest nonempty down-closed part of S1 ∩ S2:
  a is latent iff it is in both and so is every a minus one world, unless
  that is empty.
* Reasonable classes are unions of latent classes.  Latent is down-closed,
  so a world lies in a latent subclass of a iff its minterm is latent;
  a class is reasonable iff it is nonempty and all its minterms are latent.
* Immanent classes are unions of inherent ones, which are not down-closed;
  a subset-OR transform gives the union of the inherent subclasses of
  every class at once.

The quantifier loops these replace are kept in the test suite as oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prop import Signature
from .states import EpistemicState, StateUniverse


def bel_table_of(op, st: EpistemicState, sig: Signature) -> tuple[int, ...]:
    """Posterior belief mask for every formula class."""
    fast = getattr(op, "bel_table", None)
    if fast is not None:
        return fast(st, 1 << sig.n_worlds)
    return tuple(op.revise_beliefs(st, a) for a in range(1 << sig.n_worlds))


def _iter_supersets(a: int, full: int):
    comp = full & ~a
    s = comp
    while True:
        yield a | s
        if s == 0:
            return
        s = (s - 1) & comp


def iter_subsets(a: int):
    s = a
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & a


@dataclass(frozen=True)
class StateClassification:
    """Per-state classification bitsets (bit c set iff class c qualifies)."""

    sig: Signature
    table: tuple[int, ...]
    s1: int
    s2: int
    latent: int
    reasonable: int
    scope_syntactic: int


def _superset_and(values: list[int]) -> list[int]:
    """out[a] = AND of values[b] over all supersets b of a (zeta transform)."""
    out = list(values)
    n = len(out)
    bit = 1
    while bit < n:
        for base in range(0, n, bit << 1):
            for a in range(base, base + bit):
                out[a] &= out[a + bit]
        bit <<= 1
    return out


def _subset_or(values: list[int]) -> list[int]:
    """out[a] = OR of values[b] over all subsets b of a (zeta transform)."""
    out = list(values)
    n = len(out)
    bit = 1
    while bit < n:
        for base in range(0, n, bit << 1):
            for a in range(base + bit, base + (bit << 1)):
                out[a] |= out[a - bit]
        bit <<= 1
    return out


def classify_state(op, st: EpistemicState, sig: Signature) -> StateClassification:
    n_worlds = sig.n_worlds
    n_classes = 1 << n_worlds
    table = bel_table_of(op, st, sig)
    weakest = _superset_and(table)
    bel = st.bel

    s1 = s2 = scope = 0
    # down[a]: a and every class below it are in S1 ∩ S2 (vacuous for 0).
    down = [True] * n_classes
    for a in range(n_classes):
        ta = table[a]
        # S1: a consistent with prior beliefs => revising by any weaker b
        # yields at most the beliefs of revising by a (model-wise: T[a] ⊆ T[b]).
        ok1 = not bel & a or ta & ~weakest[a] == 0
        # S2: whenever revising by b keeps at least the beliefs of revising
        # by a, the result of b is consistent with a.  b = a is one such b,
        # and every superset of T[a] meets a once T[a] does.
        ok2 = ta & a != 0
        if ok1:
            s1 |= 1 << a
        if ok2:
            s2 |= 1 << a
        if ta & ~a == 0:
            scope |= 1 << a
        if a:
            ok = ok1 and ok2
            rest = a
            while ok and rest:
                low = rest & -rest
                ok = down[a ^ low]
                rest ^= low
            down[a] = ok

    latent = sum(1 << a for a in range(1, n_classes) if down[a])
    minterms = sum(1 << w for w in range(n_worlds) if down[1 << w])
    reasonable = sum(1 << a for a in iter_subsets(minterms) if a)
    return StateClassification(sig, table, s1, s2, latent, reasonable, scope)


# ---------------------------------------------------------------------------
# Operator-global notions (quantified over a universe of states)


def inherent_classes(op, universe: StateUniverse) -> int:
    """Bitset of classes accepted with exactly their own consequences in every state.

    The contradiction is never counted as inherent (matching the convention
    for reasonableness and immanence), so inherent classes are always
    immanent.
    """
    sig = universe.sig
    n_classes = 1 << sig.n_worlds
    bits = 0
    for a in range(1, n_classes):
        if all(op.revise_beliefs(st, a) == a for st in universe.iter_states()):
            bits |= 1 << a
    return bits


def immanent_classes(op, universe: StateUniverse) -> int:
    """Bitset of classes expressible as a union of inherent classes."""
    inh = inherent_classes(op, universe)
    n_classes = 1 << universe.sig.n_worlds
    cover = _subset_or([a if (inh >> a) & 1 else 0 for a in range(n_classes)])
    return sum(1 << a for a in range(1, n_classes) if cover[a] == a)


# ---------------------------------------------------------------------------
# Closure properties of class sets


def check_ssc(classes: set[int], sig: Signature) -> bool:
    """Single-sentence closure: with a class, every weaker class belongs."""
    full = sig.all_worlds
    return all(d in classes for c in classes for d in _iter_supersets(c, full))


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
    m = 0
    for w in range(sig.n_worlds):
        if (1 << w) in classes:
            m |= 1 << w
    generated = {a for a in range(1, 1 << sig.n_worlds) if a & m}
    return m if generated == classes else None


def classification_report(op, st: EpistemicState, universe: StateUniverse | None, sig: Signature) -> list[str]:
    """One line per class: scope / latent / reasonable (+ inherent / immanent)."""
    cls = classify_state(op, st, sig)
    inh = inherent_classes(op, universe) if universe is not None else None
    imm = immanent_classes(op, universe) if universe is not None else None
    lines = []
    for a in range(1 << sig.n_worlds):
        flags = [
            f"scope={'y' if (cls.scope_syntactic >> a) & 1 else 'n'}",
            f"latent={'y' if (cls.latent >> a) & 1 else 'n'}",
            f"reasonable={'y' if (cls.reasonable >> a) & 1 else 'n'}",
        ]
        if inh is not None:
            flags.append(f"inherent={'y' if (inh >> a) & 1 else 'n'}")
            flags.append(f"immanent={'y' if (imm >> a) & 1 else 'n'}")
        lines.append(f"class {a}: " + " ".join(flags))
    return lines
