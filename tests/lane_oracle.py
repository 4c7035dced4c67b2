"""List and loop oracles for the lane operations on packed belief rows.

`revlab.kernels.Lanes` quantifies over classes with a few big-integer
operations on a packed row, and `revlab.classify`, `TransitionTable` and
the postulate side of `revlab.verify` are built on it.  This module keeps
the forms they replaced, over one tuple entry per class:

* the subset-lattice transforms as list loops (superset-AND, subset-OR);
* the scope classes as a loop over the classes;
* `classify_state` with the list transforms, and the worlds of its latent
  minterms (`classify.latent_worlds`) taken from the list form;
* the β loops of the two-step postulates (DP1-DP4, CLDP, DLDP, CLP), of
  the scope-move postulates (CLCD, CM1, CM2, DOC, FC, FR, SC, SR), and of
  the pair postulates (the trichotomy DL7, CL6 and IL7, and CL5), each over
  every class;
* `operators.canonical_assignment` with its pairwise relation as a dict of
  world pairs, each read from one entry of the row.

`tests/test_lanes.py` compares the two.  The two corrupted operators at the
end make postulates that every update policy satisfies fail somewhere, so
the comparisons, and the pinned verdicts in `tests/test_verify.py`, see
failing rows.
"""

from __future__ import annotations

import random

from condition_oracle import level_of

from revlab.classify import iter_subsets
from revlab.errors import NonWeakOrderError
from revlab.operators import ExtensionalOperator, RevisionOperator, UpdatePolicy, tabulate
from revlab.orders import RankedOrder
from revlab.transitions import TransitionTable


def superset_and(values: list[int]) -> list[int]:
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


def subset_or(values: list[int]) -> list[int]:
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


def scope_classes(table) -> int:
    """Bitset of the classes a with table[a] inside a."""
    bits = 0
    for a in range(len(table)):
        if table[a] & ~a == 0:
            bits |= 1 << a
    return bits


def classify_table(table, bel: int, n_worlds: int):
    """(s1, s2, latent, reasonable, scope) of a belief table, by the list transforms."""
    n_classes = 1 << n_worlds
    weakest = superset_and(table)
    s1 = s2 = scope = 0
    down = [True] * n_classes  # a and every class below it are in S1 ∩ S2 (vacuous for 0)
    for a in range(n_classes):
        ta = table[a]
        ok1 = not bel & a or ta & ~weakest[a] == 0
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
    return s1, s2, latent, reasonable, scope


def latent_worlds(table, bel: int, n_worlds: int) -> int:
    """Worlds whose minterm is latent, read from `classify_table`'s latent classes."""
    latent = classify_table(table, bel, n_worlds)[2]
    return sum(1 << w for w in range(n_worlds) if (latent >> (1 << w)) & 1)


def unions(members: int, n_classes: int) -> int:
    """Bitset of the nonempty classes that are unions of classes in `members`."""
    cover = subset_or([a if (members >> a) & 1 else 0 for a in range(n_classes)])
    return sum(1 << a for a in range(1, n_classes) if cover[a] == a)


def _table(tab: TransitionTable, sid: int) -> tuple[int, ...]:
    return tab.lanes.entries(tab.row(sid))


def _subsets(tab: TransitionTable, mask: int):
    return (s for s in iter_subsets(mask) if s or not tab.consistent_only)


def _scope(tab: TransitionTable, sid: int) -> int:
    return scope_classes(_table(tab, sid))


# pid: (β inside α rather than ¬α, classes of α checked, classes of β kept), as in verify
def _all(tab, sid):
    return -1


def _reasonable(tab, sid):
    return tab.reasonable(sid)


_TWO_STEP = {
    "DP1": (True, _all, _all),
    "DP2": (False, _all, _all),
    "CLDP1": (True, _all, _scope),
    "CLDP2": (False, _scope, _scope),
    "DLDP1": (True, _reasonable, _reasonable),
    "DLDP2": (False, _reasonable, _reasonable),
}

_SCOPE_MOVES = {
    "CLCD": (False, True, lambda sc, scp: scp & ~sc, "contrary entered the scope", "in scope", "out of scope"),
    "CM1": (True, False, lambda sc, scp: sc & ~scp, "stronger input left the scope", "out", "in scope"),
    "CM2": (False, True, lambda sc, scp: sc & ~scp, "contrary input left the scope", "out", "in scope"),
    "DOC": (False, True, lambda sc, scp: scp, "contrary accepted after success", "in scope", "out of scope"),
}

# pid: (α accepted (1) or refused (0), the class of a failing β is in the prior
#       scope classes, not the posterior's (1) or the other way (0), clause);
#       only the first failing β is reported
_SCOPE_SHIFTS = {
    "FC": (0, 1, "scope shrank"),
    "FR": (0, 0, "scope grew"),
    "SC": (1, 1, "scope shrank"),
    "SR": (1, 0, "scope grew"),
}

_TRICHOTOMY = ("DL7", "CL6", "IL7")

BETA_PIDS = (*_TWO_STEP, "DP3", "DP4", "CLP", *_SCOPE_MOVES, *_SCOPE_SHIFTS, *_TRICHOTOMY, "CL5")


def iter_beta_rows(tab: TransitionTable, pid: str, sid: int, alphas):
    """The rows `postulates._postulate_rows` builds for a postulate with a β, by loops over tuples."""
    t = _table(tab, sid)
    full = tab.sig.all_worlds
    if pid in _TWO_STEP:
        inside, checked, kept = _TWO_STEP[pid]
        checked, kept = checked(tab, sid), kept(tab, sid)
        for a in alphas:
            if (checked >> a) & 1:
                tp = _table(tab, tab.post(sid, a))
                for b in _subsets(tab, a if inside else full & ~a):
                    if (kept >> b) & 1 and tp[b] != t[b]:
                        yield a, b, f"{pid}: two-step belief mismatch", tp[b], t[b]
    elif pid == "DP3":
        for a in alphas:
            tp = _table(tab, tab.post(sid, a))
            for b in tab.classes():
                if t[b] & ~a == 0 and tp[b] & ~a:
                    yield a, b, "DP3: posterior lost the input", tp[b], f"subset of {a}"
    elif pid == "DP4":
        for a in alphas:
            tp = _table(tab, tab.post(sid, a))
            for b in tab.classes():
                if t[b] & a and not tp[b] & a:
                    yield a, b, "DP4: posterior denies the input", tp[b], f"meets {a}"
    elif pid == "CLP":
        sc = _scope(tab, sid)
        for a in alphas:
            if not (sc >> a) & 1:
                continue
            tp = _table(tab, tab.post(sid, a))
            for b in tab.classes():
                if (sc >> b) & 1 and t[b] & a and tp[b] & ~a:
                    yield a, b, "CLP: input not retained", tp[b], f"subset of {a}"
    elif pid in _SCOPE_SHIFTS:
        accepted, left, clause = _SCOPE_SHIFTS[pid]
        sc = _scope(tab, sid)
        for a in alphas:
            if (sc >> a) & 1 != accepted:
                continue
            scp = _scope(tab, tab.post(sid, a))
            for b in tab.classes():
                if (sc >> b) & 1 == left and (scp >> b) & 1 != left:
                    yield a, b, f"{pid}: {clause}", "changed", "monotone"
                    break
    elif pid in _TRICHOTOMY:
        for a in alphas:
            for b in tab.classes():
                u = t[a | b]
                if not (u == t[a] or u == t[b] or u == t[a] | t[b]):
                    yield a, b, f"{pid}: trichotomy of disjunctions", u, (t[a], t[b], t[a] | t[b])
    elif pid == "CL5":
        sc = _scope(tab, sid)
        for a in alphas:
            if (sc >> a) & 1:
                for b in tab.classes():
                    if a & ~b == 0 and not (sc >> b) & 1:
                        yield a, b, "CL5: success not closed under weakening", t[b], f"subset of {b}"
    else:
        inside, gated, moved, clause, observed, required = _SCOPE_MOVES[pid]
        sc = _scope(tab, sid)
        for a in alphas:
            if gated and not (sc >> a) & 1:
                continue
            gone = moved(sc, _scope(tab, tab.post(sid, a)))
            for b in _subsets(tab, a if inside else full & ~a):
                if (gone >> b) & 1:
                    yield a, b, f"{pid}: {clause}", observed, required


def canonical_pairs(tab: TransitionTable, st, family: str = "dl"):
    """(order, scope) rebuilt from the table's row of `st` one entry at a time, or NonWeakOrderError."""
    t = _table(tab, tab.id_of(st))
    n = tab.sig.n_worlds
    if family == "cl":
        domain = sum(1 << w for w in range(n) if t[1 << w] & ~(1 << w) == 0)
    else:
        domain = latent_worlds(t, st.bel, n)
    if domain == 0:
        raise NonWeakOrderError("reconstructed scope is empty")

    worlds = [w for w in range(n) if domain >> w & 1]
    pair = {(w1, w2): bool(t[(1 << w1) | (1 << w2)] & (1 << w1)) for w1 in worlds for w2 in worlds}
    for w1 in worlds:
        for w2 in worlds:
            if not (pair[(w1, w2)] or pair[(w2, w1)]):
                raise NonWeakOrderError("pairwise relation is not total", witness=(w1, w2))

    levels = []
    remaining = list(worlds)
    while remaining:
        minimal = [w for w in remaining if all(pair[(w, v)] for v in remaining)]
        if not minimal:
            raise NonWeakOrderError("pairwise relation has no minimal element", witness=tuple(remaining))
        levels.append(sum(1 << w for w in minimal))
        remaining = [w for w in remaining if w not in minimal]
    order = RankedOrder(tuple(levels))

    for w1 in worlds:
        for w2 in worlds:
            if (level_of(order, w1) <= level_of(order, w2)) != pair[(w1, w2)]:
                raise NonWeakOrderError("pairwise relation is not transitive", witness=(w1, w2))
    return order, domain


# ---------------------------------------------------------------------------
# Corrupted operators

DL_KEEP = RevisionOperator("dl", UpdatePolicy("keep", "keep"))


def corrupted_table(op, universe, n, seed):
    """`op` as a lookup table on `universe` with n seeded entries replaced by states of the universe."""
    rng = random.Random(seed)
    mapping = dict(tabulate(op, universe).mapping)
    n_classes = 1 << universe.sig.n_worlds
    for _ in range(n):
        st = universe.states[rng.randrange(len(universe.states))]
        mapping[(st, rng.randrange(n_classes))] = universe.states[rng.randrange(len(universe.states))]
    return ExtensionalOperator(universe.sig, tuple(universe.states), mapping)


class EmptiedAtAllWorlds:
    """dl keep/keep, duck-typed, with the beliefs after revising by the all-worlds class emptied."""

    def __init__(self, sig):
        self.full = sig.all_worlds

    def revise_beliefs(self, st, alpha):
        return 0 if alpha == self.full else DL_KEEP.revise_beliefs(st, alpha)

    def apply(self, st, alpha):
        return DL_KEEP.apply(st, alpha)
