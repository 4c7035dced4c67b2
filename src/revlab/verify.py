"""Parametric postulate checker and equivalence oracles.

Three layers:

* check_postulate — quantifies one named postulate over a universe of
  states and the formula classes, returning a Verdict with concrete
  counterexamples;
* check_condition — one named semantic condition on a (state, posterior,
  input) transition, looked up in the `CONDITIONS` table.  Each entry is
  mask algebra: order agreement compares level lists cut to a world set,
  the cross quantifiers are one walk of an order's levels, the class
  quantifiers are subset bitsets, and the scoped independence conditions
  test their minimal witnesses.  The literal world-pair and class loops
  are the test oracle, in tests/condition_oracle.py;
* verify_equivalence / representation_roundtrip — bidirectional checks of
  the characterisation theorems and the construct/reconstruct round trips
  behind the representation results.  The theorems and the DP round trip
  share one mismatch loop.  Once per state it reads the posteriors and the
  prior's scope classes and success worlds (each only if a condition reads
  it), and turns each side into a bitset of failing inputs: the postulate
  side (P13a ORs FC and SC, P13b FR and SR) and the condition side.  A part
  mismatches where the two differ, so no postulate row is built, and truth
  lists and a Counterexample only for a reported mismatch.  The other round
  trips and mutation_detection share one reconstruction check.

Reading notes (also emitted in report headers):

* equivalence suites run on globally-consistent universes; the belief-set
  variables in postulates range over all classes including the
  contradiction unless consistent_only is set;
* the order-comparison conditions treat out-of-domain worlds as related to
  nothing (a dropped world falsifies both w1 ⪯ w2 and w2 ⪯ w1);
* the two DLDP conditions quantify over inputs whose models lie inside the
  prior scope, comparing distinct pairs (resp. all pairs) of worlds there;
* the CLDP and the scoped-independence conditions quantify world variables
  over the worlds whose minterm revision succeeds, as stated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice

from . import classify, kernels
from .errors import NonWeakOrderError, PreconditionError
from .kernels import revise_mask
from .operators import RevisionOperator, canonical_assignment
from .prop import Signature, iter_worlds
from .states import EpistemicState, StateUniverse, check_clf, check_faithful_limited
from .transitions import TransitionTable, suite_table

FAMILY_POSTULATES = {
    "DL": tuple(f"DL{i}" for i in range(1, 8)),
    "CL": tuple(f"CL{i}" for i in range(1, 7)),
    "IL": tuple(f"IL{i}" for i in range(1, 8)),
    "AGM": tuple(f"CL{i}" for i in range(1, 7)) + tuple(f"IL{i}" for i in range(1, 8)),
    "DP": tuple(f"DP{i}" for i in range(1, 5)),
}

POSTULATE_IDS = tuple(dict.fromkeys(pid for ids in FAMILY_POSTULATES.values() for pid in ids)) + (
    "CLDP1", "CLDP2", "CLP", "CLCD", "CM1", "CM2", "FC", "FR", "SC", "SR", "DOC", "COM", "DLDP1", "DLDP2",
)


@dataclass(frozen=True)
class Counterexample:
    state: EpistemicState
    alpha: int | None
    beta: int | None
    clause: str
    observed: object
    required: object


@dataclass
class Verdict:
    check_id: str
    holds: bool
    instances: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    seed: int | None = None
    note: str = ""


MAX_COUNTEREXAMPLES = 5
_PAIRED = ("DL7", "CL6", "CL5", "IL7")  # two free inputs: each input's β ranges over every class


# ---------------------------------------------------------------------------
# Postulates.  `_iter_postulate` yields, for one state, an (α, failing β)
# item per input at which the postulate fails: the failing β as a class
# bitset, or None where the postulate has no β.  Postulates of one shape
# share a branch and differ by a row of its tables; a class set is a bitset
# over classes, read from the table for the state id.  Where β ranges over
# classes, the branch tests all β at once on the packed belief rows.
#
# `_postulate_rows` expands the items into (α, β, clause, observed,
# required) rows by `_ROW_SHAPES`, β in the order a loop over classes would
# take, and lazily: `check_postulate` builds rows up to its cap, and the
# theorem suites, which read only each item's α, build none.


def _all_classes(*_) -> int:
    """The class set that restricts nothing."""
    return -1


def _changed_inside(ln, T, P, a, full):
    return ln.nz(T ^ P) & ln.within(a)


def _changed_outside(ln, T, P, a, full):
    return ln.nz(T ^ P) & ln.within(full & ~a)


_SCOPE, _REASONABLE = TransitionTable.scope_classes, TransitionTable.reasonable

# pid: (classes of α checked, classes of β kept, the failing lanes β, flagged,
#       from the lanes, the prior and posterior rows T and P, α and all worlds)
_ROW_TESTS = {
    "DP1": (_all_classes, _all_classes, _changed_inside),
    "DP2": (_all_classes, _all_classes, _changed_outside),
    "CLDP1": (_all_classes, _SCOPE, _changed_inside),
    "CLDP2": (_SCOPE, _SCOPE, _changed_outside),
    "DLDP1": (_REASONABLE, _REASONABLE, _changed_inside),
    "DLDP2": (_REASONABLE, _REASONABLE, _changed_outside),
    "DP3": (
        _all_classes, _all_classes,
        lambda ln, T, P, a, full: ln.nz(P & (full & ~a) * ln.ones) & ~ln.nz(T & (full & ~a) * ln.ones),
    ),
    "DP4": (_all_classes, _all_classes, lambda ln, T, P, a, full: ln.nz(T & a * ln.ones) & ~ln.nz(P & a * ln.ones)),
    "CLP": (_SCOPE, _SCOPE, lambda ln, T, P, a, full: ln.nz(T & a * ln.ones) & ln.nz(P & (full & ~a) * ln.ones)),
}

# pid: (the classes β ranges over given α and all worlds, the α checked: accepted
#       (1), refused (0) or all (None), classes that moved given the prior and
#       posterior scope classes)
_SCOPE_MOVES = {
    "CLCD": (lambda a, full: classify.subset_bits(full & ~a), 1, lambda sc, scp: scp & ~sc),
    "CM1": (lambda a, full: classify.subset_bits(a), None, lambda sc, scp: sc & ~scp),
    "CM2": (lambda a, full: classify.subset_bits(full & ~a), 1, lambda sc, scp: sc & ~scp),
    "DOC": (lambda a, full: classify.subset_bits(full & ~a), 1, lambda sc, scp: scp),
    "FC": (_all_classes, 0, lambda sc, scp: sc & ~scp),
    "FR": (_all_classes, 0, lambda sc, scp: scp & ~sc),
    "SC": (_all_classes, 1, lambda sc, scp: sc & ~scp),
    "SR": (_all_classes, 1, lambda sc, scp: scp & ~sc),
}


def _reasonable_or_immanent(tab: TransitionTable, pid: str, sid: int) -> int:
    """DL postulates read the state's reasonable classes, IL ones the universe's immanent classes."""
    return tab.reasonable(sid) if pid.startswith("DL") else tab.immanent()


def _descending(bits: int):
    """The classes of a bitset, highest first: `classify.iter_subsets` order."""
    while bits:
        top = bits.bit_length() - 1
        yield top
        bits ^= 1 << top


def _lowest(bits: int) -> tuple[int]:
    return ((bits & -bits).bit_length() - 1,)


# pid: (order of an item's failing β, None for one row without β; clause;
#       (observed, required) of a row from the prior and posterior entry
#       readers t and p, the prior beliefs, α and β)
_ROW_SHAPES = {}
for _pids, _order, _clause, _values in (
    (
        ("DP1", "DP2", "CLDP1", "CLDP2", "DLDP1", "DLDP2"), _descending, "two-step belief mismatch",
        lambda t, p, bel, a, b: (p(b), t(b)),
    ),
    (("DP3",), iter_worlds, "posterior lost the input", lambda t, p, bel, a, b: (p(b), f"subset of {a}")),
    (("DP4",), iter_worlds, "posterior denies the input", lambda t, p, bel, a, b: (p(b), f"meets {a}")),
    (("CLP",), iter_worlds, "input not retained", lambda t, p, bel, a, b: (p(b), f"subset of {a}")),
    (("CLCD",), _descending, "contrary entered the scope", lambda *_: ("in scope", "out of scope")),
    (("CM1",), _descending, "stronger input left the scope", lambda *_: ("out", "in scope")),
    (("CM2",), _descending, "contrary input left the scope", lambda *_: ("out", "in scope")),
    (("DOC",), _descending, "contrary accepted after success", lambda *_: ("in scope", "out of scope")),
    (("FC", "SC"), _lowest, "scope shrank", lambda *_: ("changed", "monotone")),
    (("FR", "SR"), _lowest, "scope grew", lambda *_: ("changed", "monotone")),
    (("COM",), None, "refused input still refused", lambda *_: ("out", "in scope")),
    (("DL1", "CL1", "IL1"), None, "no success and belief change", lambda t, p, bel, a, b: (t(a), bel)),
    (("DL2",), None, "changed to a non-reasonable set", lambda t, p, bel, a, b: (t(a), "reasonable or prior")),
    (("IL2",), None, "changed to a non-immanent set", lambda t, p, bel, a, b: (t(a), "immanent or prior")),
    (("DL3",), None, "vacuity for reasonable input", lambda t, p, bel, a, b: (t(a), bel & a)),
    (("DL4",), iter_worlds, "result not reasonable", lambda t, p, bel, a, b: (t(a), "reasonable")),
    (("IL4",), iter_worlds, "result not immanent", lambda t, p, bel, a, b: (t(a), "immanent")),
    (("DL5", "IL5"), None, "inconsistent result from consistent beliefs", lambda *_: (0, "nonempty")),
    (
        ("DL7", "CL6", "IL7"), iter_worlds, "trichotomy of disjunctions",
        lambda t, p, bel, a, b: (t(a | b), (t(a), t(b), t(a) | t(b))),
    ),
    (("CL2",), None, "vacuity", lambda t, p, bel, a, b: (t(a), bel & a)),
    (("CL3",), None, "inconsistent result", lambda *_: (0, "nonempty")),
    (("CL5",), iter_worlds, "success not closed under weakening", lambda t, p, bel, a, b: (t(b), f"subset of {b}")),
    (("IL3",), None, "expansion mismatch for immanent input", lambda t, p, bel, a, b: (t(a) & a, bel & a)),
):
    _ROW_SHAPES.update(dict.fromkeys(_pids, (_order, _clause, _values)))


def _iter_postulate(tab: TransitionTable, pid: str, sid: int, alphas):
    ln = tab.lanes
    T = tab.row(sid)
    full = tab.sig.all_worlds
    skip = 1 if tab.consistent_only else 0  # the contradiction's class bit, when β may not be it

    # β loops as lane operations on the packed rows T (prior) and P
    # (posterior): a failing β is a flagged lane, and the flags are compacted
    # into a class bitset only when some lane fails.
    if pid in _ROW_TESTS:
        checked, kept, flags = _ROW_TESTS[pid]
        checked, kept = checked(tab, sid), kept(tab, sid) & ~skip
        posts = tab.posts(sid, alphas)
        for a in alphas:
            if (checked >> a) & 1:
                bad = flags(ln, T, tab.row(posts[a]), a, full)
                if bad and (betas := ln.bits(bad) & kept):
                    yield a, betas
    elif pid in _SCOPE_MOVES:
        within, gate, moved = _SCOPE_MOVES[pid]
        sc = tab.scope_classes(sid)
        posts = tab.posts(sid, alphas)
        for a in alphas:
            if gate is None or (sc >> a) & 1 == gate:
                gone = moved(sc, tab.scope_classes(posts[a])) & ~skip
                if gone and (betas := gone & within(a, full)):
                    yield a, betas
    elif pid == "COM":
        sc = tab.scope_classes(sid)
        posts = tab.posts(sid, alphas)
        for a in alphas:
            if not (sc >> a) & 1 and not (tab.scope_classes(posts[a]) >> a) & 1:
                yield a, None
    elif pid in ("DL6", "CL4", "IL6"):
        # Classes are canonical model sets, so syntax independence holds by
        # representation; counted for the record.
        return
    elif pid in POSTULATE_IDS:
        # The one-step postulates read single entries of the row.
        yield from _iter_one_step(tab, pid, sid, alphas, ln.entries(T))
    else:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")


def _iter_one_step(tab: TransitionTable, pid: str, sid: int, alphas, t: tuple[int, ...]):
    bel = tab.states[sid].bel
    if pid in ("DL1", "CL1", "IL1"):
        for a in alphas:
            if not (t[a] == bel or t[a] & ~a == 0):
                yield a, None
    elif pid in ("DL2", "IL2"):
        cls = _reasonable_or_immanent(tab, pid, sid)
        for a in alphas:
            if not (t[a] == bel or (cls >> t[a]) & 1):
                yield a, None
    elif pid in ("DL4", "IL4"):
        cls = _reasonable_or_immanent(tab, pid, sid)
        for a in alphas:
            # The witness is the first class inside a that qualifies, in iter_subsets order.
            witness = classify.subset_bits(a) & cls
            if witness and not (cls >> t[a]) & 1:
                yield a, 1 << witness.bit_length() - 1
    elif pid == "DL3":
        rs = tab.reasonable(sid)
        for a in alphas:
            if bel & a and (rs >> a) & 1 and t[a] != bel & a:
                yield a, None
    elif pid in ("DL5", "IL5"):
        for a in alphas:
            if bel and not t[a]:
                yield a, None
    elif pid in ("DL7", "CL6", "IL7"):
        # Where β contains α or lies inside it, α ∨ β is one of them and the
        # trichotomy holds, so only the incomparable β are read.
        pairs = classify.incomparable(tab.n_classes)
        for a in alphas:
            ta, bad = t[a], 0
            for b in pairs[a]:
                u = t[a | b]
                if not (u == ta or u == t[b] or u == ta | t[b]):
                    bad |= 1 << b
            if bad:
                yield a, bad
    elif pid == "CL2":
        for a in alphas:
            if bel & a and t[a] != bel & a:
                yield a, None
    elif pid == "CL3":
        for a in alphas:
            if not t[a]:
                yield a, None
    elif pid == "CL5":
        # Every class above an accepted input is accepted.
        sc, full = tab.scope_classes(sid), tab.sig.all_worlds
        for a in alphas:
            if (sc >> a) & 1:
                bad = (classify.subset_bits(full & ~a) << a) & ~sc & ~int(tab.consistent_only)
                if bad:
                    yield a, bad
    elif pid == "IL3":
        imm = tab.immanent()
        for a in alphas:
            if bel & a and (imm >> a) & 1 and t[a] & a != bel & a:
                yield a, None


def _postulate_rows(tab: TransitionTable, pid: str, sid: int, alphas):
    """The (α, β, clause, observed, required) rows of the postulate's failures at state
    `sid`, lazily: a row is built only when it is read, and what the rows share only
    at the state's first failing item."""
    ln, t = tab.lanes, None
    for a, betas in _iter_postulate(tab, pid, sid, alphas):
        if t is None:
            order, clause, values = _ROW_SHAPES[pid]
            clause, bel, t = f"{pid}: {clause}", tab.states[sid].bel, partial(ln.entry, tab.row(sid))

        def p(c, a=a):
            return ln.entry(tab.row(tab.post(sid, a)), c)

        for b in order(betas) if order else (None,):
            yield (a, b, clause, *values(t, p, bel, a, b))


def _suite_work(tab: TransitionTable, universe: StateUniverse, instance_list):
    """(state, id, inputs) per universe state, or per sampled (state, input) pair, interned before any posterior.

    A lazy universe raises TooLargeError here, before any state is interned."""
    if instance_list is not None:
        return [(st, tab.id_of(st), [a]) for st, a in instance_list]
    return [(st, tab.id_of(st), tab.classes()) for st in universe.states]


def _flat(work):
    """(state, id, inputs, α) per input of `_suite_work` items, the inputs object shared by a state's items."""
    return [(st, sid, ins, a) for st, sid, ins in work for a in ins]


def check_postulate(
    op,
    universe: StateUniverse,
    pid: str,
    *,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Quantifies one postulate over universe x classes; see Verdict.

    `instance_list` replaces the cross product with explicit (state, alpha)
    pairs, which is how sampled runs at 3 atoms stay at a fixed budget; the
    second input of DL7, CL5, CL6 and IL7 still ranges over every class.
    """
    if pid not in POSTULATE_IDS:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")
    tab = suite_table(op, universe, consistent_only, instance_list)
    ces: list[Counterexample] = []
    instances, per_input = 0, len(tab.classes()) if pid in _PAIRED else 1
    for st, sid, alphas in _suite_work(tab, universe, instance_list):
        instances += len(alphas) * per_input
        for row in _postulate_rows(tab, pid, sid, alphas):
            if len(ces) < max_counterexamples:
                ces.append(Counterexample(st, *row))
            else:
                return Verdict(pid, False, instances, ces, note="counterexample cap hit")
    return Verdict(pid, not ces, instances, ces)


# ---------------------------------------------------------------------------
# Semantic conditions on a single transition (state, posterior, alpha)
#
# Every condition is a function of (st, post, a, na, sc, dom, co): the prior,
# the posterior, the input and its complement, the prior's scope classes and
# success worlds, and consistent_only.  `sc` and `dom` are revision results:
# only the ids in `_READS_REVISIONS` read them, and a caller passes None for
# a value no id it evaluates reads.  Orders are read through masks: an
# order's domain is its state's scope, and a world off the domain is related
# to nothing.


def _agree(st: EpistemicState, post: EpistemicState, ws: int) -> bool:
    """Both orders relate the worlds of `ws` alike: their level lists cut to `ws` are equal."""
    return [lv & ws for lv in st.order.levels if lv & ws] == [lv & ws for lv in post.order.levels if lv & ws]


def _below(y: EpistemicState, strict: bool, ws: int) -> int:
    """The worlds with every world of ws at or (strictly) above them in y's order: the levels
    up to the first that meets ws (without it, when strict); none when ws leaves y's scope."""
    if ws & ~y.scope:
        return 0
    low = 0
    for lv in y.order.levels:
        if lv & ws:
            return low if strict else low | lv
        low |= lv
    return low


def _kept(x: EpistemicState, sx: bool, y: EpistemicState, sy: bool, ws1: int, ws2: int) -> bool:
    """For w1 in ws1 and w2 in ws2, w1 below w2 in x implies w1 below w2 in y (strictly where sx, sy):
    one walk of x's levels, each level's ws1 worlds below the ws2 worlds of their up-cone in y."""
    rest = x.scope
    for lv in x.order.levels:
        if lv & ws1:
            cone = (rest & ~lv if sx else rest) & ws2
            if cone and lv & ws1 & ~_below(y, sy, cone):
                return False
        rest &= ~lv
    return True


def _none_above(x: EpistemicState, strict: bool, ws1: int, ws2: int) -> bool:
    """No world of ws2 lies (strictly) above a world of ws1 in x: the up-cone of the lowest
    level that meets ws1 (without that level, when strict) misses ws2."""
    met = False
    for lv in x.order.levels:
        if met and lv & ws2:
            return False
        if lv & ws1:
            if not strict and lv & ws2:
                return False
            met = True
    return True


def _scope_kept(st: EpistemicState, post: EpistemicState, side: int) -> bool:
    """P9.ii / P10.ii: the side's scope worlds stay in the scope; a lone one may be believed instead."""
    sa = st.scope & side
    if sa.bit_count() >= 2:
        return sa & ~post.scope == 0
    return sa & ~post.bel & ~post.scope == 0


def _scope_bounded(st: EpistemicState, post: EpistemicState, side: int) -> bool:
    """P9.iii / P10.iii: the side's worlds of the new scope were in the old one, or believed
    when there is at most one belief world."""
    pa = post.scope & side
    if st.bel.bit_count() >= 2:
        return pa & ~st.scope == 0
    return pa & ~st.bel & ~st.scope == 0


def _p12iv(st: EpistemicState, post: EpistemicState, a: int, na: int) -> bool:
    """An a-world of the scope that leaves it has no na-world of the new scope outside the
    old one, or at or above it; P11.iv is this with the roles of prior and posterior swapped."""
    gone, new = a & st.scope & ~post.scope, na & post.scope
    return not (gone and new & ~st.scope) and _none_above(st, False, gone, new)


def _in_each_singleton(bel: int, ws: int) -> bool:
    """`bel` lies inside {w} for every world w of `ws`: the minimal witnesses of SI1 and SD1."""
    return not ws or not bel or (bel == ws and ws.bit_count() == 1)


def _in_each_superset(bel2: int, bel: int, scope2: int, full: int, co: bool) -> bool:
    """`bel2` lies inside every class that contains `bel` and misses `scope2` (SI2, SD2).

    The least such class is `bel` itself, or a single world when the
    contradiction is excluded and `bel` is empty.
    """
    if bel & scope2:
        return True
    if bel or not co:
        return bel2 & ~bel == 0
    return _in_each_singleton(bel2, full & ~scope2)


def _on_success(cond):
    """`cond` with the input and its complement cut to the success worlds (the P16 clauses)."""

    def restricted(st, post, a, na, sc, dom, co):
        return cond(st, post, a & dom, na & dom, sc, dom, co)

    return restricted


def _p11i(st, post, a, na, strict) -> bool:
    both = st.scope & post.scope
    return _kept(st, strict, post, True, a & both, na & both)


# The class conditions as subset bitsets: `subset_bits(m)` is the classes inside m,
# so the classes inside m that meet a world set s are `subset_bits(m) & ~subset_bits(m & ~s)`;
# `~int(co)` drops the empty class when β may not be the contradiction.


def _lacking(m: int, bel: int) -> int:
    """The classes inside m that do not contain `bel`."""
    inside = classify.subset_bits(m)
    return inside if bel & ~m else inside & ~(classify.subset_bits(m & ~bel) << bel)


def _c_clcd(st, post, a, na, sc, dom, co) -> bool:
    # β ⊆ na meeting the new scope is accepted; the empty class meets nothing.
    sub = classify.subset_bits
    return not (sc >> a) & 1 or sub(na) & ~sub(na & ~post.scope) & ~sc == 0


def _c_cm1(st, post, a, na, sc, dom, co) -> bool:
    # β ⊆ a, accepted or meeting the scope, missing the new scope: contains post.bel.
    return _lacking(a & ~post.scope, post.bel) & (sc | ~classify.subset_bits(a & ~st.scope)) & ~int(co) == 0


def _c_cm2(st, post, a, na, sc, dom, co) -> bool:
    # β ⊆ na accepted, missing the new scope: contains post.bel.
    return not (sc >> a) & 1 or _lacking(na & ~post.scope, post.bel) & sc & ~int(co) == 0


def _si1(st, post, *_) -> bool:
    return _in_each_singleton(post.bel, st.scope & ~post.scope)


def _si2(st, post, a, na, sc, dom, co) -> bool:
    return _in_each_superset(post.bel, st.bel, post.scope, a | na, co)


def _sd1(st, post, *_) -> bool:
    return _in_each_singleton(st.bel, post.scope & ~st.scope)


def _sd2(st, post, a, na, sc, dom, co) -> bool:
    return _in_each_superset(st.bel, post.bel, st.scope, a | na, co)


def _scope_pair(on_success: bool, first, second):
    """C-FC, C-FR (on_success False) and C-SC, C-SR: the conditions `first` and `second`
    hold whenever revision by the input succeeds exactly when `on_success` says."""

    def cond(st, post, a, na, sc, dom, co):
        return (sc >> a) & 1 != on_success or (
            first(st, post, a, na, sc, dom, co) and second(st, post, a, na, sc, dom, co)
        )

    return cond


CONDITIONS = {
    "FA1": lambda st, *_: sum(1 for lv in st.order.levels if lv & st.bel) < 2,
    "FA2": lambda st, *_: _none_above(st, False, st.scope & ~st.bel, st.bel),
    "CLF": lambda st, *_: check_clf(st),
    "LIM-FAITHFUL": lambda st, *_: check_faithful_limited(st),
    "CR8": lambda st, post, a, na, *_: _agree(st, post, a),
    "CR9": lambda st, post, a, na, *_: _agree(st, post, na),
    "CR10": lambda st, post, a, na, *_: _kept(st, True, post, True, a, na),
    "CR11": lambda st, post, a, na, *_: _kept(st, False, post, False, a, na),
    "P9.i": lambda st, post, a, na, *_: _agree(st, post, a & st.scope & post.scope),
    "P9.ii": lambda st, post, a, na, *_: _scope_kept(st, post, a),
    "P9.iii": lambda st, post, a, na, *_: _scope_bounded(st, post, a),
    "P10.i": lambda st, post, a, na, *_: _agree(st, post, na & st.scope & post.scope),
    "P10.ii": lambda st, post, a, na, *_: _scope_kept(st, post, na),
    "P10.iii": lambda st, post, a, na, *_: _scope_bounded(st, post, na),
    "P11.i": lambda st, post, a, na, *_: _p11i(st, post, a, na, True),
    "P11.ii": lambda st, post, a, na, *_: _none_above(st, True, a & ~post.scope, na & post.scope),
    "P11.iii": lambda st, post, a, na, *_: st.bel & na != 0 or na & post.scope & ~st.scope == 0,
    "P11.iv": lambda st, post, a, na, *_: _p12iv(post, st, na, a),
    "P12.i": lambda st, post, a, na, *_: _kept(
        post, True, st, True, a & st.scope & post.scope, na & st.scope & post.scope
    ),
    "P12.ii": lambda st, post, a, na, *_: _none_above(post, True, na & ~st.scope, a & st.scope),
    "P12.iii": lambda st, post, a, na, *_: st.bel & a == 0 or na & post.scope & ~st.scope == 0,
    "P12.iv": lambda st, post, a, na, *_: _p12iv(st, post, a, na),
    "SI1": _si1,
    "SI2": _si2,
    "SD1": _sd1,
    "SD2": _sd2,
    "P14.a": lambda st, post, a, na, sc, dom, co: (
        _agree(st, post, a & st.scope & post.scope & dom)
        and _scope_kept(st, post, a)
        and _scope_bounded(st, post, a)
    ),
    "P14.b": lambda st, post, a, na, sc, dom, co: (
        _agree(st, post, na & st.scope & post.scope & dom)
        and _scope_kept(st, post, na)
        and _scope_bounded(st, post, na)
    ),
    "P15.a": lambda st, post, a, na, *_: (
        a & ~st.scope != 0 or a.bit_count() < 2 or _agree(st, post, a)
    ),
    "P15.b": lambda st, post, a, na, *_: a == 0 or a & ~st.scope != 0 or _agree(st, post, na & st.scope),
    "P16.i": _on_success(lambda st, post, a, na, *_: _p11i(st, post, a, na, False)),
    "P16.ii": _on_success(lambda st, post, a, na, *_: _none_above(st, False, a & ~post.scope, na & post.scope)),
    "P16.iii": lambda st, post, a, na, sc, dom, co: na & dom & post.scope & ~st.scope == 0 or st.bel & a == 0,
    "P16.iv": _on_success(lambda st, post, a, na, *_: _p12iv(st, post, a, na)),
    "C-CLCD": _c_clcd,
    "C-CM1": _c_cm1,
    "C-CM2": _c_cm2,
    "C-FC": _scope_pair(False, _si1, _si2),
    "C-FR": _scope_pair(False, _sd1, _sd2),
    "C-SC": _scope_pair(True, _si1, _si2),
    "C-SR": _scope_pair(True, _sd1, _sd2),
    "C-DOC": lambda st, post, a, na, *_: post.scope & na == 0 or (a & st.scope == 0 and st.bel & na != 0),
    "C-COM": lambda st, post, a, na, *_: a & st.scope != 0 or st.bel & na == 0 or a & post.scope != 0,
}

CONDITION_IDS = tuple(CONDITIONS)

# The conditions that read revision results, by the prior's value they read:
# its scope classes (sc) or its success worlds (dom).
_READS_REVISIONS = {
    **dict.fromkeys(("C-CLCD", "C-CM1", "C-CM2", "C-FC", "C-FR", "C-SC", "C-SR"), "sc"),
    **dict.fromkeys(("P14.a", "P14.b", "P16.i", "P16.ii", "P16.iii", "P16.iv"), "dom"),
}


def _prior_values(tab: TransitionTable, sid: int, reads) -> tuple[int | None, int | None]:
    """(sc, dom) of state `sid`, each read from the table only when `reads` names it."""
    return (
        tab.scope_classes(sid) if "sc" in reads else None,
        tab.success_worlds(sid) if "dom" in reads else None,
    )


def check_condition(
    st: EpistemicState,
    post: EpistemicState,
    alpha: int,
    cid: str,
    sig: Signature,
    op=None,
    consistent_only: bool = False,
) -> bool:
    """One named condition clause on the transition, from the `CONDITIONS` table.

    `op` is read only for the conditions that read revision results, and
    they need it.  It is the operator, or the `TransitionTable` of the calling
    suite, whose belief tables are then shared with the postulate side.
    """
    cond = CONDITIONS.get(cid)
    if cond is None:
        raise ValueError(f"unknown condition id {cid!r}; valid ids: {', '.join(CONDITION_IDS)}")
    sc = dom = None
    reads = _READS_REVISIONS.get(cid)
    if reads:
        if op is None:
            raise PreconditionError("this condition reads revision results, so it needs the operator")
        if not isinstance(op, TransitionTable):
            op = TransitionTable(op, sig)
        sc, dom = _prior_values(op, op.id_of(st), (reads,))
    return cond(st, post, alpha, ((1 << sig.n_worlds) - 1) & ~alpha, sc, dom, consistent_only)


# ---------------------------------------------------------------------------
# Equivalence suites: postulate side vs condition side, per (state, alpha)
#
# theorem: (postulate ids, condition ids) per part; a part's postulate side
# fails where any of its postulates fails, and a theorem of two parts compares
# the pairs of truths.  P13a's "no scope class leaves" is FC or SC failing
# (over failed and successful inputs), P13b's "none enters" FR or SR.
_THEOREM_CONDITIONS = {
    "P9": ((("DP1",), ("P9.i", "P9.ii", "P9.iii")),),
    "P10": ((("DP2",), ("P10.i", "P10.ii", "P10.iii")),),
    "P11": ((("DP3",), ("P11.i", "P11.ii", "P11.iii", "P11.iv")),),
    "P12": ((("DP4",), ("P12.i", "P12.ii", "P12.iii", "P12.iv")),),
    "P13a": ((("FC", "SC"), ("SI1", "SI2")),),
    "P13b": ((("FR", "SR"), ("SD1", "SD2")),),
    "P14a": ((("CLDP1",), ("P14.a",)),),
    "P14b": ((("CLDP2",), ("P14.b",)),),
    "P15a": ((("DLDP1",), ("P15.a",)),),
    "P15b": ((("DLDP2",), ("P15.b",)),),
    "P16": ((("CLP",), ("P16.i", "P16.ii", "P16.iii", "P16.iv")),),
    "P-CLCD": ((("CLCD",), ("C-CLCD",)),),
    "P-CM1": ((("CM1",), ("C-CM1",)),),
    "P-CM2": ((("CM2",), ("C-CM2",)),),
    "P-FCFR": ((("FC",), ("C-FC",)), (("FR",), ("C-FR",))),
    "P-SCSR": ((("SC",), ("C-SC",)), (("SR",), ("C-SR",))),
    "P-DOC": ((("DOC",), ("C-DOC",)),),
    "P-COM": ((("COM",), ("C-COM",)),),
}

THEOREM_IDS = tuple(_THEOREM_CONDITIONS)

# The DP round trip's parts: DP1-DP4 against CR8-CR11, one each.
_DP_PARTS = ((("DP1",), ("CR8",)), (("DP2",), ("CR9",)), (("DP3",), ("CR10",)), (("DP4",), ("CR11",)))


def _postulate_instance(tab: TransitionTable, pid: str, sid: int, alphas) -> int:
    """Bitset of the inputs among `alphas` at which the postulate fails at state `sid`,
    inner variables quantified: one pass over the state's inputs, and no row built."""
    return sum(1 << a for a, _ in _iter_postulate(tab, pid, sid, alphas))


def _mismatches(tab: TransitionTable, parts, work):
    """(instances so far, state, α, postulate truths, condition truths) at each
    (state, id, inputs, α) of `work` where the sides of some part of `parts` differ;
    each side is a bitset of failing inputs, built once per state (or sampled
    instance), so an instance is one bit test and truth lists exist only for a mismatch."""
    groups = [[CONDITIONS[cid] for cid in cids] for _, cids in parts]
    reads = {_READS_REVISIONS.get(cid) for _, cids in parts for cid in cids}
    full = tab.sig.all_worlds
    co = tab.consistent_only
    states = tab.states
    seen = None
    for instances, (st, sid, ins, a) in enumerate(work, 1):
        if ins is not seen:  # a new state, or a new sampled instance
            seen, fails, unmet, differ = ins, [], [], 0
            posts = tab.posts(sid, ins)
            sc, dom = _prior_values(tab, sid, reads)
            for (pids, _), conds in zip(parts, groups):
                failing = 0
                for pid in pids:
                    failing |= _postulate_instance(tab, pid, sid, ins)
                failed = 0
                for b in ins:
                    post, nb = states[posts[b]], full & ~b
                    for cond in conds:  # all() written out: a generator per input is a tenth of the suite's time
                        if not cond(st, post, b, nb, sc, dom, co):
                            failed |= 1 << b
                            break
                fails.append(failing)
                unmet.append(failed)
                differ |= failing ^ failed
        if (differ >> a) & 1:
            yield instances, st, a, [not (bad >> a) & 1 for bad in fails], [not (bad >> a) & 1 for bad in unmet]


def verify_equivalence(
    op,
    universe: StateUniverse,
    theorem: str,
    *,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Bidirectional per-(state, alpha) check of one characterisation theorem.

    Both sides use worlds only through set operations, so where renaming the
    worlds maps the universe onto itself and commutes with the operator (a
    dl, cl or agm `RevisionOperator` on a faithful, clf or fa universe), the
    verdict at (Ψ, α) is the verdict at the renamed pair.  An exhaustive call
    there first checks one state per orbit (`orbit_representatives`) at
    every input.  If none mismatches, the theorem holds, over the instances
    the orbits hold.  Otherwise the whole universe is checked, so the
    counterexamples are those of the plain run; only a lazy universe, which
    cannot be walked, takes the representatives' mismatches as its verdict,
    counting each instance as its orbit's size.
    """
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}; valid ids: {', '.join(THEOREM_IDS)}")
    parts = _THEOREM_CONDITIONS[theorem]
    tab = suite_table(op, universe, consistent_only, instance_list)
    renamable = instance_list is None and isinstance(op, RevisionOperator) and op.family != "il"
    orbits = universe.orbits() if renamable else None
    work = None
    if orbits is not None:
        reduced = _flat([(st, tab.id_of(st), tab.classes()) for st, _ in orbits])
        counts = [0, *accumulate(size for _, size in orbits for _ in tab.classes())]  # instances the first i stand for
        if universe._states is None:
            work = reduced
        elif next(_mismatches(tab, parts, reduced), None) is None:
            return Verdict(theorem, True, counts[-1])
    if work is None:
        # Flat, not streamed per state: streaming raises the `theorems-2atom` benchmark's peak_rss_mb past its bound.
        work = _flat(_suite_work(tab, universe, instance_list))
        counts = range(len(work) + 1)
    ces: list[Counterexample] = []
    for instances, st, a, lhs, rhs in _mismatches(tab, parts, work):
        if len(ces) >= max_counterexamples:
            return Verdict(theorem, False, counts[instances], ces, note="counterexample cap hit")
        # Lists of truths compare at their first differing part, which names the side.
        side = "postulate holds, condition fails" if lhs > rhs else "condition holds, postulate fails"
        lhs, rhs = (lhs[0], rhs[0]) if len(parts) == 1 else (tuple(lhs), tuple(rhs))
        ces.append(Counterexample(st, a, None, f"{theorem}: {side}", lhs, rhs))
    return Verdict(theorem, not ces, counts[-1], ces)


# ---------------------------------------------------------------------------
# Representation round trips


def _reconstruction_errors(op, st: EpistemicState, sig: Signature, family: str, alphas, budget: int):
    """The forward check at one state: the scope rebuilt from `op`'s revision results (None
    without a weak order) and the first `budget` of the rebuilt assignment's failures: unfaithful,
    not CLF-valid (CL), scope short of all worlds (AGM), or the first input of `alphas` revised
    unlike `op`.  Failures past the budget are neither built nor looked for."""
    try:
        order, scope = canonical_assignment(op, st, sig, family="cl" if family == "CL" else "dl")
    except NonWeakOrderError as err:
        failed = Counterexample(st, None, None, f"canonical reconstruction failed: {err}", "error", "weak order")
        return None, [failed][:budget]

    def failures():
        recon = EpistemicState(st.bel, scope, order)
        if not check_faithful_limited(recon):
            yield Counterexample(st, None, None, "reconstruction not faithful", recon, "faithful")
        if family == "CL" and not check_clf(recon):
            yield Counterexample(st, None, None, "reconstruction not CLF-valid", recon, "CLF")
        if family == "AGM" and scope != sig.all_worlds:
            yield Counterexample(st, None, None, "AGM scope not total", scope, sig.all_worlds)
        row, ln = classify.bel_row_of(op, st, sig), kernels.lanes(1 << sig.n_worlds)
        for a in alphas:
            got, want = revise_mask(order.levels, scope, st.bel, a), ln.entry(row, a)
            if got != want:
                yield Counterexample(st, a, None, "reconstructed operator disagrees", got, want)
                return

    return scope, list(islice(failures(), budget))


def representation_roundtrip(
    op,
    universe: StateUniverse,
    family: str,
    *,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Both directions of a representation theorem on a finite universe.

    Backward: the assignment-induced operator satisfies the family's
    postulates.  Forward: the canonical reconstruction from the operator's
    behaviour reproduces every revision result (plus, per family: the IL
    scope is constant, the CL reconstruction is CLF-valid, the AGM scope is
    total, and DP postulates match the CR conditions per instance).
    """
    if family not in FAMILY_POSTULATES:
        raise ValueError(f"unknown family {family!r}; valid: {tuple(FAMILY_POSTULATES)}")
    ces: list[Counterexample] = []
    instances = 0

    def add(ce):
        if len(ces) < max_counterexamples:
            ces.append(ce)

    # The two families built on plain minimisation are checked on the
    # consistent fragment, where minimisation and the keep-beliefs fallback
    # agree; the contradiction input separates them by construction.
    consistent_only = family in ("DP", "AGM")
    tab = suite_table(op, universe, consistent_only)
    work = _suite_work(tab, universe, None)
    for pid in FAMILY_POSTULATES[family]:  # every instance counted, failures read up to the cap
        per_input = len(tab.classes()) if pid in _PAIRED else 1
        for st, sid, alphas in work:
            instances += len(alphas) * per_input
            rows = islice(_postulate_rows(tab, pid, sid, alphas), max_counterexamples - len(ces))
            ces += (Counterexample(st, *row) for row in rows)
    if family == "DP":
        flat = _flat(work)  # flat: see verify_equivalence
        instances += len(flat)
        for _, st, a, lhs, rhs in _mismatches(tab, _DP_PARTS, flat):
            for ((pid,), (cid,)), holds, met in zip(_DP_PARTS, lhs, rhs):
                if holds != met:
                    add(Counterexample(st, a, None, f"{pid} vs {cid} mismatch", holds, met))
    else:
        il_scopes = set()
        for st, _, alphas in work:
            instances += 1
            budget = max(max_counterexamples - len(ces), 0)
            scope, errors = _reconstruction_errors(tab, st, universe.sig, family, alphas, budget)
            if scope is not None:
                il_scopes.add(scope)
            ces += errors
        if family == "IL" and len(il_scopes) > 1:
            first = work[0][0]
            add(Counterexample(first, None, None, "reconstructed scope not constant", sorted(il_scopes), "one scope"))

    return Verdict(f"roundtrip-{family}", not ces, instances, ces)


def mutation_detection(
    op,
    universe: StateUniverse,
    *,
    trials: int = 200,
    seed: int = 0,
) -> Verdict:
    """Rate at which single-entry belief-table corruptions are caught by the round trip.

    Each trial draws a state and an input, overwrites that entry of the
    state's stored belief row with another belief set, and runs the forward
    reconstruction check on the state.  The table is the mutation's own, so
    no suite reads a corrupted row, and each trial puts its row back.
    """
    states = universe.states
    sig = universe.sig
    rng = random.Random(seed)
    tab = TransitionTable(op, sig)
    n_classes = 1 << sig.n_worlds
    detected = 0
    misses = []
    for _ in range(trials):
        st = states[rng.randrange(len(states))]
        a = rng.randrange(n_classes)
        sid = tab.id_of(st)
        row = tab.row(sid)
        old = tab.lanes.entry(row, a)
        while True:
            new_bel = rng.randrange(n_classes)
            if new_bel != old:
                break
        tab._rows[sid] = row ^ (old ^ new_bel) << a * tab.lanes.width
        try:
            # Detection needs one failure, so the check stops at the first.
            hit = bool(_reconstruction_errors(tab, st, sig, "DL", range(n_classes), 1)[1])
        finally:
            tab._rows[sid] = row
        if hit:
            detected += 1
        elif len(misses) < MAX_COUNTEREXAMPLES:
            misses.append(Counterexample(st, a, new_bel, "mutation not detected", "accepted", "detected"))
    verdict = Verdict("mutation-detection", detected >= trials * 0.95, trials, misses, seed=seed)
    verdict.note = f"detected {detected}/{trials}"
    return verdict
