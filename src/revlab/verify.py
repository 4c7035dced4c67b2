"""Parametric postulate checker and equivalence oracles.

Three layers:

* check_postulate — quantifies one named postulate over a universe of
  states and the formula classes, returning a Verdict with concrete
  counterexamples;
* check_condition — one named semantic condition on a (state, posterior,
  input) transition, looked up in the `CONDITIONS` table.  Each entry is
  mask algebra: order agreement compares level lists cut to a world set,
  the cross quantifiers read per-world up-cones, and the scoped
  independence conditions test their minimal witnesses.  The literal
  world-pair and class loops are the test oracle, in
  tests/condition_oracle.py;
* verify_equivalence / representation_roundtrip — bidirectional checks of
  the characterisation theorems per state, postulate side as a bitset, and
  the construct/reconstruct round trips behind the representation results.

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

from . import classify
from .errors import NonWeakOrderError, PreconditionError
from .kernels import revise_mask
from .operators import canonical_assignment
from .prop import Signature, iter_worlds, popcount
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


# ---------------------------------------------------------------------------
# Postulates.  Each checker yields Counterexample tuples for one state.
#
# Postulates of one shape share a branch of `_iter_postulate` and differ by
# a row of its tables.  A class set is a bitset over classes, read from the
# table for one state id: all classes, the scope classes (the inputs whose
# revision succeeds) or the reasonable classes.


def _all_classes(tab: TransitionTable, sid: int) -> int:
    return -1


# pid: (β ranges inside α rather than ¬α, classes of α checked, classes of β kept)
_TWO_STEP = {
    "DP1": (True, _all_classes, _all_classes),
    "DP2": (False, _all_classes, _all_classes),
    "CLDP1": (True, _all_classes, TransitionTable.scope_classes),
    "CLDP2": (False, TransitionTable.scope_classes, TransitionTable.scope_classes),
    "DLDP1": (True, TransitionTable.reasonable, TransitionTable.reasonable),
    "DLDP2": (False, TransitionTable.reasonable, TransitionTable.reasonable),
}

# pid: (β ranges inside α rather than ¬α, only accepted α are checked,
#       classes that moved given the prior and posterior scope classes,
#       clause, observed, required)
_SCOPE_MOVES = {
    "CLCD": (False, True, lambda sc, scp: scp & ~sc, "contrary entered the scope", "in scope", "out of scope"),
    "CM1": (True, False, lambda sc, scp: sc & ~scp, "stronger input left the scope", "out", "in scope"),
    "CM2": (False, True, lambda sc, scp: sc & ~scp, "contrary input left the scope", "out", "in scope"),
    "DOC": (False, True, lambda sc, scp: scp, "contrary accepted after success", "in scope", "out of scope"),
}


def _reasonable_or_immanent(tab: TransitionTable, pid: str, sid: int) -> tuple[str, int]:
    """DL postulates read the state's reasonable classes, IL ones the universe's immanent classes."""
    return ("reasonable", tab.reasonable(sid)) if pid.startswith("DL") else ("immanent", tab.immanent())


def _iter_postulate(tab: TransitionTable, pid: str, sid: int, alphas):
    st = tab.states[sid]
    t = tab.bel(sid)
    bel = st.bel
    full = tab.sig.all_worlds

    if pid in ("DL1", "CL1", "IL1"):
        for a in alphas:
            if not (t[a] == bel or t[a] & ~a == 0):
                yield Counterexample(st, a, None, f"{pid}: no success and belief change", t[a], bel)
    elif pid in ("DL2", "IL2"):
        word, cls = _reasonable_or_immanent(tab, pid, sid)
        for a in alphas:
            if not (t[a] == bel or (cls >> t[a]) & 1):
                yield Counterexample(st, a, None, f"{pid}: changed to a non-{word} set", t[a], f"{word} or prior")
    elif pid in ("DL4", "IL4"):
        word, cls = _reasonable_or_immanent(tab, pid, sid)
        for a in alphas:
            witness = next((b for b in classify.iter_subsets(a) if (cls >> b) & 1), None)
            if witness is not None and not (cls >> t[a]) & 1:
                yield Counterexample(st, a, witness, f"{pid}: result not {word}", t[a], word)
    elif pid == "DL3":
        rs = tab.reasonable(sid)
        for a in alphas:
            if bel & a and (rs >> a) & 1 and t[a] != bel & a:
                yield Counterexample(st, a, None, "DL3: vacuity for reasonable input", t[a], bel & a)
    elif pid in ("DL5", "IL5"):
        for a in alphas:
            if bel and not t[a]:
                yield Counterexample(st, a, None, f"{pid}: inconsistent result from consistent beliefs", 0, "nonempty")
    elif pid in ("DL6", "CL4", "IL6"):
        # Classes are canonical model sets, so syntax independence holds by
        # representation; counted for the record.
        return
    elif pid in ("DL7", "CL6", "IL7"):
        for a in alphas:
            for b in alphas:
                u = t[a | b]
                if not (u == t[a] or u == t[b] or u == t[a] | t[b]):
                    yield Counterexample(st, a, b, f"{pid}: trichotomy of disjunctions", u, (t[a], t[b], t[a] | t[b]))
    elif pid == "CL2":
        for a in alphas:
            if bel & a and t[a] != bel & a:
                yield Counterexample(st, a, None, "CL2: vacuity", t[a], bel & a)
    elif pid == "CL3":
        for a in alphas:
            if not t[a]:
                yield Counterexample(st, a, None, "CL3: inconsistent result", 0, "nonempty")
    elif pid == "CL5":
        for a in alphas:
            for b in alphas:
                if t[a] & ~a == 0 and a & ~b == 0 and t[b] & ~b:
                    yield Counterexample(st, a, b, "CL5: success not closed under weakening", t[b], f"subset of {b}")
    elif pid == "IL3":
        imm = tab.immanent()
        for a in alphas:
            if bel & a and (imm >> a) & 1 and t[a] & a != bel & a:
                yield Counterexample(st, a, None, "IL3: expansion mismatch for immanent input", t[a] & a, bel & a)
    elif pid in _TWO_STEP:
        inside, checked, kept = _TWO_STEP[pid]
        checked, kept = checked(tab, sid), kept(tab, sid)
        for a in alphas:
            if (checked >> a) & 1:
                tp = tab.bel(tab.post(sid, a))
                for b in tab.subsets(a if inside else full & ~a):
                    if (kept >> b) & 1 and tp[b] != t[b]:
                        yield Counterexample(st, a, b, f"{pid}: two-step belief mismatch", tp[b], t[b])
    elif pid == "DP3":
        for a in alphas:
            tp = tab.bel(tab.post(sid, a))
            for b in tab.classes():
                if t[b] & ~a == 0 and tp[b] & ~a:
                    yield Counterexample(st, a, b, "DP3: posterior lost the input", tp[b], f"subset of {a}")
    elif pid == "DP4":
        for a in alphas:
            tp = tab.bel(tab.post(sid, a))
            for b in tab.classes():
                if t[b] & a and not tp[b] & a:
                    yield Counterexample(st, a, b, "DP4: posterior denies the input", tp[b], f"meets {a}")
    elif pid == "CLP":
        sc = tab.scope_classes(sid)
        for a in alphas:
            if not (sc >> a) & 1:
                continue
            tp = tab.bel(tab.post(sid, a))
            for b in tab.classes():
                if (sc >> b) & 1 and t[b] & a and tp[b] & ~a:
                    yield Counterexample(st, a, b, "CLP: input not retained", tp[b], f"subset of {a}")
    elif pid in _SCOPE_MOVES:
        inside, gated, moved, clause, observed, required = _SCOPE_MOVES[pid]
        sc = tab.scope_classes(sid)
        for a in alphas:
            if gated and not (sc >> a) & 1:
                continue
            gone = moved(sc, tab.scope_classes(tab.post(sid, a)))
            for b in tab.subsets(a if inside else full & ~a):
                if (gone >> b) & 1:
                    yield Counterexample(st, a, b, f"{pid}: {clause}", observed, required)
    elif pid in ("FC", "FR", "SC", "SR"):
        sc = tab.scope_classes(sid)
        want_success = pid in ("SC", "SR")
        for a in alphas:
            if bool((sc >> a) & 1) != want_success:
                continue
            scp = tab.scope_classes(tab.post(sid, a))
            grew, shrank = scp & ~sc, sc & ~scp
            if tab.consistent_only:
                grew &= ~1
                shrank &= ~1
            bad = shrank if pid in ("FC", "SC") else grew
            if bad:
                which = "shrank" if pid in ("FC", "SC") else "grew"
                yield Counterexample(
                    st, a, (bad & -bad).bit_length() - 1, f"{pid}: scope {which}", "changed", "monotone"
                )
    elif pid == "COM":
        sc = tab.scope_classes(sid)
        for a in alphas:
            if not (sc >> a) & 1:
                scp = tab.scope_classes(tab.post(sid, a))
                if not (scp >> a) & 1:
                    yield Counterexample(st, a, None, "COM: refused input still refused", "out", "in scope")
    else:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")


def _suite_work(tab: TransitionTable, universe: StateUniverse, states, instance_list):
    """(state, id, inputs) per checked state, all interned before any posterior is asked for."""
    if instance_list is not None:
        return [(st, tab.id_of(st), [a]) for st, a in instance_list]
    if states is None:
        states = universe.iter_states()
    return [(st, tab.id_of(st), tab.classes()) for st in states]


def check_postulate(
    op,
    universe: StateUniverse,
    pid: str,
    *,
    states=None,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Quantifies one postulate over universe x classes; see Verdict.

    `instance_list` replaces the cross product with explicit (state, alpha)
    pairs, which is how sampled runs at 3 atoms stay at a fixed budget.
    """
    if pid not in POSTULATE_IDS:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")
    tab = suite_table(op, universe, consistent_only, instance_list is not None)
    ces: list[Counterexample] = []
    instances = 0
    for _, sid, alphas in _suite_work(tab, universe, states, instance_list):
        # The postulates over two free inputs count every (α, β) pair.
        instances += len(alphas) ** 2 if pid in ("DL7", "CL6", "CL5", "IL7") else len(alphas)
        for ce in _iter_postulate(tab, pid, sid, alphas):
            if len(ces) < max_counterexamples:
                ces.append(ce)
            else:
                return Verdict(pid, False, instances, ces, note="counterexample cap hit")
    return Verdict(pid, not ces, instances, ces)


# ---------------------------------------------------------------------------
# Semantic conditions on a single transition (state, posterior, alpha)
#
# Every condition is a function of (st, post, a, na, tab, co): the prior, the
# posterior, the input and its complement, the calling suite's transition
# table (None when no operator was given) and consistent_only.  Orders are
# read through masks: an order's domain is its state's scope, and a world
# off the domain is related to nothing.


def _agree(st: EpistemicState, post: EpistemicState, ws: int) -> bool:
    """Both orders relate the worlds of `ws` alike: their level lists cut to `ws` are equal."""
    return [lv & ws for lv in st.order.levels if lv & ws] == [lv & ws for lv in post.order.levels if lv & ws]


def _above(st: EpistemicState, w: int, strict: bool) -> int:
    """Up-cone of world w: the scope worlds at or (strictly) above it in st's order; 0 off the scope."""
    up, bit = st.scope, 1 << w
    for lv in st.order.levels:
        if lv & bit:
            return up & ~lv if strict else up
        up &= ~lv
    return 0


def _kept(x: EpistemicState, sx: bool, y: EpistemicState, sy: bool, ws1: int, ws2: int) -> bool:
    """For w1 in ws1 and w2 in ws2, w1 below w2 in x implies w1 below w2 in y (strictly where sx, sy)."""
    return all(_above(x, w, sx) & ws2 & ~_above(y, w, sy) == 0 for w in iter_worlds(ws1))


def _none_above(x: EpistemicState, strict: bool, ws1: int, ws2: int) -> bool:
    """No world of ws2 lies (strictly) above a world of ws1 in x."""
    return all(_above(x, w, strict) & ws2 == 0 for w in iter_worlds(ws1))


def _scope_kept(st: EpistemicState, post: EpistemicState, side: int) -> bool:
    """P9.ii / P10.ii: the side's scope worlds stay in the scope; a lone one may be believed instead."""
    sa = st.scope & side
    if popcount(sa) >= 2:
        return sa & ~post.scope == 0
    return sa & ~post.bel & ~post.scope == 0


def _scope_bounded(st: EpistemicState, post: EpistemicState, side: int) -> bool:
    """P9.iii / P10.iii: the side's worlds of the new scope were in the old one, or believed
    when there is at most one belief world."""
    pa = post.scope & side
    if popcount(st.bel) >= 2:
        return pa & ~st.scope == 0
    return pa & ~st.bel & ~st.scope == 0


def _p12iv(st: EpistemicState, post: EpistemicState, a: int, na: int) -> bool:
    """An a-world of the scope that leaves it has no na-world of the new scope outside the
    old one, or at or above it; P11.iv is this with the roles of prior and posterior swapped."""
    gone, new = a & st.scope & ~post.scope, na & post.scope
    return not (gone and new & ~st.scope) and _none_above(st, False, gone, new)


def _in_each_singleton(bel: int, ws: int) -> bool:
    """`bel` lies inside {w} for every world w of `ws`: the minimal witnesses of SI1 and SD1."""
    return not ws or not bel or (bel == ws and popcount(ws) == 1)


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


def _need(tab: TransitionTable | None) -> TransitionTable:
    if tab is None:
        raise PreconditionError("this condition reads revision results, so it needs the operator")
    return tab


def _success(tab, st: EpistemicState) -> int:
    """Worlds whose minterm revision of st succeeds."""
    return _need(tab).success_worlds(tab.id_of(st))


def _row(tab, st: EpistemicState) -> tuple[int, ...]:
    return _need(tab).bel(tab.id_of(st))


def _on_success(cond):
    """`cond` with the input and its complement cut to the success worlds (the P16 clauses)."""

    def restricted(st, post, a, na, tab, co):
        dom = _success(tab, st)
        return cond(st, post, a & dom, na & dom, tab, co)

    return restricted


def _p11i(st, post, a, na, strict) -> bool:
    both = st.scope & post.scope
    return _kept(st, strict, post, True, a & both, na & both)


def _c_clcd(st, post, a, na, tab, co) -> bool:
    t = _row(tab, st)
    return t[a] & ~a != 0 or all(
        t[b] & ~b == 0 or b & post.scope == 0 for b in classify.iter_subsets(na) if b or not co
    )


def _c_cm1(st, post, a, na, tab, co) -> bool:
    t = _row(tab, st)
    return all(
        not (t[b] & ~b == 0 or b & st.scope) or post.bel & ~b == 0 or b & post.scope
        for b in classify.iter_subsets(a)
        if b or not co
    )


def _c_cm2(st, post, a, na, tab, co) -> bool:
    t = _row(tab, st)
    return t[a] & ~a != 0 or all(
        t[b] & ~b or post.bel & ~b == 0 or b & post.scope for b in classify.iter_subsets(na) if b or not co
    )


def _scope_pair(on_success: bool, first: str, second: str):
    """C-FC, C-FR (on_success False) and C-SC, C-SR: both named conditions hold
    whenever revision by the input succeeds exactly when `on_success` says."""

    def cond(st, post, a, na, tab, co):
        if (_row(tab, st)[a] & ~a == 0) != on_success:
            return True
        return CONDITIONS[first](st, post, a, na, tab, co) and CONDITIONS[second](st, post, a, na, tab, co)

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
    "SI1": lambda st, post, a, na, tab, co: _in_each_singleton(post.bel, st.scope & ~post.scope),
    "SI2": lambda st, post, a, na, tab, co: _in_each_superset(post.bel, st.bel, post.scope, a | na, co),
    "SD1": lambda st, post, a, na, tab, co: _in_each_singleton(st.bel, post.scope & ~st.scope),
    "SD2": lambda st, post, a, na, tab, co: _in_each_superset(st.bel, post.bel, st.scope, a | na, co),
    "P14.a": lambda st, post, a, na, tab, co: (
        _agree(st, post, a & st.scope & post.scope & _success(tab, st))
        and _scope_kept(st, post, a)
        and _scope_bounded(st, post, a)
    ),
    "P14.b": lambda st, post, a, na, tab, co: (
        _agree(st, post, na & st.scope & post.scope & _success(tab, st))
        and _scope_kept(st, post, na)
        and _scope_bounded(st, post, na)
    ),
    "P15.a": lambda st, post, a, na, *_: (
        a & ~st.scope != 0 or popcount(a) < 2 or _agree(st, post, a)
    ),
    "P15.b": lambda st, post, a, na, *_: a == 0 or a & ~st.scope != 0 or _agree(st, post, na & st.scope),
    "P16.i": _on_success(lambda st, post, a, na, *_: _p11i(st, post, a, na, False)),
    "P16.ii": _on_success(lambda st, post, a, na, *_: _none_above(st, False, a & ~post.scope, na & post.scope)),
    "P16.iii": lambda st, post, a, na, tab, co: (
        na & _success(tab, st) & post.scope & ~st.scope == 0 or st.bel & a == 0
    ),
    "P16.iv": _on_success(lambda st, post, a, na, *_: _p12iv(st, post, a, na)),
    "C-CLCD": _c_clcd,
    "C-CM1": _c_cm1,
    "C-CM2": _c_cm2,
    "C-FC": _scope_pair(False, "SI1", "SI2"),
    "C-FR": _scope_pair(False, "SD1", "SD2"),
    "C-SC": _scope_pair(True, "SI1", "SI2"),
    "C-SR": _scope_pair(True, "SD1", "SD2"),
    "C-DOC": lambda st, post, a, na, *_: post.scope & na == 0 or (a & st.scope == 0 and st.bel & na != 0),
    "C-COM": lambda st, post, a, na, *_: a & st.scope != 0 or st.bel & na == 0 or a & post.scope != 0,
}

CONDITION_IDS = tuple(CONDITIONS)


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

    `op` is needed only by the conditions that read revision results.  It is
    the operator, or the `TransitionTable` of the calling suite, whose belief
    tables are then shared with the postulate side.
    """
    cond = CONDITIONS.get(cid)
    if cond is None:
        raise ValueError(f"unknown condition id {cid!r}; valid ids: {', '.join(CONDITION_IDS)}")
    if op is not None and not isinstance(op, TransitionTable):
        op = TransitionTable(op, sig)
    return cond(st, post, alpha, ((1 << sig.n_worlds) - 1) & ~alpha, op, consistent_only)


# ---------------------------------------------------------------------------
# Equivalence suites: postulate side vs condition side, per (state, alpha)
#
# theorem: (postulate id, condition ids) per part; a theorem of two parts
# compares the pair of truths.  P13a and P13b compare the prior's and the
# posterior's scope classes in place of a postulate: none leaves, resp. enters.
_THEOREM_CONDITIONS = {
    "P9": (("DP1", ("P9.i", "P9.ii", "P9.iii")),),
    "P10": (("DP2", ("P10.i", "P10.ii", "P10.iii")),),
    "P11": (("DP3", ("P11.i", "P11.ii", "P11.iii", "P11.iv")),),
    "P12": (("DP4", ("P12.i", "P12.ii", "P12.iii", "P12.iv")),),
    "P13a": ((None, ("SI1", "SI2")),),
    "P13b": ((None, ("SD1", "SD2")),),
    "P14a": (("CLDP1", ("P14.a",)),),
    "P14b": (("CLDP2", ("P14.b",)),),
    "P15a": (("DLDP1", ("P15.a",)),),
    "P15b": (("DLDP2", ("P15.b",)),),
    "P16": (("CLP", ("P16.i", "P16.ii", "P16.iii", "P16.iv")),),
    "P-CLCD": (("CLCD", ("C-CLCD",)),),
    "P-CM1": (("CM1", ("C-CM1",)),),
    "P-CM2": (("CM2", ("C-CM2",)),),
    "P-FCFR": (("FC", ("C-FC",)), ("FR", ("C-FR",))),
    "P-SCSR": (("SC", ("C-SC",)), ("SR", ("C-SR",))),
    "P-DOC": (("DOC", ("C-DOC",)),),
    "P-COM": (("COM", ("C-COM",)),),
}

THEOREM_IDS = tuple(_THEOREM_CONDITIONS)


def _postulate_instance(tab: TransitionTable, pid: str, sid: int, alphas) -> int:
    """Bitset of the inputs among `alphas` at which the postulate fails at state `sid`,
    inner variables quantified: one pass over the state's inputs."""
    return sum(1 << a for a in {ce.alpha for ce in _iter_postulate(tab, pid, sid, alphas)})


def verify_equivalence(
    op,
    universe: StateUniverse,
    theorem: str,
    *,
    states=None,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Bidirectional per-(state, alpha) check of one characterisation theorem."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}; valid ids: {', '.join(THEOREM_IDS)}")
    parts = _THEOREM_CONDITIONS[theorem]
    pids = [pid for pid, _ in parts if pid]
    groups = [[CONDITIONS[cid] for cid in cids] for _, cids in parts]
    full = universe.sig.all_worlds
    tab = suite_table(op, universe, consistent_only, instance_list is not None)
    work = [(st, sid, ins, a) for st, sid, ins in _suite_work(tab, universe, states, instance_list) for a in ins]
    ces: list[Counterexample] = []
    seen = None
    for instances, (st, sid, ins, a) in enumerate(work, 1):
        if ins is not seen:  # a new state, or a new sampled instance
            seen, fails = ins, [_postulate_instance(tab, pid, sid, ins) for pid in pids]
        post_id = tab.post(sid, a)
        post = tab.states[post_id]
        if pids:
            lhs = [not (bad >> a) & 1 for bad in fails]
        else:  # the contradiction's class is left out under consistent_only
            sc, scp = tab.scope_classes(sid), tab.scope_classes(post_id)
            lhs = [(scp & ~sc if theorem == "P13b" else sc & ~scp) & (-2 if consistent_only else -1) == 0]
        na = full & ~a
        rhs = []  # all() written out: a generator per instance is a tenth of the suite's time
        for conds in groups:
            for cond in conds:
                if not cond(st, post, a, na, tab, consistent_only):
                    rhs.append(False)
                    break
            else:
                rhs.append(True)
        if lhs != rhs:
            if len(ces) < max_counterexamples:
                lhs, rhs = (lhs[0], rhs[0]) if len(parts) == 1 else (tuple(lhs), tuple(rhs))
                side = "postulate holds, condition fails" if lhs else "condition holds, postulate fails"
                ces.append(Counterexample(st, a, None, f"{theorem}: {side}", lhs, rhs))
            else:
                return Verdict(theorem, False, instances, ces, note="counterexample cap hit")
    return Verdict(theorem, not ces, len(work), ces)


# ---------------------------------------------------------------------------
# Representation round trips


def representation_roundtrip(
    op,
    universe: StateUniverse,
    family: str,
    *,
    states=None,
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
    sig = universe.sig
    if states is None:
        states = list(universe.iter_states())
    n_classes = 1 << sig.n_worlds
    ces: list[Counterexample] = []
    instances = 0

    def add(ce):
        if len(ces) < max_counterexamples:
            ces.append(ce)

    # The two families built on plain minimisation are checked on the
    # consistent fragment, where minimisation and the keep-beliefs fallback
    # agree; the contradiction input separates them by construction.
    consistent_only = family in ("DP", "AGM")
    for pid in FAMILY_POSTULATES[family]:
        v = check_postulate(
            op,
            universe,
            pid,
            states=states,
            consistent_only=consistent_only,
            max_counterexamples=max_counterexamples,
        )
        instances += v.instances
        for ce in v.counterexamples:
            add(ce)

    tab = suite_table(op, universe, consistent_only, sampled=False)
    if family == "DP":
        for st in states:
            sid, alphas = tab.id_of(st), tab.classes()
            fails = [
                (pid, cid, _postulate_instance(tab, pid, sid, alphas))
                for pid, cid in (("DP1", "CR8"), ("DP2", "CR9"), ("DP3", "CR10"), ("DP4", "CR11"))
            ]
            for a in alphas:
                instances += 1
                post = tab.states[tab.post(sid, a)]
                for pid, cid, bad in fails:
                    lhs = not (bad >> a) & 1
                    rhs = CONDITIONS[cid](st, post, a, sig.all_worlds & ~a, tab, consistent_only)
                    if lhs != rhs:
                        add(Counterexample(st, a, None, f"{pid} vs {cid} mismatch", lhs, rhs))
    else:
        canon_family = "cl" if family == "CL" else "dl"
        il_scopes = set()
        for st in states:
            instances += 1
            try:
                order, scope = canonical_assignment(tab, st, sig, family=canon_family)
            except NonWeakOrderError as err:
                add(Counterexample(st, None, None, f"canonical reconstruction failed: {err}", "error", "weak order"))
                continue
            il_scopes.add(scope)
            recon = EpistemicState(st.bel, scope, order)
            if not check_faithful_limited(recon):
                add(Counterexample(st, None, None, "reconstruction not faithful", recon, "faithful"))
            if family == "CL" and not check_clf(recon):
                add(Counterexample(st, None, None, "reconstruction not CLF-valid", recon, "CLF"))
            if family == "AGM" and scope != sig.all_worlds:
                add(Counterexample(st, None, None, "AGM scope not total", scope, sig.all_worlds))
            want = tab.bel(tab.id_of(st))
            for a in range(1 if consistent_only else 0, n_classes):
                got = revise_mask(order.levels, scope, st.bel, a)
                if got != want[a]:
                    add(Counterexample(st, a, None, "reconstructed operator disagrees", got, want[a]))
                    break
        if family == "IL" and len(il_scopes) > 1:
            add(Counterexample(states[0], None, None, "reconstructed scope not constant", sorted(il_scopes), "one scope"))

    return Verdict(f"roundtrip-{family}", not ces, instances, ces)


def mutation_detection(
    op,
    universe: StateUniverse,
    *,
    trials: int = 200,
    seed: int = 0,
) -> Verdict:
    """Rate at which single-entry table corruptions are caught by the round trip."""
    sig = universe.sig
    from .operators import tabulate

    rng = random.Random(seed)
    # One table serves every trial: each overwrites one entry and puts it back.
    mutant = tabulate(op, universe)
    states = mutant.states
    n_classes = 1 << sig.n_worlds
    detected = 0
    misses = []
    for _ in range(trials):
        st = states[rng.randrange(len(states))]
        a = rng.randrange(n_classes)
        orig = mutant.mapping[(st, a)]
        while True:
            new_bel = rng.randrange(n_classes)
            if new_bel != orig.bel:
                break
        mutant.mapping[(st, a)] = EpistemicState(new_bel, orig.scope, orig.order)
        try:
            order, scope = canonical_assignment(mutant, st, sig)
            hit = not check_faithful_limited(EpistemicState(st.bel, scope, order)) or any(
                revise_mask(order.levels, scope, st.bel, c) != mutant.revise_beliefs(st, c)
                for c in range(n_classes)
            )
        except NonWeakOrderError:
            hit = True
        finally:
            mutant.mapping[(st, a)] = orig
        if hit:
            detected += 1
        elif len(misses) < MAX_COUNTEREXAMPLES:
            misses.append(Counterexample(st, a, new_bel, "mutation not detected", "accepted", "detected"))
    verdict = Verdict("mutation-detection", detected >= trials * 0.95, trials, misses, seed=seed)
    verdict.note = f"detected {detected}/{trials}"
    return verdict
